"""Coherent-state constellations: amplitudes, overlaps, Gram matrices, signal design."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModulationKind(str, Enum):
    PSK = "psk"
    ASK = "ask"


def log_overlap(a, b) -> complex:
    """Complex logarithm of <a|b>.

    Real part is the log-magnitude, imaginary part the phase.  Working in
    log form keeps products of many overlaps finite at large photon numbers
    (log-magnitudes down to about -1e5 are routine there).
    """
    za, zb = complex(a), complex(b)
    return -0.5 * (abs(za) ** 2 + abs(zb) ** 2) + za.conjugate() * zb


def overlap(a, b) -> complex:
    """Inner product <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b).

    Satisfies |<a|b>|^2 = exp(-|a-b|^2).  Underflows to exactly 0 once the
    log-magnitude drops below about -745; that is acceptable and documented.
    """
    lo = log_overlap(a, b)
    if lo.real < -745.0:
        return 0.0j
    return complex(np.exp(lo))


@dataclass(frozen=True)
class Constellation:
    """An ordered set of 2M coherent states with modulation metadata.

    Point s of a PSK constellation has phase pi*s/M, so indices s and s+M are
    antipodal and basis k is the pair {k, k+M}.  ASK points are a strictly
    increasing real-amplitude ladder.
    """

    amplitudes: np.ndarray
    kind: ModulationKind
    num_bases: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if self.num_bases < 1:
            raise ValueError("num_bases must be >= 1")
        if len(amps) != 2 * self.num_bases:
            raise ValueError(f"expected {2 * self.num_bases} points, got {len(amps)}")

    def __len__(self) -> int:
        return len(self.amplitudes)

    def neighbor_distance(self) -> float:
        """Smallest chord distance between adjacent points (wrapping for PSK)."""
        amps = self.amplitudes
        d = np.abs(np.diff(amps))
        if self.kind is ModulationKind.PSK and len(amps) > 2:
            d = np.append(d, abs(amps[0] - amps[-1]))
        return float(d.min())


def make_psk(M: int, S: float) -> Constellation:
    """2M phase-shift-keyed points on the circle of radius sqrt(S).

    Point s = sqrt(S) * exp(i*pi*s/M); neighbors are separated by
    2*pi*|alpha|/(2M) of arc.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if S < 0:
        raise ValueError("S must be nonnegative")
    s = np.arange(2 * M)
    amps = math.sqrt(S) * np.exp(1j * math.pi * s / M)
    return Constellation(amps, ModulationKind.PSK, M)


def make_ask(M: int, S_min: float, S_max: float, kappa: float) -> Constellation:
    """2M equally spaced real amplitudes on [sqrt(S_min), sqrt(S_max)].

    The minimum energy must clear the attenuation floor: S_min > 1/kappa.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if not 0 < kappa <= 1:
        raise ValueError("kappa must be in (0, 1]")
    if S_max <= S_min:
        raise ValueError("S_max must exceed S_min")
    if S_min <= 1.0 / kappa:
        raise ValueError(f"S_min={S_min} violates the minimum-energy constraint S_min > 1/kappa={1.0 / kappa}")
    amps = np.linspace(math.sqrt(S_min), math.sqrt(S_max), 2 * M).astype(np.complex128)
    return Constellation(amps, ModulationKind.ASK, M)


def gram_matrix(c: Constellation | np.ndarray) -> np.ndarray:
    """Hermitian PSD matrix of pairwise overlaps <alpha_i|alpha_j>.

    Entries are evaluated in log form and exponentiated at the end, so far
    pairs underflow cleanly to 0 instead of producing spurious NaNs.
    """
    amps = c.amplitudes if isinstance(c, Constellation) else np.asarray(c, dtype=np.complex128)
    if len(amps) == 0:
        raise ValueError("empty constellation")
    n2 = np.abs(amps) ** 2
    log_g = -0.5 * (n2[:, None] + n2[None, :]) + np.conj(amps)[:, None] * amps[None, :]
    # complex exp underflows to 0 for very negative real parts, which is wanted
    with np.errstate(under="ignore"):
        return np.exp(log_g)


# Per-quadrature standard deviation of a coherent state (variance 1/4).
COHERENT_SIGMA = 0.5


def gaussian_tail(t: float) -> float:
    """P(Z > t) for standard normal Z."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def neighbor_error(c: Constellation) -> float:
    """Gaussian confusion probability between adjacent constellation points.

    The decision variable lives on the line joining two neighbors at chord
    distance d; each state contributes quadrature noise of sigma = 1/2, and a
    midpoint threshold errs with probability Q(t0) where t0 = (d/2)/sigma = d.
    Chord distance is used rather than arc length: the noise lives in the
    plane, and at practical parameters arc and chord agree to < 0.1%.
    Strictly in (0, 1/2].
    """
    if len(c) < 2:
        raise ValueError("need at least two points")
    t0 = c.neighbor_distance() / (2.0 * COHERENT_SIGMA)
    return gaussian_tail(t0)


def design_bases(target_pe: float, S: float, kind: ModulationKind = ModulationKind.PSK,
                 S_min: float | None = None) -> int:
    """Smallest number of bases M whose neighbor confusion reaches target_pe.

    Neighbor error grows with M at fixed energy (points crowd together), so
    the admissible set {M : neighbor_error >= target} is upward closed; its
    boundary M scales like sqrt(S).  Ties at the boundary resolve toward the
    larger, more secure M.  For ASK supply S_min; S is then read as S_max.
    """
    if not 0.2 <= target_pe < 0.5:
        raise ValueError("target_pe must lie in [0.2, 0.5)")
    kind = ModulationKind(kind)

    def pe(M: int) -> float:
        if kind is ModulationKind.PSK:
            return neighbor_error(make_psk(M, S))
        if S_min is None:
            raise ValueError("ASK design requires S_min")
        return neighbor_error(make_ask(M, S_min, S, kappa=1.0))

    if pe(1) >= target_pe:
        return 1
    lo, hi = 1, 2
    while pe(hi) < target_pe:
        lo, hi = hi, hi * 2
        if hi > 1 << 40:
            raise RuntimeError("target_pe unreachable")
    # invariant: pe(lo) < target <= pe(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pe(mid) >= target_pe:
            hi = mid
        else:
            lo = mid
    return hi
