"""Coherent-state constellations: amplitudes, Gram matrices, signal design."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ModulationKind(str, Enum):
    PSK = "psk"
    ASK = "ask"


@dataclass(frozen=True)
class Constellation:
    """An ordered set of 2M coherent states with modulation metadata.

    Point s of a PSK constellation has phase pi*s/M, so indices s and s+M are
    antipodal and basis k is the pair {k, k+M}; PSK points farther than 1e-12 r
    from r e^{i pi s/M}, r = |point 0|, raise ``ValueError``.  ASK points are a strictly
    increasing real-amplitude ladder.  ``kind`` may be given by its value
    ("psk", "ask"); any other raises ``ValueError``.
    """

    amplitudes: np.ndarray
    kind: ModulationKind

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "kind", ModulationKind(self.kind))
        if len(amps) < 2 or len(amps) % 2:
            raise ValueError(f"need an even number of points, at least two; got {len(amps)}")
        if self.kind is ModulationKind.PSK:
            r = abs(amps[0])
            ring = r * np.exp(1j * math.pi * np.arange(len(amps)) / (len(amps) // 2))
            if not np.all(abs(amps - ring) <= 1e-12 * r):
                raise ValueError("PSK points must be r e^{i pi s / M}, r = |point 0|, to within 1e-12 r")

    def __len__(self) -> int:
        return len(self.amplitudes)


def _real(v) -> bool:
    """A finite int or float, numpy's float64 among them, and not a bool."""
    return isinstance(v, (int, float)) and type(v) is not bool and abs(v) <= sys.float_info.max


# quantity: (test of its value and type, what it must be), one rule per number that
# ``_check`` applies to a config's fields (cipher.FIELD_RULES takes these rows) and the
# library's bare arguments alike: an integer is an int, not a bool, float or numpy integer
RULES = {
    "M": (lambda v: type(v) is int and 1 <= v <= 1 << 61 and not v & (v - 1),  # 2M fits an int64
          "an integer power of two, at most 2**61"),
    "S": (lambda v: _real(v) and v >= 0, "finite and >= 0"),
    "kappa": (lambda v: _real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "ask_S_min": (lambda v: v is None or _real(v), "a finite number or None"),
    "N": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),  # a ring's points
    "bases": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "count": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),  # of samples
    "register": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),  # its length |K|
    "taps": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),  # its feedback mask
}


def _check(name: str, value, rule: tuple | None = None) -> None:
    """Refuse ``value`` with a ValueError naming ``name`` unless it passes
    ``rule``, a (test, wording) row, by default ``RULES[name]``."""
    test, wording = rule or RULES[name]
    if not test(value):
        raise ValueError(f"{name} must be {wording}; got {value!r}")


def _check_energies(kind, S_min, S: float, kappa: float, name: str = "S_min") -> ModulationKind:
    """``kind`` as a ModulationKind, and the one energy rule of its points:
    S and kappa obey ``RULES``, a bottom energy S_min (called ``name``) is
    given exactly for ASK, and the ladder from S_min to S through loss kappa
    has S > S_min > 1/kappa."""
    _check("S", S)
    _check("kappa", kappa)
    kind = ModulationKind(kind)
    ask = kind is ModulationKind.ASK
    if ask != (S_min is not None):
        raise ValueError(f"kind {kind.value!r} {'requires' if ask else 'takes no'} {name}")
    if ask:
        _check("S_min", S_min, RULES["S"])
        if S <= S_min:
            raise ValueError("S must exceed S_min")
        if S_min * kappa <= 1:
            raise ValueError(f"S_min={S_min} violates the minimum-energy constraint S_min > 1/kappa at kappa={kappa}")
    return kind


def make_psk(M: int, S: float) -> Constellation:
    """2M phase-shift-keyed points on the circle of radius sqrt(S).

    Point s = sqrt(S) * exp(i*pi*s/M); neighbors are separated by
    2*pi*|alpha|/(2M) of arc.  M and S obey ``RULES`` ("bases", "S").
    """
    _check("M", M, RULES["bases"])
    _check("S", S)
    s = np.arange(2 * M)
    amps = math.sqrt(S) * np.exp(1j * math.pi * s / M)
    return Constellation(amps, ModulationKind.PSK)


def make_ask(M: int, S_min: float, S: float, kappa: float) -> Constellation:
    """2M equally spaced real amplitudes on [sqrt(S_min), sqrt(S)].

    M obeys ``RULES["bases"]``, and S > S_min > 1/kappa (``_check_energies``).
    """
    _check("M", M, RULES["bases"])
    _check_energies(ModulationKind.ASK, S_min, S, kappa)
    amps = np.linspace(math.sqrt(S_min), math.sqrt(S), 2 * M).astype(np.complex128)
    return Constellation(amps, ModulationKind.ASK)


def gram_matrix(c: Constellation | np.ndarray) -> np.ndarray:
    """Hermitian PSD matrix of pairwise overlaps
    <alpha_i|alpha_j> = exp(-|alpha_i|^2/2 - |alpha_j|^2/2 + conj(alpha_i) alpha_j),
    so that |<a|b>|^2 = exp(-|a - b|^2).

    Entries are evaluated in log form and exponentiated at the end, so far
    pairs (log-magnitude below about -745) underflow cleanly to 0 instead of
    producing spurious NaNs.
    """
    amps = c.amplitudes if isinstance(c, Constellation) else np.asarray(c, dtype=np.complex128)
    if len(amps) == 0:
        raise ValueError("empty constellation")
    n2 = np.abs(amps) ** 2
    log_g = -0.5 * (n2[:, None] + n2[None, :]) + np.conj(amps)[:, None] * amps[None, :]
    # complex exp underflows to 0 for very negative real parts, which is wanted
    with np.errstate(under="ignore"):
        return np.exp(log_g)


# Per-quadrature standard deviations: a coherent state read by homodyne
# (variance 1/4), and a heterodyne outcome, which pays one extra vacuum
# quarter (variance 1/2).
COHERENT_SIGMA = 0.5
HETERODYNE_SIGMA = math.sqrt(0.5)


def gaussian_tail(t: float) -> float:
    """P(Z > t) for standard normal Z."""
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def design_neighbor_error(M: int, S: float, kind: ModulationKind = ModulationKind.PSK,
                          S_min: float | None = None) -> float:
    """Gaussian confusion Q(d / 2 sigma) = Q(d) of a midpoint threshold between
    adjacent points of the M-basis constellation ``design_bases`` weighs, with
    sigma = 1/2 the quadrature noise and d their chord in closed form, no point
    built: 2 sqrt(S) sin(pi/2M) on a PSK ring of energy S, and
    (sqrt(S) - sqrt(S_min))/(2M - 1) on a lossless ASK ladder from S_min to S.
    The chord, not the arc: the noise lives in the plane, and at practical
    parameters the two agree to < 0.1%.  Refuses what ``make_psk`` and
    ``make_ask`` refuse, and S_min on a ring (``_check_energies`` at kappa = 1).
    """
    _check("M", M, RULES["bases"])
    if _check_energies(kind, S_min, S, 1.0) is ModulationKind.PSK:
        chord = 2.0 * math.sqrt(S) * math.sin(math.pi / (2 * M))
    else:
        chord = (math.sqrt(S) - math.sqrt(S_min)) / (2 * M - 1)
    return gaussian_tail(chord / (2.0 * COHERENT_SIGMA))


def design_bases(target_pe: float, S: float, kind: ModulationKind = ModulationKind.PSK,
                 S_min: float | None = None) -> int:
    """Smallest power of two M, the base counts ``CipherConfig`` accepts,
    whose neighbor confusion (``design_neighbor_error``) reaches target_pe.

    Neighbor error grows with M at fixed energy (points crowd together), so
    the first M = 2^j, j <= 40, that reaches the target is the answer; the
    boundary M scales like sqrt(S).  For ASK supply S_min; S tops the ladder,
    as in ``make_ask``.  A target no M up to 2^40 reaches raises ValueError.
    """
    if not 0.2 <= target_pe < 0.5:
        raise ValueError("target_pe must lie in [0.2, 0.5)")
    for j in range(41):
        if design_neighbor_error(1 << j, S, kind, S_min) >= target_pe:
            return 1 << j
    raise ValueError(f"target_pe {target_pe} is unreachable at S={S} with at most 2^40 bases")
