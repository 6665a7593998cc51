"""Physical layer: pure-loss propagation, the eavesdropper's heterodyne tap and
Bob's keyed homodyne receiver.

Variance accounting: a coherent state carries per-quadrature variance 1/4.
Homodyne reads one quadrature at that variance; heterodyne measures both at
once and pays one extra vacuum quarter, for 1/2 per quadrature.  With that
convention the heterodyne outcome density is exactly the Husimi distribution
(1/pi) exp(-|y - alpha|^2) of the incoming state.  The tap is heterodyne
only, so every record holds Husimi samples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cipher import CipherConfig, osk_stream, running_key
from .constellation import ModulationKind

HOMODYNE_SIGMA = 0.5
HETERODYNE_SIGMA = np.sqrt(0.5)


@dataclass(frozen=True)
class MeasurementRecord:
    """A per-slot record of heterodyne outcomes, as the eavesdropper sees them."""

    samples: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))
        if not 0 < self.kappa <= 1:
            raise ValueError("kappa must be in (0, 1]")

    def __len__(self) -> int:
        return len(self.samples)


def apply_loss(amplitudes, kappa: float) -> np.ndarray:
    """Energy loss keeps coherent states coherent: alpha -> sqrt(kappa) alpha.

    No excess noise is added, so losses compose multiplicatively.
    """
    if not 0 < kappa <= 1:
        raise ValueError("kappa must be in (0, 1]")
    return np.asarray(amplitudes, dtype=np.complex128) * np.sqrt(kappa)


def heterodyne_sample(amplitudes, rng: np.random.Generator) -> np.ndarray:
    """Simultaneous two-quadrature outcomes: mean alpha, variance 1/2 per quadrature."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    noise = rng.normal(0.0, HETERODYNE_SIGMA, size=amps.shape) \
        + 1j * rng.normal(0.0, HETERODYNE_SIGMA, size=amps.shape)
    return amps + noise


def transmit(indices, config: CipherConfig, rng: np.random.Generator) -> MeasurementRecord:
    """Propagate encoded slots through the loss channel and sample the heterodyne tap.

    The returned record is what an unkeyed observer collects; Bob's keyed
    reception is a separate homodyne path (see ``bob_receive``).
    """
    amps = apply_loss(config.constellation().amplitudes[np.asarray(indices)], config.kappa)
    return MeasurementRecord(heterodyne_sample(amps, rng), config.kappa)


def bob_receive(values, config: CipherConfig, rng: np.random.Generator | None = None,
                plaintext=None) -> tuple[np.ndarray, float | None]:
    """Keyed binary reception: project each slot on the known basis axis and threshold.

    ``values`` may be noiseless post-loss amplitudes (pass ``rng`` to let Bob
    draw his own homodyne noise at variance 1/4) or pre-sampled outcomes
    (``rng=None`` adds nothing).  Returns the decoded bits and, when the true
    plaintext is supplied, the empirical bit error rate.
    """
    y = np.asarray(values, dtype=np.complex128)
    n = len(y)
    truth = None if plaintext is None else np.asarray(plaintext, dtype=np.int64)
    if truth is not None and len(truth) != n:
        raise ValueError("record and plaintext lengths differ")
    k = running_key(config, n)
    c = config.constellation()
    root_kappa = np.sqrt(config.kappa)

    if config.kind is ModulationKind.PSK:
        axis = np.exp(-1j * np.pi * k / config.M)  # rotate the basis axis onto the real line
        proj = (axis * y).real
        if rng is not None:
            proj = proj + rng.normal(0.0, HOMODYNE_SIGMA, size=n)
        raw = (proj < 0).astype(np.int64)
    else:
        proj = y.real
        if rng is not None:
            proj = proj + rng.normal(0.0, HOMODYNE_SIGMA, size=n)
        lo = c.amplitudes[k].real * root_kappa
        hi = c.amplitudes[k + config.M].real * root_kappa
        raw = (proj > 0.5 * (lo + hi)).astype(np.int64)

    if config.osk:
        raw = raw ^ osk_stream(config, n)
    ber = None
    if truth is not None:
        ber = float(np.mean(raw != truth)) if n else 0.0
    return raw, ber


# --- record files -----------------------------------------------------------

def save_record(path, record: MeasurementRecord, seed: int | None = None) -> None:
    """Interleaved little-endian float64 (re, im) samples, with the mode
    (always "heterodyne"), kappa, seed and length in a JSON sidecar at
    ``path`` + ".json"."""
    path = Path(path)
    inter = np.empty(2 * len(record), dtype="<f8")
    inter[0::2] = record.samples.real
    inter[1::2] = record.samples.imag
    inter.tofile(path)
    meta = {"mode": "heterodyne", "kappa": record.kappa,
            "seed": seed, "length": len(record)}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, sort_keys=True) + "\n")
