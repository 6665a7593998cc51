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

from .cipher import CipherConfig, _state_indices, osk_stream, running_key
from .constellation import COHERENT_SIGMA, HETERODYNE_SIGMA, ModulationKind


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
    """Simultaneous two-quadrature outcomes: mean alpha, variance 1/2 per quadrature.

    The real quadratures of every slot are drawn first, then the imaginary
    ones, each as one ``rng.normal`` call of the input's shape; records,
    reports and claim 7b depend on that order.  A scalar input gives a
    ``np.complex128`` scalar.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    out = np.empty(amps.shape, dtype=np.complex128)
    out.real = rng.normal(0.0, HETERODYNE_SIGMA, size=amps.shape)
    out.imag = rng.normal(0.0, HETERODYNE_SIGMA, size=amps.shape)
    out += amps
    return out[()]


def transmit(indices, config: CipherConfig, rng: np.random.Generator) -> MeasurementRecord:
    """Propagate encoded slots through the loss channel and sample the heterodyne tap.

    The returned record is what an unkeyed observer collects; Bob's keyed
    reception is a separate homodyne path (see ``bob_receive``).  Indices
    outside [0, 2M) or not integers raise ``ValueError``.
    """
    amps = apply_loss(config.constellation().amplitudes[_state_indices(indices, config)],
                      config.kappa)
    return MeasurementRecord(heterodyne_sample(amps, rng), config.kappa)


def bob_receive(values, config: CipherConfig,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Keyed binary reception: project each slot on the known basis axis and threshold.

    ``values`` may be noiseless post-loss amplitudes (pass ``rng`` to let Bob
    draw his own homodyne noise at variance 1/4) or pre-sampled outcomes
    (``rng=None`` adds nothing).  Returns the decoded bits.
    """
    y = np.asarray(values, dtype=np.complex128)
    n = len(y)
    k = running_key(config, n)
    c = config.constellation()
    root_kappa = np.sqrt(config.kappa)

    if config.kind is ModulationKind.PSK:
        # rotate each slot's basis axis onto the real line; there are M axes
        axis = np.exp(-1j * np.pi * np.arange(config.M) / config.M)[k]
        proj = (axis * y).real
        if rng is not None:
            proj = proj + rng.normal(0.0, COHERENT_SIGMA, size=n)
        raw = (proj < 0).astype(np.int64)
    else:
        proj = y.real
        if rng is not None:
            proj = proj + rng.normal(0.0, COHERENT_SIGMA, size=n)
        lo = c.amplitudes[k].real * root_kappa
        hi = c.amplitudes[k + config.M].real * root_kappa
        raw = (proj > 0.5 * (lo + hi)).astype(np.int64)

    if config.osk:
        raw = raw ^ osk_stream(config, n)
    return raw


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
