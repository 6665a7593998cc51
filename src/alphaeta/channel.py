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

from .cipher import CipherConfig, _state_indices, keystream
from .constellation import COHERENT_SIGMA, HETERODYNE_SIGMA, Constellation, _check


@dataclass(frozen=True)
class MeasurementRecord:
    """One heterodyne outcome per slot, as the eavesdropper sees them: a 1-d ``samples``."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional; got shape {self.samples.shape}")

    def __len__(self) -> int:
        return len(self.samples)


def apply_loss(amplitudes, kappa: float) -> np.ndarray:
    """Energy loss keeps coherent states coherent: alpha -> sqrt(kappa) alpha.

    No excess noise is added, so losses compose multiplicatively.  kappa
    obeys ``constellation.RULES["kappa"]``, as a config's does.
    """
    _check("kappa", kappa)
    return np.asarray(amplitudes, dtype=np.complex128) * np.sqrt(kappa)


def received(config: CipherConfig) -> Constellation:
    """The points that reach the receivers: the launched constellation
    (``config.constellation()``) after the channel's loss ``config.kappa``."""
    c = config.constellation()
    return Constellation(apply_loss(c.amplitudes, config.kappa), c.kind)


# Gaussian noise is drawn this many values at a time, so a sampler holds its
# output plus one cache-sized block, not a temporary as long as the record
_NOISE_BLOCK = 1 << 14


def _add_normal(view: np.ndarray, sigma: float, rng: np.random.Generator) -> None:
    """Add N(0, sigma^2) draws to the 1-d ``view`` in place, in index order, one
    ``_NOISE_BLOCK`` at a time: the same stream and the same sums as one
    ``rng.normal`` call of the view's length."""
    for lo in range(0, len(view), _NOISE_BLOCK):
        block = view[lo:lo + _NOISE_BLOCK]
        block += rng.normal(0.0, sigma, size=len(block))


def transmit(indices, config: CipherConfig, rng: np.random.Generator) -> MeasurementRecord:
    """Propagate encoded slots through the loss channel and sample the heterodyne
    tap: each outcome has mean the received point, variance 1/2 per quadrature.

    The sent points are gathered into the record, and the noise is added there
    (``_add_normal``): the real quadratures of every slot first, in slot order,
    then the imaginary ones; records, reports and claim 7b depend on that
    order.  Memory is the record plus one block.  The returned record is what
    an unkeyed observer collects; Bob's keyed reception is a separate homodyne
    path (see ``bob_receive``).  Indices outside [0, 2M), not integers, or not
    one-dimensional raise ``ValueError`` before any draw.
    """
    record = MeasurementRecord(received(config).amplitudes[_state_indices(indices, config)])
    _add_normal(record.samples.real, HETERODYNE_SIGMA, rng)
    _add_normal(record.samples.imag, HETERODYNE_SIGMA, rng)
    return record


def bob_receive(values, config: CipherConfig,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Keyed binary reception: project each slot on the axis of its key pair
    and threshold at the pair's midpoint.

    ``values`` may be noiseless post-loss amplitudes (pass ``rng`` to let Bob
    draw his own homodyne noise at variance 1/4) or pre-sampled outcomes
    (``rng=None`` adds nothing).  His draws, one per slot in slot order, are
    added one block at a time (``_add_normal``), so they hold one block, not
    a record-length temporary.  With beta the received points and p the key
    index (``keystream``), bit 0 sits at beta_p and bit 1 at
    beta_{p+M}; along d_p = beta_{p+M} - beta_p the bit is 1 past the
    midpoint, on a ring and a ladder alike.  Where d_p = 0 (S = 0) the axis
    is 0 and the noise alone decides.  Returns the decoded bits.
    """
    y = np.asarray(values, dtype=np.complex128)
    p = keystream(config, len(y))
    beta = received(config).amplitudes
    d = np.roll(beta, -config.M) - beta
    axis = np.divide(np.conj(d), np.abs(d), out=np.zeros_like(d), where=d != 0)
    offset = (axis * (beta + d / 2)).real
    rotated = axis[p]
    rotated *= y
    proj = rotated.real
    proj -= offset[p]
    if rng is not None:
        _add_normal(proj, COHERENT_SIGMA, rng)
    return (proj > 0).astype(np.int64)


# --- record files -----------------------------------------------------------

def save_record(path, record: MeasurementRecord, kappa: float, seed: int | None = None) -> None:
    """Interleaved little-endian float64 (re, im) samples, with the mode
    (always "heterodyne"), the run's loss kappa, seed and length in a JSON
    sidecar at ``path`` + ".json"."""
    path = Path(path)
    record.samples.astype("<c16").tofile(path)  # a complex is its (re, im) pair
    meta = {"mode": "heterodyne", "kappa": kappa, "seed": seed, "length": len(record)}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, sort_keys=True) + "\n")
