"""Y-00 (alpha-eta) coherent-state stream cipher: protocol simulation and
quantum-detection security bounds."""

__version__ = "0.1.0"

from .constellation import (
    Constellation,
    ModulationKind,
    design_bases,
    gram_matrix,
    make_ask,
    make_psk,
    neighbor_error,
    overlap,
)
from .detection import (
    BoundReport,
    WeightedEnsemble,
    helstrom_binary_mixed,
    helstrom_binary_pure,
    quadrature_binary,
    srm_symmetric,
    usd_symmetric,
)
from .cipher import (
    CipherConfig,
    decode,
    default_taps,
    encode,
    lfsr_period,
    lfsr_stream,
    osk_stream,
    reciprocal_taps,
    running_key,
    sequence_count_log2,
    slots_per_period,
)
from .channel import (
    MeasurementRecord,
    apply_loss,
    bob_receive,
    save_record,
    transmit,
)
from .attacks import (
    AttackReport,
    EmpiricalRate,
    bit_hypothesis_ensembles,
    collective_success,
    collective_usd_bound,
    eve_ctoa_data,
    eve_key_symbol,
    key_posterior_entropy,
)

__all__ = [
    "__version__",
    "Constellation", "ModulationKind", "design_bases", "gram_matrix",
    "make_ask", "make_psk", "neighbor_error", "overlap",
    "BoundReport", "WeightedEnsemble",
    "helstrom_binary_mixed", "helstrom_binary_pure", "quadrature_binary",
    "srm_symmetric", "usd_symmetric",
    "CipherConfig", "decode", "default_taps", "encode", "lfsr_period",
    "lfsr_stream", "osk_stream", "reciprocal_taps", "running_key",
    "sequence_count_log2", "slots_per_period",
    "MeasurementRecord", "apply_loss", "bob_receive", "save_record", "transmit",
    "AttackReport", "EmpiricalRate", "bit_hypothesis_ensembles",
    "collective_success", "collective_usd_bound", "eve_ctoa_data",
    "eve_key_symbol", "key_posterior_entropy",
]
