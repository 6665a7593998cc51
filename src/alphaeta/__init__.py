"""Y-00 (alpha-eta) coherent-state stream cipher: protocol simulation and
quantum-detection security bounds."""

__version__ = "0.1.0"

from .constellation import (
    CoherentPoint,
    Constellation,
    ModulationKind,
    design_bases,
    gram_matrix,
    log_overlap,
    make_ask,
    make_psk,
    neighbor_error,
    overlap,
)
from .detection import (
    BinaryPrior,
    BoundReport,
    EQUAL_PRIORS,
    WeightedEnsemble,
    helstrom_binary_mixed,
    helstrom_binary_pure,
    helstrom_even_odd,
    quadrature_binary,
    srm_symmetric,
    srm_symmetric_residual,
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
    read_indices,
    read_key_file,
    reciprocal_taps,
    running_key,
    sequence_count_log2,
    slots_per_period,
    write_indices,
    write_key_file,
)
from .channel import (
    MeasurementRecord,
    apply_loss,
    bob_receive,
    heterodyne_sample,
    load_record,
    save_record,
    transmit,
)
from .attacks import (
    AttackReport,
    EmpiricalRate,
    binary_entropy,
    bit_hypothesis_ensembles,
    collective_success,
    collective_usd_bound,
    data_equivocation,
    eve_ctoa_data,
    eve_key_symbol,
    key_posterior_entropy,
    keygen_advantage,
    repetition_success,
    symmetric_symbol_error_mc,
)

__all__ = [
    "__version__",
    "CoherentPoint", "Constellation", "ModulationKind", "design_bases",
    "gram_matrix", "log_overlap", "make_ask", "make_psk", "neighbor_error",
    "overlap",
    "BinaryPrior", "BoundReport", "EQUAL_PRIORS", "WeightedEnsemble",
    "helstrom_binary_mixed", "helstrom_binary_pure", "helstrom_even_odd",
    "quadrature_binary", "srm_symmetric", "srm_symmetric_residual",
    "usd_symmetric",
    "CipherConfig", "decode", "default_taps", "encode", "lfsr_period",
    "lfsr_stream", "osk_stream", "read_indices", "read_key_file",
    "reciprocal_taps", "running_key", "sequence_count_log2",
    "slots_per_period", "write_indices", "write_key_file",
    "MeasurementRecord", "apply_loss", "bob_receive", "heterodyne_sample",
    "load_record", "save_record", "transmit",
    "AttackReport", "EmpiricalRate", "binary_entropy",
    "bit_hypothesis_ensembles", "collective_success", "collective_usd_bound",
    "data_equivocation", "eve_ctoa_data", "eve_key_symbol",
    "key_posterior_entropy", "keygen_advantage", "repetition_success",
    "symmetric_symbol_error_mc",
]
