"""One rule per number: the library's bare arguments pass the table the
config's fields pass (``constellation.RULES``), with the same refusal."""
import math
import re

import numpy as np
import pytest

from alphaeta import cipher, constellation
from alphaeta.attacks import collective_usd_bound
from alphaeta.channel import apply_loss
from alphaeta.cipher import CipherConfig, keystream, lfsr_period, lfsr_stream, reciprocal_taps
from alphaeta.constellation import design_bases, design_neighbor_error, make_ask, make_psk
from alphaeta.detection import pair_symmetric, srm_symmetric, usd_symmetric

CONFIG = CipherConfig(M=4, S=1.0, key_bits=8, seed=0x3C)

# (quantity named in the refusal, a value the call accepts, the call,
# values beyond the common ones that it refuses)
ENTRY_POINTS = {
    # 2M = 2**62 is the largest power of two an int64 holds
    "CipherConfig-M": ("M", 1 << 61, lambda v: CipherConfig(M=v, S=1.0, key_bits=16, seed=3),
                       (0, 3, 1 << 62, 1 << 63)),
    "make_psk-M": ("M", 4, lambda v: make_psk(v, 1.0), ()),
    "make_psk-S": ("S", 1.0, lambda v: make_psk(4, v), ()),
    "make_ask-M": ("M", 2, lambda v: make_ask(v, 2.0, 4.0, 1.0), (0,)),
    "make_ask-S_min": ("S_min", 2.0, lambda v: make_ask(2, v, 4.0, 1.0), ()),
    "make_ask-S": ("S", 4.0, lambda v: make_ask(2, 2.0, v, 1.0), ()),
    "make_ask-kappa": ("kappa", 1.0, lambda v: make_ask(2, 2.0, 4.0, v), (0, 1.5)),
    "design_neighbor_error-M": ("M", 4, lambda v: design_neighbor_error(v, 10.0), (4.5,)),
    "design_neighbor_error-S": ("S", 10.0, lambda v: design_neighbor_error(4, v), ()),
    "design_neighbor_error-S_min": ("S_min", 2.0,
                                    lambda v: design_neighbor_error(4, 10.0, "ask", v), ()),
    "design_bases-S": ("S", 100.0, lambda v: design_bases(0.3, v), ()),
    "design_bases-S_min": ("S_min", 4.0, lambda v: design_bases(0.3, 100.0, "ask", v), ()),
    "srm_symmetric-N": ("N", 4, lambda v: srm_symmetric(v, 10.0), (1,)),
    "srm_symmetric-S": ("S", 10.0, lambda v: srm_symmetric(8, v), ()),
    "usd_symmetric-N": ("N", 4, lambda v: usd_symmetric(v, 10.0), (1,)),
    "usd_symmetric-S": ("S", 10.0, lambda v: usd_symmetric(8, v), ()),
    "pair_symmetric-M": ("M", 4, lambda v: pair_symmetric(v, 10.0), (0,)),
    "pair_symmetric-S": ("S", 10.0, lambda v: pair_symmetric(4, v), ()),
    "collective_usd_bound-N": ("N", 2000, lambda v: collective_usd_bound(v, 1e4, 110), ()),
    "collective_usd_bound-S": ("S", 1e4, lambda v: collective_usd_bound(2000, v, 110), ()),
    "collective_usd_bound-key_bits": ("key_bits", 110,
                                      lambda v: collective_usd_bound(2000, 1e4, v), (0, -5)),
    "keystream-count": ("count", 3, lambda v: keystream(CONFIG, v), ()),
    "lfsr_stream-count": ("count", 3, lambda v: lfsr_stream(1, 3, v, 4), ()),
    "lfsr_stream-key_bits": ("key_bits", 4, lambda v: lfsr_stream(1, 3, 5, v), (0,)),
    "lfsr_stream-seed": ("seed", 1, lambda v: lfsr_stream(v, 3, 4, 4), (0, 16)),
    "lfsr_stream-taps": ("taps", 3, lambda v: lfsr_stream(1, v, 4, 4), (None, -13)),
    "lfsr_period-key_bits": ("key_bits", 4, lambda v: lfsr_period(3, v), (0,)),
    "lfsr_period-taps": ("taps", 3, lambda v: lfsr_period(v, 4), (None, -13)),
    "reciprocal_taps-key_bits": ("key_bits", 4, lambda v: reciprocal_taps(3, v), (0,)),
    "reciprocal_taps-taps": ("taps", 3, lambda v: reciprocal_taps(v, 4), (None, -13)),
    "apply_loss-kappa": ("kappa", 0.5, lambda v: apply_loss([1.0], v), (0, 1.5)),
}


def refused_values(valid, extra) -> list:
    """A bool, a string, non-finite and negative values and a numpy scalar;
    for an integer quantity also a fraction and an integral float.  A
    negative int is refused as taps too: masked as two's complement it would
    name a polynomial (-13 at |K| = 4 is taps 3)."""
    common = [True, "10", math.nan, math.inf, -1, *extra]
    if type(valid) is int:
        return common + [2.5, float(valid), np.int64(valid)]
    return common + [np.float32(valid), np.int64(1)]


CASES = [(entry, value) for entry, (_, valid, _, extra) in ENTRY_POINTS.items()
         for value in refused_values(valid, extra)]


@pytest.mark.parametrize("entry, value", CASES, ids=[f"{e}={v!r}" for e, v in CASES])
def test_bare_argument_refused_naming_its_quantity(entry, value):
    # not a ring built from a bool or a float, a figure read from one, nor a
    # TypeError from a comparison, a slice or a square root
    name, valid, call, _ = ENTRY_POINTS[entry]
    call(valid)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


def test_config_takes_the_library_rows():
    # a shared number rule is written once, so the config and the library
    # cannot drift apart
    shared = set(cipher.FIELD_RULES) & set(constellation.RULES)
    assert shared == {"M", "S", "kappa", "ask_S_min"}
    assert all(cipher.FIELD_RULES[name] is constellation.RULES[name] for name in shared)
