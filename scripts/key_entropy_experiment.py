#!/usr/bin/env python3
"""Exhaustive key-equivocation experiment over pulse energy.

For one full register period of known-plaintext slots, enumerate every seed,
score it against the heterodyne record, and print the posterior entropy.
Shows the collapse from a near-flat posterior (tiny S) to full key recovery
(large S) at desk-scale key sizes.  Each row is ``reproduce.period_entropy``,
the pipeline of claims 5a and 5b.

Usage: python scripts/key_entropy_experiment.py [--key-bits 12] [--m 64]
"""
import argparse

import numpy as np

from alphaeta.cipher import CipherConfig
from alphaeta.reproduce import period_entropy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--key-bits", type=int, default=12)
    ap.add_argument("--m", type=int, default=64)
    ap.add_argument("--seed", type=int, default=None,
                    help="register seed (default: 0x5A5 reduced into the |K|-bit range)")
    ap.add_argument("--record-seed", type=int, default=99)
    ap.add_argument("--s", type=float, nargs="+",
                    default=[0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0])
    args = ap.parse_args()
    # 0x5A5 itself for |K| >= 11; always a nonzero |K|-bit state
    seed = args.seed if args.seed is not None else (0x5A5 - 1) % (2 ** args.key_bits - 1) + 1

    print(f"M={args.m}  |K|={args.key_bits}  one period, all-zero plaintext")
    print(f"{'S':>10}  {'slots':>6}  {'posterior entropy (bits)':>25}")
    for s in args.s:
        cfg = CipherConfig(M=args.m, S=s, key_bits=args.key_bits, seed=seed, osk=True)
        h, slots = period_entropy(cfg, args.record_seed)
        print(f"{s:>10g}  {slots:>6}  {h:>25.4f}")
    print(f"(flat posterior would be {np.log2(2 ** args.key_bits - 1):.4f} bits)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
