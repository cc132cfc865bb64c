#!/usr/bin/env python3
"""Report ladder costs on the 61-bit prime and the GF(2^16) reference curves.

The formula sets are read from perfbench/reference/*.kfs, so nothing is
synthesized.  Usage: scripts/bench_ladder.py [seed]
"""

import json
import os
import random
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2kummer.ladder import bench, make_context
from g2kummer.synthesis import deserialize_formula_set

CURVES = ("m61_h2_f5", "c2_general_f")


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20260808
    print(f"seed {seed}")
    for name in CURVES:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{name}.kfs")) as fh:
            fs = deserialize_formula_set(fh.read())
        ctx = make_context(fs.curve, fs)
        print(name, json.dumps(bench(ctx, random.Random(seed), trials=5), indent=2))


if __name__ == "__main__":
    main()
