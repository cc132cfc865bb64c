#!/usr/bin/env python3
"""Regenerate the reference KFS1 files that gate the ``synth`` workload.

    python3 perfbench/make_reference.py

Synthesis output is independent of the sampling seed for these curves (the
formula sets are canonically normalized); only rerun this when the
library's output format deliberately changes.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from g2kummer.corpus import default_corpus  # noqa: E402
from g2kummer.synthesis import serialize_formula_set, synthesize_formula_set  # noqa: E402

CURVES = ("m61_h2_f5", "c2_general_f", "rational_small")


def main():
    corpus = dict(default_corpus())
    for name in CURVES:
        fs = synthesize_formula_set(corpus[name], random.Random(7))
        (HERE / "reference" / f"{name}.kfs").write_text(serialize_formula_set(fs))
        print(f"wrote reference/{name}.kfs")


if __name__ == "__main__":
    main()
