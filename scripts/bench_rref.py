#!/usr/bin/env python3
"""Report row-reduction costs on the 61-bit prime and the GF(2^16) reference curves.

Per curve: the two ``_rref`` systems of one formula set (the 130x110 pair
kernel and the 130x63 stage-two system, whose right-hand sides start at
column 55), captured by wrapping ``_rref`` in ``algebra`` and in
``synthesis`` during ``synthesize_formula_set``, then replayed on fresh
copies.  Prints one JSON object:

- ``counts``: per curve, each system's shape, pivot-column limit and rank,
  which depend on the curve and the seed alone;
- ``ms``: per curve, the median, min and max over REPEATS reductions of
  each system in milliseconds, and ``total_ms``, the sum of the medians;
- ``machine``: as in ``scripts/bench_ladder.py``.

Usage: scripts/bench_rref.py [seed]
"""

import json
import os
import random
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_ladder import machine
from g2kummer import algebra, synthesis
from g2kummer.synthesis import deserialize_formula_set, synthesize_formula_set

CURVES = ("m61_h2_f5", "c2_general_f")
REPEATS = 15


def capture(c, seed):
    """(field, rows, limit_cols) of every ``_rref`` call of one formula set,
    copied before the in-place reduction."""
    systems = []
    inner = algebra._rref

    def recording(F, rows, limit_cols=None):
        systems.append((F, [list(r) for r in rows], limit_cols))
        return inner(F, rows, limit_cols)

    algebra._rref = synthesis._rref = recording
    try:
        synthesize_formula_set(c, random.Random(seed))
    finally:
        algebra._rref = synthesis._rref = inner
    return systems


def replay(F, rows, limit_cols):
    """Milliseconds of REPEATS reductions of copies of ``rows`` (median,
    min, max), and the rank."""
    runs = []
    for _ in range(REPEATS):
        work = [list(r) for r in rows]
        t0 = time.perf_counter()
        rank, _pivots = algebra._rref(F, work, limit_cols)
        runs.append((time.perf_counter() - t0) * 1e3)
    return {"median": statistics.median(runs), "min": min(runs), "max": max(runs)}, rank


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    counts, timings = {}, {}
    for name in CURVES:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{name}.kfs")) as fh:
            c = deserialize_formula_set(fh.read()).curve
        counts[name], systems = [], []
        for F, rows, limit_cols in capture(c, seed):
            ms, rank = replay(F, rows, limit_cols)
            counts[name].append({"shape": [len(rows), len(rows[0])], "limit_cols": limit_cols, "rank": rank})
            systems.append(ms)
        timings[name] = {"systems": systems, "total_ms": sum(s["median"] for s in systems)}
    out = {"seed": seed, "repeats": REPEATS, "counts": counts, "ms": timings}
    print(json.dumps({**out, "machine": machine()}, indent=2))


if __name__ == "__main__":
    main()
