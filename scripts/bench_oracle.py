#!/usr/bin/env python3
"""Report Cantor-oracle costs on the 61-bit prime and the GF(2^16) reference curves.

Per curve: the median microseconds of one generic addition, one doubling,
one ``random_divisor``, one kappa (``to_point_pair`` + ``kummer_coords``)
and one ``to_point_pair`` alone, cycling over a fixed list of classes whose
point pairs are half rational and half conjugate; and the sampler calls and
wall time of one ``_bqf_samples`` of ``PAIR_KERNEL_SAMPLES`` samples.
Usage: scripts/bench_oracle.py [seed]
"""

import itertools
import json
import os
import random
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2kummer.algebra import roots
from g2kummer.jacobian import add, random_divisor, to_point_pair, working_model
from g2kummer.kummer import kummer_coords
from g2kummer.synthesis import PAIR_KERNEL_SAMPLES, _bqf_samples, deserialize_formula_set

CURVES = ("m61_h2_f5", "c2_general_f")
REPEATS, CALLS = 7, 200
TRANSPORT_CLASSES = 20  # of each kind; CALLS cycles through all 40 five times


def median_us(fn):
    """Median over REPEATS runs of CALLS calls, in microseconds per call."""
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            fn()
        runs.append((time.perf_counter() - t0) / CALLS * 1e6)
    return round(statistics.median(runs), 1)


def transport_classes(wm, rng):
    """TRANSPORT_CLASSES classes whose a has rational roots, then as many
    whose a is irreducible (a conjugate pair)."""
    split, conjugate = [], []
    while len(conjugate) < TRANSPORT_CLASSES or len(split) < TRANSPORT_CLASSES:
        D = random_divisor(wm, rng)
        kind = split if roots(D.a) else conjugate
        if len(kind) < TRANSPORT_CLASSES:
            kind.append(D)
    return split + conjugate


def report(c, seed):
    wm = working_model(c)
    rng = random.Random(seed)
    D1, D2 = random_divisor(wm, rng), random_divisor(wm, rng)
    classes = itertools.cycle(transport_classes(wm, rng))
    sample = wm.sample
    calls = []

    def counted(r):
        calls.append(None)
        return sample(r)

    wm.sample = counted
    t0 = time.perf_counter()
    samples = _bqf_samples(wm, random.Random(seed), PAIR_KERNEL_SAMPLES)
    bqf_s = time.perf_counter() - t0
    del wm.sample
    return {
        "add_us": median_us(lambda: add(wm, D1, D2)),
        "double_us": median_us(lambda: add(wm, D1, D1)),
        "random_divisor_us": median_us(lambda: random_divisor(wm, rng)),
        "kappa_us": median_us(lambda: kummer_coords(c, to_point_pair(wm, D1))),
        "transport_us": median_us(lambda: to_point_pair(wm, next(classes))),
        "bqf_samples": len(samples),
        "bqf_sampler_calls": len(calls),
        "bqf_samples_s": round(bqf_s, 3),
    }


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20260808
    print(f"seed {seed}")
    for name in CURVES:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{name}.kfs")) as fh:
            c = deserialize_formula_set(fh.read()).curve
        print(name, json.dumps(report(c, seed), indent=2))


if __name__ == "__main__":
    main()
