#!/usr/bin/env python3
"""Report ladder costs on the 61-bit prime and the GF(2^16) reference curves.

The formula sets are read from perfbench/reference/*.kfs, so nothing is
synthesized.  Prints one JSON object:

- ``counts``: per curve, the exact field operations of one ``xdbl``, one
  ``xadd`` and one ladder step (``ladder.bench``), which depend on the
  formula set alone;
- ``first_ladder_ms``: per curve, milliseconds of the first 256-bit
  ladder on a fresh context, which compiles the steps it runs;
- ``ms_per_bit``: per curve, the median, min and max over TRIALS ladders
  with random 256-bit scalars (top bit set) of milliseconds per bit, that
  is per ladder step (255 of them), after the first;
- ``machine``: ``cpu_model``, ``nproc``, Python version; ``git_rev`` and
  ``src_loc`` (lines of src/g2kummer/*.py) of the measured sources.

Usage: scripts/bench_ladder.py [seed]
"""

import glob
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2kummer.jacobian import working_model
from g2kummer.ladder import bench, ladder, make_context
from g2kummer.synthesis import deserialize_formula_set, oracle_draws

CURVES = ("m61_h2_f5", "c2_general_f")
BITS = 256
TRIALS = 11


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    # the measured sources: HEAD, marked when src/ differs from it
    rev = git("rev-parse", "--short=12", "HEAD") or None
    if rev and git("status", "--porcelain", "--", "src"):
        rev += "+uncommitted-src"
    loc = 0
    for path in glob.glob(os.path.join(ROOT, "src", "g2kummer", "*.py")):
        with open(path, "rb") as fh:
            loc += fh.read().count(b"\n")
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": rev,
        "src_loc": loc,
    }


def ladder_ms(ctx, rng) -> float:
    """Milliseconds of one ladder with a random BITS-bit scalar (top bit
    set) from a sampled base."""
    ((x,),) = oracle_draws(working_model(ctx.curve), rng, 1)
    n = rng.getrandbits(BITS) | (1 << (BITS - 1))
    t0 = time.perf_counter()
    ladder(ctx, x, n)
    return (time.perf_counter() - t0) * 1000


def ms_per_bit(ctx, rng) -> dict:
    ((x,),) = oracle_draws(working_model(ctx.curve), rng, 1)
    times = []
    for _ in range(TRIALS):
        n = rng.getrandbits(BITS) | (1 << (BITS - 1))
        t0 = time.perf_counter()
        ladder(ctx, x, n)
        times.append((time.perf_counter() - t0) * 1000 / (BITS - 1))
    return {"median": statistics.median(times), "min": min(times), "max": max(times)}


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20260808
    counts, first, timings = {}, {}, {}
    for name in CURVES:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{name}.kfs")) as fh:
            fs = deserialize_formula_set(fh.read())
        ctx = make_context(fs.curve, fs)
        first[name] = ladder_ms(ctx, random.Random(seed))
        report = bench(ctx, random.Random(seed), trials=1)
        counts[name] = {key: report[key] for key in ("xdbl", "xadd", "per_step")}
        timings[name] = ms_per_bit(ctx, random.Random(seed))
    out = {"seed": seed, "bits": BITS, "trials": TRIALS, "counts": counts, "first_ladder_ms": first, "ms_per_bit": timings}
    print(json.dumps({**out, "machine": machine()}, indent=2))


if __name__ == "__main__":
    main()
