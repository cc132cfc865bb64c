#!/usr/bin/env python3
"""Report ladder costs on the 61-bit prime and the GF(2^16) reference curves.

The formula sets are read from perfbench/reference/*.kfs, so nothing is
synthesized.  Prints one JSON object:

- ``counts``: per curve, the exact field operations of one ``xdbl``, one
  ``xadd`` and one ladder step (``ladder.bench``), which depend on the
  formula set alone;
- ``first_ladder_ms``: per curve, milliseconds of the first 256-bit
  ladder on a fresh context, which builds the working-model forms and
  compiles the steps it runs: the median over PROCESSES processes;
- ``ms_per_bit``: per curve, milliseconds per bit, that is per ladder step
  (255 of them), of ladders with random 256-bit scalars (top bit set)
  after the first.  Each of PROCESSES fresh processes, run one after
  another, takes the median of TRIALS ladders; ``median``, ``min`` and
  ``max`` are over those per-process medians, which are listed in
  ``processes``.  A single process's median swung by half between runs of
  the same code on a shared host;
- ``machine``: ``cpu_model``, ``nproc``, Python version; ``git_rev`` and
  ``src_loc`` (lines of src/g2kummer/*.py) of the measured sources.

Usage: scripts/bench_ladder.py [seed]
"""

import glob
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2kummer.jacobian import working_model
from g2kummer.ladder import bench, ladder, make_context
from g2kummer.synthesis import deserialize_formula_set, oracle_draws

CURVES = ("m61_h2_f5", "c2_general_f")
BITS = 256
TRIALS = 11
PROCESSES = 9


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


def ms_per_bit(ctx, rng) -> float:
    """The median of TRIALS ladders' milliseconds per bit, from one
    sampled base."""
    ((x,),) = oracle_draws(working_model(ctx.curve), rng, 1)
    times = []
    for _ in range(TRIALS):
        n = rng.getrandbits(BITS) | (1 << (BITS - 1))
        t0 = time.perf_counter()
        ladder(ctx, x, n)
        times.append((time.perf_counter() - t0) * 1000 / (BITS - 1))
    return statistics.median(times)


def one_process(seed) -> dict:
    """Per curve, in this process: the first ladder's milliseconds, the
    counts, and the median of TRIALS ladders' milliseconds per bit."""
    out = {}
    for name in CURVES:
        with open(os.path.join(ROOT, "perfbench", "reference", f"{name}.kfs")) as fh:
            fs = deserialize_formula_set(fh.read())
        ctx = make_context(fs.curve, fs)
        first = ladder_ms(ctx, random.Random(seed))
        report = bench(ctx, random.Random(seed), trials=1)
        counts = {key: report[key] for key in ("xdbl", "xadd", "per_step")}
        out[name] = (first, counts, ms_per_bit(ctx, random.Random(seed)))
    return out


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 20260808
    runs = []
    for _ in range(PROCESSES):
        # a fresh interpreter each time, and one at a time
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            runs.append(pool.submit(one_process, seed).result())
    counts, first, timings = {}, {}, {}
    for name in CURVES:
        firsts, per_run, medians = zip(*(run[name] for run in runs))
        if any(c != per_run[0] for c in per_run):
            raise AssertionError(f"{name}: the counts differ between processes")
        counts[name], first[name] = per_run[0], statistics.median(firsts)
        timings[name] = {"median": statistics.median(medians), "min": min(medians), "max": max(medians), "processes": list(medians)}
    out = {
        "seed": seed, "bits": BITS, "trials": TRIALS, "processes": PROCESSES,
        "counts": counts, "first_ladder_ms": first, "ms_per_bit": timings,
    }
    print(json.dumps({**out, "machine": machine()}, indent=2))


if __name__ == "__main__":
    main()
