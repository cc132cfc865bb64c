#!/usr/bin/env python3
"""g2kummer benchmark: one process, no threads, two workloads.

    python3 perfbench/run.py --workload {synth,ladder} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures operations for S seconds of timed work (at least one
operation per curve) and prints the end-to-end metrics.  ``--trace 1`` runs
a fixed number of operations, each in turn untraced, traced and under the
exact field-operation counter, and prints the per-layer metrics; its spans
are written to ``.perfbench/``.  The last line of standard output is
the JSON result; the line before it holds provenance and details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
# operations per curve in a traced run
TRACE_OPS = {"synth": 1, "ladder": 5}


def percentile(values, q):
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_pass(wl, env, workload, curves, seed, scopes, *, seconds=None, per_curve=None, after_cycle=None):
    """Operations cycling over the workload's curves, each timed alone.

    Every operation runs once inside each of ``scopes`` (context-manager
    factories taking the operation's name) on the same input, so a traced
    run can compare modes op by op.  With ``seconds`` the pass runs whole
    cycles until the first scope's timed total reaches ``seconds``; with
    ``per_curve`` it runs exactly that many cycles.  A failed operation is
    timed too, and the pass stops after a cycle in which every operation
    failed.  ``after_cycle(timed_total)`` runs, untimed, after each cycle.
    Returns per-scope, per-curve times and the op counts."""
    prepare, run, check = wl.OPS[workload]
    times = [{c: [] for c in curves} for _ in scopes]
    attempted = failed = 0
    cycle = 0
    while True:
        if per_curve is not None and cycle >= per_curve:
            break
        timed_total = sum(sum(ts) for ts in times[0].values())
        if seconds is not None and timed_total >= seconds:
            break
        failed_before = failed
        for curve in curves:
            try:
                inp = prepare(env, curve, seed, cycle)
            except Exception:
                traceback.print_exc()
                inp = None
            for scope, mode_times in zip(scopes, times):
                attempted += 1
                ok = False
                try:
                    if inp is None:
                        raise RuntimeError("input preparation failed")
                    with scope(f"{workload}/{wl.LABELS[curve]}"):
                        t0 = time.perf_counter()
                        try:
                            out = run(env, curve, inp)
                        finally:
                            mode_times[curve].append(time.perf_counter() - t0)
                    ok = check(env, curve, inp, out)
                except Exception:
                    traceback.print_exc()
                if not ok:
                    failed += 1
                    print(f"FAILED: {workload} on {curve}, seed {seed}, cycle {cycle}", file=sys.stderr)
        cycle += 1
        if failed - failed_before == len(curves) * len(scopes):
            break
        if after_cycle is not None:
            after_cycle(sum(sum(ts) for ts in times[0].values()))
    return times, attempted, failed


def end_to_end(wl, env, workload, seed, seconds, after_cycle):
    (times,), attempted, failed = run_pass(
        wl, env, workload, wl.CURVES[workload], seed, [nullcontext], seconds=seconds, after_cycle=after_cycle
    )
    metrics, detail = {}, {}
    stat = wl.STATISTIC[workload]
    for curve, ts in times.items():
        if not ts:
            continue  # its input preparation failed, which ``failed`` reports
        label = wl.LABELS[curve]
        ms = [t * 1000 for t in ts]
        summary = {"p50": percentile(ms, 50), "p90": percentile(ms, 90), "mean": statistics.fmean(ms)}
        detail[label] = {"samples": len(ms), "statistic": stat, **{f"{k}_ms": v for k, v in summary.items()}}
        # only the workload's statistic is an end-to-end metric: on a shared
        # host the median (and on ladder the mean) mixes two machine-speed
        # regimes in proportions that change from run to run
        metrics[f"{label}.op_ms"] = (summary[stat], "ms")
    all_times = [t for ts in times.values() for t in ts]
    detail["ops_per_s"] = len(all_times) / sum(all_times) if all_times else None
    return metrics, detail, attempted, failed


def traced(wl, env, workload, seed):
    """Each operation untraced, traced and under the field-op counter, in
    turn on the same input, so drift in machine speed between the untraced
    and traced times stays small."""
    import layers
    from tracer import Tracer, patched

    n = TRACE_OPS[workload]
    tracer = Tracer()
    counter = wl.Fm.OpCounter()
    targets = layers.targets(tracer)

    @contextmanager
    def traced_scope(name):
        with patched(targets), tracer.op(name):
            yield

    scopes = [nullcontext, traced_scope, lambda name: wl.counting(counter)]
    times, attempted, failed = run_pass(wl, env, workload, wl.TRACED_CURVES[workload], seed, scopes, per_curve=n)
    untraced_s, traced_s = (sum(sum(ts) for ts in mode.values()) for mode in times[:2])

    metrics = {
        "field.mul": counter.mul,
        "field.sqr": counter.sqr,
        "field.inv": counter.inv,
    }
    per_bit = {}
    for curve in wl.CURVES["ladder"]:
        label = wl.LABELS[curve]
        steps = []
        for tag in (seed, seed + 1):
            attempted += 1
            try:
                counts, ok = wl.ladder_step_counts(env, curve, str(tag))
            except Exception:
                traceback.print_exc()
                counts, ok = None, False
            failed += not ok
            steps.append(counts)
        per_bit[label] = steps
        # None when the counting ladder raised or its step counts varied
        metrics[f"ladder.mul_per_bit.{label}"] = steps[0] and steps[0]["mul"]
        metrics[f"ladder.inv_per_bit.{label}"] = steps[0] and steps[0]["inv"]
    bit_pattern_independent = all(s[0] is not None and s[0] == s[1] for s in per_bit.values())
    no_inversions = all(s[0] is not None and s[0]["inv"] == 0 for s in per_bit.values())

    layer_metrics, yield_terms = layers.span_metrics(tracer.spans)
    metrics.update(layer_metrics)
    metrics["trace.overhead_s"] = traced_s - untraced_s

    summary = layers.per_op_summary(tracer.spans)
    # the isolation the workloads are built on: no linear algebra in the
    # timed ladder, no ladder steps in synthesis, and row reduction as the
    # largest layer of a prime-field formula set
    isolation = {}
    if workload == "ladder":
        isolation["no_rref"] = metrics["algebra.rref.calls"] == 0
    if workload == "synth":
        isolation["no_ladder_steps"] = metrics["ladder.xdbl.calls"] == metrics["ladder.xadd.calls"] == 0
        prime61 = summary.get("synth/prime61", {})
        isolation["rref_largest_in_prime61"] = prime61.get("rref_is_largest_layer_self", False)
    detail = {
        "ops_per_curve": n,
        "modes_per_op": ["untraced", "traced", "counting"],
        "tracing": {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "overhead_frac": (traced_s - untraced_s) / untraced_s,
        },
        "synthesis_sample_yield_terms": yield_terms,
        "ladder_step_counts_two_seeds": per_bit,
        "ladder_bit_pattern_independent": bit_pattern_independent,
        "ladder_zero_inversions": no_inversions,
        "isolation": isolation,
        "per_op": summary,
        "notes": [
            "field.add is not reported: OpCounter.add is never incremented by any Field operation",
            "algebra._rref_prime and _rref_binary bypass Field operations, so linear algebra shows in "
            "algebra.rref.cell_updates (computed as sum of rank*rows*cols), not in field.*",
            "field.* counts the counting mode only; ladder.*_per_bit comes from separate 256-bit "
            "ladders on two seeds",
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "error", "info"], "spans": tracer.spans}, fh)
    units = layers.PER_LAYER_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise AssertionError(f"per-layer metrics not produced: {sorted(missing)}")
    out = {name: (metrics[name], units[name]) for name in units}
    correct = bit_pattern_independent and no_inversions and all(isolation.values())
    return out, detail, attempted, failed, correct


def provenance(seed):
    srcs = sorted((SRC / "g2kummer").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for p in srcs:
        data = p.read_bytes()
        digest.update(p.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "src_loc": loc,
    }


def _git_rev():
    """HEAD of the repository holding the benchmark, read from .git without
    running git; None in a plain checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("synth", "ladder"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "g2kummer" / "__init__.py").is_file():
        print(f"g2kummer sources not found under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    import_s = time.perf_counter() - t0
    setup_runs = []

    def set_up():
        t0 = time.perf_counter()
        env = wl.setup()
        setup_runs.append(time.perf_counter() - t0)
        return env

    env = set_up()
    if args.trace:
        metrics, detail, attempted, failed, correct = traced(wl, env, args.workload, args.seed)
    else:
        def repeat_setup(timed_total):
            # the repetitions are spread over the run, so that their median
            # follows the machine's speed over the run, not at one moment;
            # each builds a fresh environment, which is discarded
            due = len(setup_runs) * args.seconds / SETUP_REPEATS
            if len(setup_runs) < SETUP_REPEATS and timed_total >= due:
                set_up()

        metrics, detail, attempted, failed = end_to_end(
            wl, env, args.workload, args.seed, args.seconds, repeat_setup
        )
        while len(setup_runs) < SETUP_REPEATS:
            set_up()
        metrics["setup_s"] = (import_s + statistics.median(setup_runs), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        correct = True
    detail.update(
        workload=args.workload,
        trace=args.trace,
        provenance=provenance(args.seed),
        setup={"import_s": import_s, "repeats_s": setup_runs},
        failed_frac=failed / attempted,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
