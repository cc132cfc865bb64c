"""What the traced run wraps, and the per-layer metrics derived from it.

Layers are the library's modules.  ``field`` is not wrapped (its operations
are far too fine-grained); it is measured by the exact counting pass
instead.  ``verify`` and ``cli`` compose the layers below and get no
workload of their own.
"""

from __future__ import annotations

from tracer import op_of, self_times

def _rref_info(args, result):
    rows = args[1]
    return [len(rows), len(rows[0]) if rows else 0, result[0]]


def _kernel_info(args, result):
    return [args[0].nrows, args[0].ncols, len(result)]


def _length(args, result):
    return len(result)


def targets(tracer):
    """``(module, attribute, factory)`` triples for ``tracer.patched``."""

    def span(name, info=None):
        return lambda fn: tracer.wrap(fn, name, info)

    def sampler_factory(fn):
        # the rational sampler is a closure returned by the factory, so the
        # closure itself is wrapped as it is handed out
        return tracer.wrap(
            lambda *a, **k: tracer.wrap(fn(*a, **k), "jacobian.rational_sample"),
            "jacobian.small_rational_sampler",
        )

    return [
        ("algebra", "solve_kernel", span("algebra.solve_kernel", _kernel_info)),
        ("algebra", "_rref", span("algebra.rref", _rref_info)),
        ("algebra", "roots", span("algebra.roots")),
        ("curve", "transform_pair", span("curve.transform_pair")),
        ("jacobian", "add", span("jacobian.add")),
        ("jacobian", "negate", span("jacobian.negate")),
        ("jacobian", "to_point_pair", span("jacobian.to_point_pair")),
        ("jacobian", "random_divisor", span("jacobian.random_divisor")),
        ("jacobian", "working_model", span("jacobian.working_model")),
        ("jacobian", "small_rational_sampler", sampler_factory),
        ("kummer", "kummer_coords", span("kummer.kummer_coords")),
        ("kummer", "two_torsion_classes", span("kummer.two_torsion_classes")),
        ("synthesis", "synthesize_formula_set", span("synthesis.formula_set")),
        ("synthesis", "synthesize_delta", span("synthesis.delta")),
        ("synthesis", "synthesize_bqf", span("synthesis.bqf")),
        ("synthesis", "_delta_samples", span("synthesis.delta_samples", _length)),
        ("synthesis", "_bqf_samples", span("synthesis.bqf_samples", _length)),
        ("synthesis", "_delta_solve", span("synthesis.delta_solve")),
        ("synthesis", "_bqf_solve", span("synthesis.bqf_solve")),
        ("synthesis", "synthesize_w_oddchar", span("synthesis.w_oddchar")),
        ("ladder", "xdbl", span("ladder.xdbl")),
        ("ladder", "xadd", span("ladder.xadd")),
    ]


# metric name -> unit, in output order; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "field.mul": "count",
    "field.sqr": "count",
    "field.inv": "count",
    "ladder.mul_per_bit.prime61": "count",
    "ladder.mul_per_bit.gf2_16": "count",
    "ladder.inv_per_bit.prime61": "count",
    "ladder.inv_per_bit.gf2_16": "count",
    "algebra.solve_kernel.calls": "count",
    "algebra.solve_kernel.self_s": "s",
    "algebra.rref.calls": "count",
    "algebra.rref.self_s": "s",
    "algebra.rref.cell_updates": "cells",
    "algebra.rref.shapes": "count",
    "algebra.roots.self_s": "s",
    "curve.transform_pair.calls": "count",
    "curve.transform_pair.self_s": "s",
    "jacobian.add.calls": "count",
    "jacobian.add.self_s": "s",
    "jacobian.to_point_pair.self_s": "s",
    "jacobian.random_divisor.calls": "count",
    "jacobian.working_model.calls": "count",
    "jacobian.working_model.self_s": "s",
    "kummer.kummer_coords.calls": "count",
    "kummer.kummer_coords.self_s": "s",
    "kummer.two_torsion_classes.self_s": "s",
    "synthesis.delta.s": "s",
    "synthesis.bqf.s": "s",
    "synthesis.w.s": "s",
    "synthesis.sample_yield": "ratio",
    "synthesis.kernel_retries": "count",
    "ladder.xdbl.calls": "count",
    "ladder.xdbl.self_s": "s",
    "ladder.xadd.calls": "count",
    "ladder.xadd.self_s": "s",
    "trace.overhead_s": "s",
}

# the translation solve has three matrix rows per sample (four coordinates
# less the pivot); its samples are counted from the kernel matrix shape
_W_ROWS_PER_SAMPLE = 3


def span_metrics(spans):
    """Per-layer values derived from one traced pass's spans, and the two
    terms of the sample yield as detail."""
    selfs = self_times(spans)
    calls, own = {}, {}
    for s, t in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        own[s[0]] = own.get(s[0], 0.0) + t
    out = {}
    for name in (
        "algebra.solve_kernel", "algebra.rref", "curve.transform_pair", "jacobian.add",
        "jacobian.random_divisor", "jacobian.working_model", "kummer.kummer_coords",
        "ladder.xdbl", "ladder.xadd",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "algebra.solve_kernel", "algebra.rref", "algebra.roots", "curve.transform_pair",
        "jacobian.add", "jacobian.to_point_pair", "jacobian.working_model",
        "kummer.kummer_coords", "kummer.two_torsion_classes", "ladder.xdbl", "ladder.xadd",
    ):
        out[f"{name}.self_s"] = own.get(name, 0.0)

    # info is None on a span whose call raised
    rref = [s[5] for s in spans if s[0] == "algebra.rref" and s[5] is not None]
    out["algebra.rref.cell_updates"] = sum(rank * r * c for r, c, rank in rref)
    out["algebra.rref.shapes"] = len({(r, c) for r, c, _rank in rref})

    # inclusive stage times; the W stage is the formula set minus delta and B
    incl = {}
    for s in spans:
        incl[s[0]] = incl.get(s[0], 0.0) + (s[3] - s[2])
    out["synthesis.delta.s"] = incl.get("synthesis.delta", 0.0)
    out["synthesis.bqf.s"] = incl.get("synthesis.bqf", 0.0)
    out["synthesis.w.s"] = max(
        0.0, incl.get("synthesis.formula_set", 0.0) - out["synthesis.delta.s"] - out["synthesis.bqf.s"]
    )

    in_systems = sum(
        s[5] for s in spans
        if s[0] in ("synthesis.delta_samples", "synthesis.bqf_samples") and s[5] is not None
    )
    retries = sum(
        1 for s in spans
        if s[0] in ("synthesis.delta_solve", "synthesis.bqf_solve") and s[4] == "KernelDimensionUnexpected"
    )
    for s in spans:
        if (
            s[0] == "algebra.solve_kernel" and s[5] is not None
            and s[1] >= 0 and spans[s[1]][0] == "synthesis.w_oddchar"
        ):
            in_systems += s[5][0] // _W_ROWS_PER_SAMPLE
            retries += s[5][2] != 1
    ops = op_of(spans)
    drawn = sum(
        1 for i, s in enumerate(spans)
        if s[0] in ("jacobian.random_divisor", "jacobian.rational_sample")
        and spans[ops[i]][0].startswith("synth/")
    )
    out["synthesis.sample_yield"] = in_systems / drawn if drawn else 0.0
    out["synthesis.kernel_retries"] = retries
    return out, {"samples_in_systems": in_systems, "classes_drawn": drawn}


def per_op_summary(spans) -> dict:
    """Per operation label: layer self times and the rref shapes, for the
    isolation claims (which layer dominates which curve)."""
    selfs = self_times(spans)
    ops = op_of(spans)
    out = {}
    for i, s in enumerate(spans):
        op_name = spans[ops[i]][0]
        entry = out.setdefault(op_name, {"layer_self_s": {}, "rref_self_s": 0.0, "rref_shapes": set()})
        key = "unwrapped" if s[1] < 0 else s[0].split(".", 1)[0]
        entry["layer_self_s"][key] = entry["layer_self_s"].get(key, 0.0) + selfs[i]
        if s[0] == "algebra.rref":
            entry["rref_self_s"] += selfs[i]
            entry["rref_shapes"].add(tuple(s[5]))
    for entry in out.values():
        entry["rref_shapes"] = sorted(entry["rref_shapes"])
        others = {k: v for k, v in entry["layer_self_s"].items() if k != "algebra"}
        entry["rref_is_largest_layer_self"] = entry["rref_self_s"] > max(others.values(), default=0.0)
    return out
