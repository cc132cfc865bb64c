"""Set-up, operations and correctness checks of the two workloads.

An operation is one formula set (``synth``) or one 256-bit ladder
(``ladder``).  Each operation is
split into ``prepare`` (input generation, untimed), ``run`` (timed) and
``check`` (untimed).  Library functions are always called through their
module objects so that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import importlib
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# module objects, not names: ``g2kummer.ladder`` is shadowed by the function
# of the same name in the package namespace
C, Fm, J, K, L, S = (
    importlib.import_module(f"g2kummer.{m}")
    for m in ("corpus", "field", "jacobian", "kummer", "ladder", "synthesis")
)
from g2kummer.errors import UnsupportedDivisor  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# corpus name -> metric label
LABELS = {"m61_h2_f5": "prime61", "c2_general_f": "gf2_16", "rational_small": "rational"}

# curves of a timed (--trace 0) run: the two whose times are end-to-end
# metrics, so that every formula set of a synth run adds a sample to one
CURVES = {
    "synth": ("m61_h2_f5", "c2_general_f"),
    "ladder": ("m61_h2_f5", "c2_general_f"),
}
# a traced run adds the rational route of synthesis (modular solves, CRT and
# exact verification over Q), gated by its reference like the others
TRACED_CURVES = {**CURVES, "synth": CURVES["synth"] + ("rational_small",)}

# the statistic a timed run reports per curve: the 90th percentile on
# ladder, with about a hundred ladders per curve in a run; the mean on
# synth, where three or four formula sets per curve would make the 90th
# percentile the single slowest one
STATISTIC = {"synth": "mean", "ladder": "p90"}

LADDER_BITS = 256
LADDERS_PER_BASE = 8


@dataclass
class Env:
    """Everything set-up builds once: curves, loaded formula sets, ladder
    contexts, working models and the reference KFS1 texts."""

    curves: dict
    reference: dict
    formulas: dict
    contexts: dict
    models: dict
    bases: dict = field(default_factory=dict)  # curve -> (group key, ladder base)


def setup() -> Env:
    """Corpus construction and validation, the GF(2^16) log/exp tables,
    loading and fingerprint-checking the formula sets, and the working
    models.  Process-global table caches are cleared first so that every
    repetition pays the full cost."""
    Fm._BINARY_TABLES.clear()
    curves = dict(C.default_corpus())
    Fm.BinaryField(16, 0x1002B)._tables()
    reference, formulas, contexts, models = {}, {}, {}, {}
    for name in LABELS:
        text = (REFERENCE_DIR / f"{name}.kfs").read_text()
        fs = S.deserialize_formula_set(text)
        if fs.fingerprint != S.fingerprint(curves[name]):
            raise ValueError(f"reference formula set for {name} does not match the corpus curve")
        reference[name] = text
        formulas[name] = fs
    for name in CURVES["ladder"]:
        contexts[name] = L.make_context(curves[name], formulas[name])
        models[name] = J.working_model(curves[name])
    return Env(curves, reference, formulas, contexts, models)


def op_key(workload: str, curve: str, seed, index) -> str:
    """Seed string of one operation's input generator; string seeds hash
    identically in every process, so a seed reproduces the inputs exactly,
    and an operation rerun from its key sees the same inputs."""
    return f"{workload}/{curve}/{seed}/{index}"


def _kappa(env: Env, curve: str, D):
    return K.kummer_coords(env.curves[curve], J.to_point_pair(env.models[curve], D))


# -- synth -------------------------------------------------------------------

def synth_prepare(env, curve, seed, index):
    return op_key("synth", curve, seed, index)


def synth_run(env, curve, key):
    return S.synthesize_formula_set(env.curves[curve], random.Random(key))


def synth_check(env, curve, key, fs) -> bool:
    return S.serialize_formula_set(fs) == env.reference[curve]


# -- ladder ------------------------------------------------------------------

def _ladder_base(env, curve, key):
    """A random class D, its base point kappa(D) and the doublings 2^i D for
    i < LADDER_BITS, built once per group of ladders so that each ladder's
    oracle check costs about LADDER_BITS / 2 Cantor additions instead of a
    full ``scalar_mul``.  Classes the Kummer map does not support are
    redrawn."""
    cached = env.bases.get(curve)
    if cached is not None and cached[0] == key:
        return cached[1]
    wm = env.models[curve]
    rng = random.Random(f"ladder-base/{curve}/{key}")
    while True:
        D = J.random_divisor(wm, rng)
        try:
            x = _kappa(env, curve, D).normalized()
        except UnsupportedDivisor:
            continue
        break
    doublings = [D]
    for _ in range(LADDER_BITS - 1):
        doublings.append(J.add(wm, doublings[-1], doublings[-1]))
    env.bases[curve] = (key, (x, doublings))
    return x, doublings


def ladder_prepare(env, curve, seed, index):
    """The group's base point and a fresh scalar with its top bit set."""
    base = _ladder_base(env, curve, f"{seed}/{index // LADDERS_PER_BASE}")
    n = random.Random(op_key("ladder", curve, seed, index)).getrandbits(LADDER_BITS) | (1 << (LADDER_BITS - 1))
    return base, n


def ladder_run(env, curve, inp):
    (x, _doublings), n = inp
    return L.ladder(env.contexts[curve], x, n)


def ladder_check(env, curve, inp, out) -> bool:
    """On the surface and proportional to kappa(n D), with n D summed from
    the doublings of D by the Cantor oracle."""
    (_x, doublings), n = inp
    wm = env.models[curve]
    expect = wm.zero()
    for i, Di in enumerate(doublings):
        if (n >> i) & 1:
            expect = J.add(wm, expect, Di)
    return K.on_surface(env.contexts[curve].quartic, out) and out.proportional(_kappa(env, curve, expect))


OPS = {
    "synth": (synth_prepare, synth_run, synth_check),
    "ladder": (ladder_prepare, ladder_run, ladder_check),
}


# -- exact counts --------------------------------------------------------------

@contextmanager
def counting(counter):
    """Install ``counter`` as the process-wide ``Field.counter`` for the
    duration of a ``with`` block, restoring ``None`` afterwards."""
    Fm.Field.counter = counter
    try:
        yield counter
    finally:
        Fm.Field.counter = None


def ladder_step_counts(env: Env, curve: str, tag: str):
    """Field operations of one ladder step (one xdbl plus one xadd), exactly:
    a 256-bit ladder does one initial xdbl and 255 steps, so the step cost is
    (ladder - xdbl) / 255 and must divide evenly.  Returns the per-step counts
    and whether the ladder output passed its oracle check and every step
    cost the same."""
    inp = ladder_prepare(env, curve, f"count-{tag}", 0)
    (x, _doublings), n = inp
    ctx = env.contexts[curve]
    ctr = Fm.OpCounter()
    with counting(ctr):
        L.xdbl(ctx, x)
        first = ctr.snapshot()
        ctr.reset()
        out = L.ladder(ctx, x, n)
        total = ctr.snapshot()
    steps = n.bit_length() - 1
    per_step, uneven = {}, []
    for key in ("mul", "sqr", "inv"):
        per_step[key], r = divmod(total[key] - first[key], steps)
        if r:
            uneven.append(key)
    if uneven:
        print(f"{curve}: {', '.join(uneven)} count is not the same on every ladder step", file=sys.stderr)
        return None, False
    return per_step, ladder_check(env, curve, inp, out)
