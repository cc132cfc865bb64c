"""Executable checks: exhaustive small-field lemma searches and the
randomized identity suites over a curve corpus.

The lemma searches enumerate every quadruple (or pair of quadruples) on the
Kummer surface of a characteristic-2 normal-form curve over a tiny field and
assert that the synthesized duplication quartics have no common zero on the
surface away from 0, and that the biquadratic forms have no common zero with
both arguments nonzero.  The searched forms are the artifact's own
synthesized ones (descended from an extension); a counterexample therefore
indicts either the synthesis or the claim itself, and the report records
which identity re-check failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield

from .algebra import CompiledForms, quadratic_monomials, quadratic_value
from .curve import CurveModel, normal_form_curve, simplified_model, validate
from .errors import NoRationalWeierstrassPoint, UnsupportedField
from .field import BinaryField
from .jacobian import add, from_point_pair, working_model
from .kummer import (
    KummerPoint,
    on_surface,
    quartic_from_curve,
    squares_to_scalar,
    two_torsion_classes,
    zero_class_point,
)
from .ladder import ladder, make_context, xadd
from .synthesis import (
    BQF_INDEX_PAIRS,
    _fresh_check_bqf,
    _fresh_check_delta,
    crosscheck_b_conversion,
    crosscheck_tau_delta,
    oracle_draws,
    synthesize_delta,
    synthesize_bqf,
    synthesize_formula_set,
)


@dataclass
class LemmaReport:
    lemma: str
    case: str
    field: str
    coeffs: tuple
    search_space: int
    counterexamples: list = dfield(default_factory=list)
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _surface_points(c: CurveModel):
    """All nonzero quadruples over a tiny field lying on the quartic."""
    F = c.field
    q = F.order()
    surface = quartic_from_curve(c).compiled
    pts = []
    for a in range(q):
        for b in range(q):
            for d in range(q):
                for e in range(q):
                    if a == b == d == e == 0:
                        continue
                    pt = (a, b, d, e)
                    if surface.quartic_values(quadratic_monomials(F, pt)) == [F.zero]:
                        pts.append(pt)
    return pts


def lemma_delta_search(case: str, coeffs, F: BinaryField, rng) -> LemmaReport:
    """Exhaustive duplication-lemma search over a field of order <= 64.

    coeffs = (f1, f3, f5) of the normal-form curve; the case's
    nonsingularity condition is a precondition (SingularCurve otherwise)."""
    q = F.order()
    if F.characteristic() != 2 or q > 64:
        raise ValueError("the search runs over characteristic-2 fields of order <= 64")
    f1, f3, f5 = coeffs
    c = normal_form_curve(F, case, f1, f3, f5)  # raises SingularCurve when degenerate
    t0 = time.time()
    delta = CompiledForms(F, synthesize_formula_set(c, rng).delta)
    counter = [
        {"x": pt}
        for pt in _surface_points(c)
        if all(v == F.zero for v in delta.quartic_values(quadratic_monomials(F, pt)))
    ]
    return LemmaReport(
        lemma="delta",
        case=case,
        field=F.spec_string(),
        coeffs=tuple(F.to_str(v) for v in coeffs),
        search_space=q**4,
        counterexamples=counter,
        runtime=time.time() - t0,
    )


def lemma_b_search(case: str, coeffs, F: BinaryField, rng) -> LemmaReport:
    """Exhaustive biquadratic-lemma search over a field of order <= 8."""
    q = F.order()
    if F.characteristic() != 2 or q > 8:
        raise ValueError("the pair search runs over fields of order <= 8")
    f1, f3, f5 = coeffs
    c = normal_form_curve(F, case, f1, f3, f5)
    t0 = time.time()
    forms = CompiledForms(F, biquadratics=synthesize_formula_set(c, rng).bqf)
    pts = _surface_points(c)
    qys = [quadratic_monomials(F, y) for y in pts]
    counter = []
    for x in pts:
        rows = forms.biquadratic_rows(BQF_INDEX_PAIRS, quadratic_monomials(F, x))
        for y, qy in zip(pts, qys):
            # stops at the first form that does not vanish at (x, y)
            if all(quadratic_value(F, row, qy) == F.zero for row in rows):
                counter.append({"x": x, "y": y})
    return LemmaReport(
        lemma="biquadratic",
        case=case,
        field=F.spec_string(),
        coeffs=tuple(F.to_str(v) for v in coeffs),
        search_space=len(pts) ** 2,
        counterexamples=counter,
        runtime=time.time() - t0,
    )


# ---------------------------------------------------------------------------
# Randomized identity suites over a corpus
# ---------------------------------------------------------------------------

def _suite_kappa_surface(wm, rng, n):
    q = quartic_from_curve(wm.user)
    for (k,) in oracle_draws(wm, rng, n):
        if not on_surface(q, k):
            return {"ok": False, "witness": k.text()}
    return {"ok": True, "n": n}


def _suite_delta(wm, rng, fs, n):
    _fresh_check_delta(wm, rng, fs.delta, n)
    return {"ok": True, "n": n}


def _suite_bqf(wm, rng, fs, n):
    _fresh_check_bqf(wm, rng, fs.bqf, n)
    return {"ok": True, "n": n}


def _suite_translation(wm, rng, fs, n):
    c = wm.user
    F = c.field
    if F.order() is None:
        return {"ok": True, "n": 0, "note": "no two-torsion enumeration over the rationals"}
    classes = two_torsion_classes(c)
    if not classes:
        return {"ok": True, "n": 0, "note": "no rational two-torsion"}
    q = quartic_from_curve(c)
    ws = dict(fs.w)
    checked = 0
    for T in classes:
        W = ws.get(T.label)
        if W is None:
            return {"ok": False, "witness": f"no translation matrix for class {T.label}"}
        if not squares_to_scalar(W):
            return {"ok": False, "witness": f"W^2 not scalar for class {T.label}"}
        DQ = from_point_pair(wm, T.divisor)
        if not add(wm, DQ, DQ).is_zero():
            return {"ok": False, "witness": f"class {T.label} is not 2-torsion"}
        for kP, kPQ in oracle_draws(wm, rng, n, lambda D: (D, add(wm, D, DQ))):
            Wk = KummerPoint(F, W.apply(list(kP.coords)))
            if not Wk.proportional(kPQ) or not on_surface(q, Wk):
                return {"ok": False, "witness": f"translation failed for {T.label} at {kP.text()}"}
        checked += 1
    return {"ok": True, "n": checked, "classes": [T.label for T in classes]}


def _suite_crosschecks(wm, rng, fs, n):
    if wm.field.characteristic() == 2:
        return {"ok": True, "note": "conversion checks need odd characteristic"}
    csimp, _iso = simplified_model(wm.user)
    wm_simp = working_model(csimp)
    bqf_prime = synthesize_bqf(wm_simp, rng)
    delta_prime = synthesize_delta(wm_simp, rng, bqf_prime)
    rep1 = crosscheck_tau_delta(wm, rng, n, fs.delta, delta_prime)
    rep2 = crosscheck_b_conversion(wm, rng, n, fs.bqf, bqf_prime)
    return {"ok": rep1["ok"] and rep2["ok"], "tau_delta": rep1, "b_conversion": rep2}


# Over Q the ladder never rescales, and kappa(nP) on rational_small has about
# 4.8 n^2 digits (4,581 at n = 31), so 16-bit scalars are out of reach there:
# the rational chain draws m, k with m + k at most this bound instead.
RATIONAL_CHAIN_MAX_SUM = 31


def _suite_chain(wm, rng, fs, n):
    F = wm.field
    ctx = make_context(wm.user, fs)
    ((x,),) = oracle_draws(wm, rng, 1)
    rational = F.order() is None
    for _ in range(n):
        if rational:
            m = rng.randrange(1, RATIONAL_CHAIN_MAX_SUM)
            k = rng.randrange(1, RATIONAL_CHAIN_MAX_SUM - m + 1)
        else:
            m = rng.randrange(1, 1 << 16)
            k = rng.randrange(1, 1 << 16)
        km = ladder(ctx, x, m)
        kn = ladder(ctx, x, k)
        kd = ladder(ctx, x, abs(m - k)) if m != k else zero_class_point(F)
        ksum = ladder(ctx, x, m + k)
        if not xadd(ctx, km, kn, kd).proportional(ksum):
            return {"ok": False, "witness": f"m={m}, n={k}"}
    if rational:
        return {"ok": True, "n": n, "max_m_plus_k": RATIONAL_CHAIN_MAX_SUM}
    return {"ok": True, "n": n}


DEFAULT_SUITE_SIZES = {
    "kappa_surface": 300,
    "delta": 120,
    "bqf": 80,
    "translation": 60,
    "crosschecks": 60,
    "chain": 40,
}


def proposition_suites(corpus, rng, sizes=None) -> dict:
    """Run the full identity suites over a corpus of (name, CurveModel).

    Returns a machine-readable report; deterministic given the rng seed.
    Invalid curves, and valid ones the oracle or synthesis cannot serve (no
    rational Weierstrass point, or a prime field below 257), are reported as
    skipped."""
    sizes = dict(DEFAULT_SUITE_SIZES, **(sizes or {}))
    report = {"curves": [], "ok": True}
    for name, c in corpus:
        entry = {"name": name, "field": c.field.spec_string()}
        v = validate(c)
        reason = None if v.ok else v.reason
        if v.ok:
            try:
                fs = synthesize_formula_set(c, rng)
                wm = working_model(c)
            except (NoRationalWeierstrassPoint, UnsupportedField) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            entry["status"] = "skipped"
            entry["reason"] = reason
            report["curves"].append(entry)
            continue

        def guarded(fn, *args):
            from .errors import G2KummerError

            try:
                return fn(*args)
            except G2KummerError as exc:
                return {"ok": False, "witness": f"{type(exc).__name__}: {exc}"}

        suites = {}
        suites["kappa_surface"] = guarded(_suite_kappa_surface, wm, rng, sizes["kappa_surface"])
        suites["delta"] = guarded(_suite_delta, wm, rng, fs, sizes["delta"])
        suites["bqf"] = guarded(_suite_bqf, wm, rng, fs, sizes["bqf"])
        suites["translation"] = guarded(_suite_translation, wm, rng, fs, sizes["translation"])
        suites["crosschecks"] = guarded(_suite_crosschecks, wm, rng, fs, sizes["crosschecks"])
        suites["chain"] = guarded(_suite_chain, wm, rng, fs, sizes["chain"])
        entry["status"] = "pass" if all(s.get("ok") for s in suites.values()) else "fail"
        entry["suites"] = suites
        if entry["status"] == "fail":
            report["ok"] = False
        report["curves"].append(entry)
    return report


def report_lines(report: dict) -> list[str]:
    lines = []
    for entry in report["curves"]:
        if entry["status"] == "skipped":
            lines.append(f"SKIP curve={entry['name']} reason={entry['reason']}")
            continue
        for sname, res in entry["suites"].items():
            status = "PASS" if res.get("ok") else "FAIL"
            extra = f" witness={res['witness']}" if "witness" in res else ""
            lines.append(f"{status} curve={entry['name']} suite={sname}{extra}")
    lines.append("PASS" if report["ok"] else "FAIL")
    return lines
