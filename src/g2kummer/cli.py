"""Batch command-line front end.

Subcommands: validate, synth, eval kappa, dbl, translate, ladder,
twotorsion, lemma, verify, bench.  Every run prints its effective seed so
that formula files and reports are reproducible from their own logs.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import errors
from .curve import CurveModel, curve_from_text, nonsingular, validate
from .field import field_from_spec
from .kummer import (
    KummerPoint,
    kummer_coords,
    kummer_point_from_text,
    on_surface,
    quartic_from_curve,
    two_torsion_classes,
)
from .ladder import bench as run_bench
from .ladder import ladder as run_ladder
from .ladder import make_context, xdbl
from .synthesis import (
    _delta_solve,
    deserialize_formula_set,
    fingerprint,
    serialize_formula_set,
    synthesize_formula_set,
    translation_matrices,
)
from .verify import (
    lemma_b_search,
    lemma_delta_search,
    proposition_suites,
    report_lines,
)

DEFAULT_SEED = 20260808


def _load_curve(path: str) -> CurveModel:
    """The curve of a file, which every command but ``validate`` requires to
    be nonsingular (SingularCurve, exit 1)."""
    with open(path) as fh:
        return nonsingular(curve_from_text(fh.read()))


def _load_formulas(path: str, curve: CurveModel):
    """The formula set of a file, which must match the curve
    (FormulaSetMissing) and whose delta and W lines must be those its B
    lines give (CrossCheckFailed); both exit 1."""
    with open(path) as fh:
        fs = deserialize_formula_set(fh.read())
    if fs.fingerprint != fingerprint(curve):
        raise errors.FormulaSetMissing(
            "formula file does not match the curve (stale cache rejected)"
        )
    if fs.delta != _delta_solve(curve.field, fs.bqf, quartic_from_curve(curve).vector):
        raise errors.CrossCheckFailed("formula file: the delta lines are not the duplication its B lines give")
    if dict(fs.w) != dict(translation_matrices(curve, fs.bqf)):
        raise errors.CrossCheckFailed("formula file: the W lines are not the translations its B lines give")
    return fs


def _load_surface_point(c: CurveModel, text: str) -> KummerPoint:
    """Parse k1:k2:k3:k4; a point off the curve's Kummer surface is a usage
    error (exit 2), since the formulas would map it to garbage."""
    k = kummer_point_from_text(c.field, text)
    if not on_surface(quartic_from_curve(c), k):
        raise ValueError(f"point {text} is not on the Kummer surface of the curve")
    return k


def _print_seed(seed: int):
    print(f"seed {seed}")


def cmd_validate(args) -> int:
    with open(args.curve) as fh:
        v = validate(curve_from_text(fh.read()))
    if v.ok:
        print("valid")
        return 0
    print(f"invalid: {v.reason}")
    return 1


def cmd_synth(args) -> int:
    c = _load_curve(args.curve)
    _print_seed(args.seed)
    rng = random.Random(args.seed)
    fs = synthesize_formula_set(c, rng)
    text = serialize_formula_set(fs)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text)} bytes, fingerprint {fs.fingerprint})")
    return 0


def cmd_eval(args) -> int:
    c = _load_curve(args.curve)
    F = c.field
    from .curve import CurvePoint, pair_from_points

    pts = []
    for tok in args.points.split(";"):
        xs, ys = tok.split(",")
        pts.append(CurvePoint("affine", x=F.parse(xs), y=F.parse(ys)))
    if len(pts) != 2:
        raise ValueError(f"--points takes two affine points, got {len(pts)}")
    for P in pts:
        if not c.on_curve(P):
            raise ValueError(f"point ({F.to_str(P.x)},{F.to_str(P.y)}) is not on the curve")
    pair = pair_from_points(c, pts[0], pts[1])
    k = kummer_coords(c, pair).normalized()
    print(k.text())
    return 0


def cmd_dbl(args) -> int:
    c = _load_curve(args.curve)
    fs = _load_formulas(args.formulas, c)
    ctx = make_context(c, fs)
    k = _load_surface_point(c, args.point)
    print(xdbl(ctx, k).normalized().text())
    return 0


def cmd_translate(args) -> int:
    c = _load_curve(args.curve)
    k = _load_surface_point(c, args.point)
    if args.formulas is None:
        raise ValueError("translate reads its matrix from --formulas")
    ws = dict(_load_formulas(args.formulas, c).w)
    if args.cls not in ws:
        raise ValueError(f"no two-torsion class labelled {args.cls!r}; available: " + ", ".join(ws))
    print(KummerPoint(c.field, ws[args.cls].apply(list(k.coords))).normalized().text())
    return 0


def cmd_ladder(args) -> int:
    c = _load_curve(args.curve)
    fs = _load_formulas(args.formulas, c)
    ctx = make_context(c, fs)
    k = _load_surface_point(c, args.point)
    print(run_ladder(ctx, k, args.n).normalized().text())
    return 0


def cmd_twotorsion(args) -> int:
    c = _load_curve(args.curve)
    classes = two_torsion_classes(c)
    print(f"rational two-torsion classes: {len(classes)} (plus the zero class)")
    for T in classes:
        print(f"  {T.label} [{T.case_tag}] kummer={T.kummer.normalized().text()}")
    return 0


def cmd_lemma(args) -> int:
    F = field_from_spec(args.field)
    coeffs = tuple(F.parse(t) for t in args.coeffs.split(","))
    if len(coeffs) != 3:
        raise ValueError("--coeffs takes f1,f3,f5")
    _print_seed(args.seed)
    rng = random.Random(args.seed)
    if args.which == "delta":
        rep = lemma_delta_search(args.case, coeffs, F, rng)
    else:
        rep = lemma_b_search(args.case, coeffs, F, rng)
    print(
        f"lemma={rep.lemma} case={rep.case} field={rep.field} "
        f"space={rep.search_space} counterexamples={len(rep.counterexamples)} "
        f"time={rep.runtime:.2f}s"
    )
    for w in rep.counterexamples[:5]:
        print(f"  witness {w}")
    print("PASS" if rep.ok else "FAIL")
    return 0 if rep.ok else 1


def cmd_verify(args) -> int:
    from .corpus import load_corpus
    from .verify import DEFAULT_SUITE_SIZES

    corpus = load_corpus(args.corpus)
    _print_seed(args.seed)
    rng = random.Random(args.seed)
    sizes = None
    if args.quick:
        sizes = {k: max(4, v // 10) for k, v in DEFAULT_SUITE_SIZES.items()}
    report = proposition_suites(corpus, rng, sizes=sizes)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in report_lines(report):
            print(line)
    return 0 if report["ok"] else 1


def cmd_bench(args) -> int:
    c = _load_curve(args.curve)
    fs = _load_formulas(args.formulas, c)
    ctx = make_context(c, fs)
    _print_seed(args.seed)
    rng = random.Random(args.seed)
    rep = run_bench(ctx, rng, trials=args.trials)
    print(json.dumps(rep, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="g2kummer",
        description="Kummer-surface arithmetic for genus-2 Jacobians in any characteristic",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a curve file for nonsingularity")
    q.add_argument("curve")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("synth", help="synthesize a formula file for a curve")
    q.add_argument("curve")
    q.add_argument("--out", required=True)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.set_defaults(fn=cmd_synth)

    q = sub.add_parser("eval", help="evaluate the Kummer coordinate map")
    q.add_argument("what", choices=["kappa"])
    q.add_argument("curve")
    q.add_argument("--points", required=True, help='two affine points "x1,y1;x2,y2"')
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("dbl", help="duplicate a Kummer point")
    q.add_argument("curve")
    q.add_argument("--formulas", required=True)
    q.add_argument("--point", required=True, help="k1:k2:k3:k4")
    q.set_defaults(fn=cmd_dbl)

    q = sub.add_parser("translate", help="translate by a two-torsion class")
    q.add_argument("curve")
    q.add_argument("--formulas", default=None)
    q.add_argument("--class", dest="cls", required=True)
    q.add_argument("--point", required=True)
    q.set_defaults(fn=cmd_translate)

    q = sub.add_parser("ladder", help="scalar multiplication on the surface")
    q.add_argument("curve")
    q.add_argument("--formulas", required=True)
    q.add_argument("--point", required=True)
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(fn=cmd_ladder)

    q = sub.add_parser("twotorsion", help="list rational two-torsion classes")
    q.add_argument("curve")
    q.set_defaults(fn=cmd_twotorsion)

    q = sub.add_parser("lemma", help="exhaustive small-field lemma search")
    q.add_argument("which", choices=["delta", "b"])
    q.add_argument("--case", required=True, choices=["a", "b", "c"])
    q.add_argument("--field", required=True)
    q.add_argument("--coeffs", required=True, help="f1,f3,f5")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.set_defaults(fn=cmd_lemma)

    q = sub.add_parser("verify", help="run the identity suites over a corpus")
    q.add_argument("corpus")
    q.add_argument("--json", action="store_true")
    q.add_argument("--quick", action="store_true", help="smaller sample sizes")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("bench", help="operation counts and timing per ladder bit")
    q.add_argument("curve")
    q.add_argument("--formulas", required=True)
    q.add_argument("--trials", type=int, default=5)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except errors.G2KummerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
