import json
import random

import pytest

from g2kummer.algebra import Poly
from g2kummer.curve import CurveModel, validate
from g2kummer.errors import SingularCurve
from g2kummer.field import BinaryField, PrimeField
from g2kummer.verify import (
    LemmaReport,
    lemma_b_search,
    lemma_delta_search,
    proposition_suites,
    report_lines,
)

from .helpers import two_torsion_count_check

B1 = BinaryField(1, 0b10)
B2 = BinaryField(2, 0b111)
F1009 = PrimeField(1009)


def test_lemma_delta_case_a_gf2():
    rep = lemma_delta_search("a", (0, 0, 1), B1, random.Random(1))
    assert rep.ok and rep.search_space == 16


def test_lemma_delta_case_b_gf4():
    rep = lemma_delta_search("b", (1, 0, 1), B2, random.Random(2))
    assert rep.ok and rep.search_space == 256


def test_lemma_delta_singular_precondition():
    with pytest.raises(SingularCurve):
        lemma_delta_search("b", (0, 0, 1), B2, random.Random(3))


def test_lemma_beta_gate_gf2():
    # case (c) with f1 = f3 = f5 = 1 over GF(2): beta = 0, rejected before search
    with pytest.raises(SingularCurve):
        lemma_delta_search("c", (1, 1, 1), B1, random.Random(4))


def test_lemma_b_case_a_gf2():
    rep = lemma_b_search("a", (0, 0, 1), B1, random.Random(5))
    assert rep.ok


def test_lemma_report_with_a_witness_is_not_ok():
    rep = LemmaReport("delta", "a", "binary:m=1,mod=0x2", ("0x0",), 16,
                      counterexamples=[{"x": (1, 0, 0, 0)}])
    assert not rep.ok


def test_two_torsion_count_structured_cases():
    B16 = BinaryField(16, 0x1002B)
    # one distinct root (h = 1): geometric order 1
    c = CurveModel(B16, Poly(B16, [0, 3, 0, 7, 0, 11]), Poly(B16, [1]))
    res = two_torsion_count_check(c)
    assert res["ok"] and res["geometric_order"] == 1 and res["rational_classes"] == 0
    # two distinct roots (h = x^2): geometric order 2
    c = CurveModel(B16, Poly(B16, [0, 3, 0, 7, 0, 11]), Poly(B16, [0, 0, 1]))
    if validate(c).ok:
        res = two_torsion_count_check(c)
        assert res["ok"] and res["geometric_order"] == 2
    # three distinct roots (h = x^2 + x): geometric order 4
    c = CurveModel(B16, Poly(B16, [0, 3, 0, 7, 0, 11]), Poly(B16, [0, 1, 1]))
    res = two_torsion_count_check(c)
    assert res["ok"] and res["geometric_order"] == 4 and res["rational_classes"] == 3


def test_proposition_suites_mini_corpus():
    corpus = [
        ("good", CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]),
                            Poly.from_ints(F1009, [1, 1]))),
        ("singular", CurveModel(F1009, Poly.from_ints(F1009, [0, 0, 1, 0, 0, 0, 1]),
                                Poly(F1009, []))),
    ]
    assert not validate(corpus[1][1]).ok
    sizes = {k: 8 for k in ("kappa_surface", "delta", "bqf", "translation", "crosschecks", "chain")}
    rep1 = proposition_suites(corpus, random.Random(42), sizes=sizes)
    assert rep1["ok"]
    by_name = {e["name"]: e for e in rep1["curves"]}
    assert by_name["good"]["status"] == "pass"
    assert by_name["singular"]["status"] == "skipped"
    lines = report_lines(rep1)
    assert lines[-1] == "PASS"
    assert any(l.startswith("SKIP curve=singular") for l in lines)
    # deterministic given the seed
    rep2 = proposition_suites(corpus, random.Random(42), sizes=sizes)
    assert json.dumps(rep1, default=str) == json.dumps(rep2, default=str)


def test_proposition_suites_detects_corruption(monkeypatch):
    corpus = [
        ("good", CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]),
                            Poly.from_ints(F1009, [1, 1]))),
    ]
    sizes = {k: 6 for k in ("kappa_surface", "delta", "bqf", "translation", "crosschecks", "chain")}
    import g2kummer.verify as verify
    from g2kummer.synthesis import FormulaSet, synthesize_formula_set

    fs = synthesize_formula_set(corpus[0][1], random.Random(7))
    bad_delta = tuple(
        tuple(v if (b, i) != (0, 0) else F1009.add(v, 1) for i, v in enumerate(blk))
        for b, blk in enumerate(fs.delta)
    )
    bad = FormulaSet(fs.curve, fs.fingerprint, bad_delta, fs.bqf, fs.w, fs.convention)
    monkeypatch.setattr(verify, "synthesize_formula_set", lambda c, rng: bad)
    rep = proposition_suites(corpus, random.Random(8), sizes=sizes)
    assert not rep["ok"]
    (entry,) = rep["curves"]
    assert entry["status"] == "fail"
    assert not entry["suites"]["delta"]["ok"] and "witness" in entry["suites"]["delta"]
    lines = report_lines(rep)
    assert lines[-1] == "FAIL"
    assert any(l.startswith("FAIL curve=good suite=delta witness=") for l in lines)


@pytest.mark.parametrize("name,damage", [
    ("c2_h3_split", "swap_rows"),
    ("c2_h3_split", "no_w"),
    ("p1009_2tors", "no_w"),
])
def test_translation_suite_checks_the_formula_sets_own_w(name, damage):
    from g2kummer.algebra import Matrix
    from g2kummer.corpus import default_corpus
    from g2kummer.jacobian import working_model
    from g2kummer.synthesis import FormulaSet, synthesize_formula_set
    from g2kummer.verify import _suite_translation

    c = dict(default_corpus())[name]
    fs = synthesize_formula_set(c, random.Random(9))
    wm = working_model(c)
    assert _suite_translation(wm, random.Random(10), fs, 6)["ok"]
    if damage == "swap_rows":
        (label, W), *rest = fs.w
        w = [(label, Matrix(W.field, [W.rows[1], W.rows[0], *W.rows[2:]])), *rest]
    else:
        w = []
    bad = FormulaSet(fs.curve, fs.fingerprint, fs.delta, fs.bqf, w, fs.convention)
    rep = _suite_translation(wm, random.Random(10), bad, 6)
    assert not rep["ok"] and rep["witness"]


def test_verify_quick_reuses_the_working_models(monkeypatch, tmp_path):
    # verify --quick on an odd-characteristic curve builds one working model
    # for synthesis, one for the suites (the cross-checks included) and one
    # for the simplified model; it built six when each cross-check and each
    # stage on the simplified model built its own
    from pathlib import Path

    import g2kummer.synthesis as synthesis
    import g2kummer.verify as verify
    from g2kummer.cli import main
    from g2kummer.jacobian import working_model

    calls = []

    def counted(c):
        calls.append(c)
        return working_model(c)

    monkeypatch.setattr(synthesis, "working_model", counted)
    monkeypatch.setattr(verify, "working_model", counted)
    manifest = tmp_path / "one.corpus"
    manifest.write_text(str(Path(__file__).resolve().parent.parent / "corpus" / "m61_h3_f6.curve") + "\n")
    assert main(["verify", str(manifest), "--quick", "--seed", "7"]) == 0
    assert len(calls) == 3


def test_verify_skips_curves_it_cannot_synthesize_for(tmp_path, capsys):
    # one valid curve without a rational Weierstrass point and one over a
    # prime below the synthesis bound are reported as skipped, with the
    # error as the reason, and the rest of the corpus is still verified
    from pathlib import Path

    from g2kummer.cli import main

    (tmp_path / "no_weierstrass.curve").write_text("field prime:p=1009\nf 3,1,0,0,0,0,1\nh 0,0,0,0\n")
    (tmp_path / "small_prime.curve").write_text("field prime:p=101\nf 1,1,0,0,0,1,0\nh 0,0,0,0\n")
    torsion = Path(__file__).resolve().parent.parent / "corpus" / "p1009_2tors.curve"
    manifest = tmp_path / "mixed.corpus"
    manifest.write_text(f"no_weierstrass.curve\nsmall_prime.curve\n{torsion}\n")
    assert main(["verify", str(manifest), "--quick", "--seed", "7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    statuses = {e["name"]: (e["status"], e.get("reason", "")) for e in report["curves"]}
    assert statuses["no_weierstrass"][0] == "skipped"
    assert statuses["no_weierstrass"][1].startswith("NoRationalWeierstrassPoint: ")
    assert statuses["small_prime"][0] == "skipped"
    assert statuses["small_prime"][1].startswith("UnsupportedField: ")
    assert statuses["p1009_2tors"][0] == "pass"
    assert report["ok"] is True


def test_chain_over_q_keeps_its_scalars_under_the_stated_bound(monkeypatch):
    # over Q coordinates grow quadratically in the scalar, so the chain suite
    # draws m + k <= RATIONAL_CHAIN_MAX_SUM there and says so in its report
    import g2kummer.verify as verify
    from g2kummer.corpus import default_corpus
    from g2kummer.jacobian import working_model
    from g2kummer.synthesis import synthesize_formula_set

    c = dict(default_corpus())["rational_small"]
    rng = random.Random(3)
    fs = synthesize_formula_set(c, rng)
    wm = working_model(c)
    scalars = []
    inner = verify.ladder

    def recorded(ctx, x, n):
        scalars.append(n)
        return inner(ctx, x, n)

    monkeypatch.setattr(verify, "ladder", recorded)
    rep = verify._suite_chain(wm, rng, fs, 6)
    assert rep == {"ok": True, "n": 6, "max_m_plus_k": verify.RATIONAL_CHAIN_MAX_SUM}
    assert scalars and max(scalars) <= verify.RATIONAL_CHAIN_MAX_SUM
