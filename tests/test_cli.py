import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import g2kummer
from g2kummer.algebra import Matrix, Poly
from g2kummer.cli import main
from g2kummer.curve import CurveModel, normal_form_curve
from g2kummer.field import BinaryField, PrimeField
from g2kummer.jacobian import random_divisor, to_point_pair, working_model
from g2kummer.kummer import KummerPoint, kummer_coords, two_torsion_classes
from g2kummer.synthesis import BQF_INDEX_PAIRS, deserialize_formula_set, serialize_formula_set, synthesize_formula_set

from .helpers import printed_translation

F1009 = PrimeField(1009)
CURVE_TEXT = "field prime:p=1009\nf 1,3,0,2,0,1,0\nh 1,1,0,0\n"
SINGULAR_TEXT = "field prime:p=1009\nf 0,0,1,0,0,0,1\nh 0,0,0,0\n"


@pytest.fixture()
def curve_file(tmp_path):
    p = tmp_path / "c.curve"
    p.write_text(CURVE_TEXT)
    return str(p)


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("kfs")
    cpath = d / "c.curve"
    cpath.write_text(CURVE_TEXT)
    out = d / "c.kfs"
    rc = main(["synth", str(cpath), "--out", str(out), "--seed", "7"])
    assert rc == 0
    return str(cpath), str(out)


def test_validate_ok(curve_file, capsys):
    assert main(["validate", curve_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_singular_exit_code(tmp_path, capsys):
    p = tmp_path / "s.curve"
    p.write_text(SINGULAR_TEXT)
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "repeated root" in out


@pytest.mark.parametrize("argv", [
    ["synth", "{c}", "--out", "{d}/c.kfs"],
    ["eval", "kappa", "{c}", "--points", "1,1;0,0"],
    ["twotorsion", "{c}"],
    ["translate", "{c}", "--class", "T1", "--point", "0:0:0:1"],
    ["dbl", "{c}", "--formulas", "{d}/none.kfs", "--point", "0:0:0:1"],
    ["ladder", "{c}", "--formulas", "{d}/none.kfs", "--point", "0:0:0:1", "-n", "3"],
    ["bench", "{c}", "--formulas", "{d}/none.kfs"],
], ids=lambda argv: argv[0])
def test_every_command_but_validate_rejects_a_singular_curve(argv, tmp_path, capsys):
    # y^2 = x^5 is singular at (0, 0); eval used to print 1:1:0:0 for it,
    # and the gate comes before any formula file is read
    p = tmp_path / "x5.curve"
    p.write_text("field prime:p=1009\nf 0,0,0,0,0,1,0\nh 0,0,0,0\n")
    assert main([a.format(c=p, d=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: invalid curve: ") and "repeated root" in captured.err
    assert main(["validate", str(p)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_synth_deterministic_bytes(tmp_path, capsys):
    cpath = tmp_path / "c.curve"
    cpath.write_text(CURVE_TEXT)
    o1, o2 = tmp_path / "a.kfs", tmp_path / "b.kfs"
    assert main(["synth", str(cpath), "--out", str(o1), "--seed", "99"]) == 0
    assert main(["synth", str(cpath), "--out", str(o2), "--seed", "99"]) == 0
    b1, b2 = o1.read_bytes(), o2.read_bytes()
    assert b1 == b2
    out = capsys.readouterr().out
    assert "seed 99" in out


def test_eval_kappa_and_pipeline(synth_file, capsys):
    cpath, kfs = synth_file
    # two points on the curve found by sampling
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]),
                   Poly.from_ints(F1009, [1, 1]))
    from g2kummer.curve import sample_point

    rng = random.Random(5)
    P1 = sample_point(c, rng)
    P2 = sample_point(c, rng)
    while P2.x == P1.x:
        P2 = sample_point(c, rng)
    pts = f"{P1.x},{P1.y};{P2.x},{P2.y}"
    assert main(["eval", "kappa", cpath, "--points", pts]) == 0
    ktext = capsys.readouterr().out.strip()
    assert ktext.count(":") == 3

    # dbl on the CLI agrees with kappa of the oracle double
    assert main(["dbl", cpath, "--formulas", kfs, "--point", ktext]) == 0
    dbl_text = capsys.readouterr().out.strip()
    from g2kummer.curve import pair_from_points
    from g2kummer.jacobian import add, from_point_pair, to_point_pair, working_model
    from g2kummer.kummer import kummer_coords, kummer_point_from_text

    wm = working_model(c)
    D = from_point_pair(wm, pair_from_points(c, P1, P2))
    expect = kummer_coords(c, to_point_pair(wm, add(wm, D, D))).normalized()
    assert kummer_point_from_text(F1009, dbl_text).proportional(expect)

    # ladder n = 11 against the oracle
    assert main(["ladder", cpath, "--formulas", kfs, "--point", ktext, "-n", "11"]) == 0
    lad_text = capsys.readouterr().out.strip()
    from .helpers import scalar_mul

    expect11 = kummer_coords(c, to_point_pair(wm, scalar_mul(wm, D, 11))).normalized()
    assert kummer_point_from_text(F1009, lad_text).proportional(expect11)


def test_eval_kappa_rejects_off_curve(curve_file, capsys):
    # a point off the curve is an input rejection (exit 2), not a failed check
    assert main(["eval", "kappa", curve_file, "--points", "1,1;2,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "(1,1) is not on the curve" in captured.err


def test_stale_formula_file_rejected(synth_file, tmp_path, capsys):
    cpath, kfs = synth_file
    other = tmp_path / "other.curve"
    other.write_text("field prime:p=1009\nf 2,3,0,2,0,1,0\nh 1,1,0,0\n")
    rc = main(["dbl", str(other), "--formulas", kfs, "--point", "0:0:0:1"])
    assert rc == 1
    assert "stale" in capsys.readouterr().err


def test_off_surface_point_rejected(synth_file, capsys):
    from g2kummer.kummer import KummerPoint, on_surface, quartic_from_curve

    cpath, kfs = synth_file
    c = CurveModel(F1009, Poly.from_ints(F1009, [1, 3, 0, 2, 0, 1]), Poly.from_ints(F1009, [1, 1]))
    assert not on_surface(quartic_from_curve(c), KummerPoint(F1009, (1, 2, 3, 4)))
    for argv in (
        ["dbl", cpath, "--formulas", kfs, "--point", "1:2:3:4"],
        ["ladder", cpath, "--formulas", kfs, "--point", "1:2:3:4", "-n", "5"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not on the Kummer surface" in captured.err


@pytest.mark.parametrize("point", ["1:2:3", "1:2:3:4:5"])
def test_point_needs_four_coordinates(synth_file, capsys, point):
    cpath, kfs = synth_file
    assert main(["dbl", cpath, "--formulas", kfs, "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    n = len(point.split(":"))
    assert captured.err == f"error: a Kummer point has four coordinates, got {n}\n"


@pytest.mark.parametrize("extra", ["B5 biquadratic44 1", "B biquadratic44 1", "delta0 quartic4 1"])
def test_malformed_formula_file_is_usage_error(synth_file, tmp_path, capsys, extra):
    cpath, kfs = synth_file
    bad = tmp_path / "bad.kfs"
    bad.write_text(Path(kfs).read_text() + extra + "\n")
    assert main(["dbl", cpath, "--formulas", str(bad), "--point", "0:0:0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized KFS1 line" in captured.err


def _assert_usage_error(argv, capsys):
    # main() returns instead of letting the exception escape as a traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    return captured.err


def test_field_spec_without_its_key_is_usage_error(tmp_path, capsys):
    p = tmp_path / "q.curve"
    p.write_text(CURVE_TEXT.replace("prime:p=1009", "prime:q=7"))
    _assert_usage_error(["validate", str(p)], capsys)


def test_coefficients_before_field_line_is_usage_error(tmp_path, capsys):
    lines = CURVE_TEXT.splitlines()
    p = tmp_path / "order.curve"
    p.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
    _assert_usage_error(["validate", str(p)], capsys)


def test_formula_file_without_field_line_is_usage_error(synth_file, tmp_path, capsys):
    cpath, kfs = synth_file
    bad = tmp_path / "nofield.kfs"
    bad.write_text("".join(ln for ln in Path(kfs).read_text().splitlines(True)
                           if not ln.startswith("field ")))
    _assert_usage_error(["dbl", cpath, "--formulas", str(bad), "--point", "0:0:0:1"], capsys)


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("curve,points,kappa", [
    ("m61_h2_f5", "0,1;0,1", "1:0:0:512409557603043102"),
    ("c2_general_f", "0x3,0x4b00;0x3,0x4b00", "0x1:0x0:0x5:0x3a4e"),
])
def test_eval_kappa_of_a_doubled_point(capsys, curve, points, kappa):
    # twice one point is Mumford data with a repeated root, read by the same
    # k4 formula as two distinct points
    assert main(["eval", "kappa", str(CORPUS_DIR / f"{curve}.curve"), "--points", points]) == 0
    assert capsys.readouterr().out.strip() == kappa


@pytest.mark.parametrize("points", ["1,149", "1,1;2,2;3,3"])
def test_eval_kappa_needs_two_points(curve_file, capsys, points):
    _assert_usage_error(["eval", "kappa", curve_file, "--points", points], capsys)


def test_translate_unknown_class_is_usage_error(formula_cache, tmp_path, capsys):
    kfs = tmp_path / "p.kfs"
    kfs.write_text(serialize_formula_set(formula_cache["p1009_2tors"]))
    err = _assert_usage_error(["translate", str(CORPUS_DIR / "p1009_2tors.curve"), "--formulas", str(kfs),
                               "--class", "s:9,9,9", "--point", "0:0:0:1"], capsys)
    assert "no two-torsion class labelled 's:9,9,9'" in err


def test_lemma_needs_three_coefficients(capsys):
    _assert_usage_error(["lemma", "delta", "--case", "a", "--field", "binary:m=2,mod=0x7",
                         "--coeffs", "0,1"], capsys)


@pytest.mark.parametrize("curve,label", [("p1009_2tors", "s:2,1006,1"), ("c2_general_f", "aa:0x0,0x1")],
                         ids=["p1009_2tors", "c2_general_f"])
def test_translate_without_formulas_is_usage_error(capsys, curve, label):
    # W is read from the formula file in every characteristic
    err = _assert_usage_error(["translate", str(CORPUS_DIR / f"{curve}.curve"), "--class", label,
                               "--point", "0:0:0:1"], capsys)
    assert "--formulas" in err


def test_translate_char2_is_the_printed_matrix(formula_cache, capsys):
    # the W lines of a characteristic-2 formula file, derived from its forms,
    # move a surface point as the paper's printed matrix does
    c = formula_cache.curve("c2_general_f")
    wm = working_model(c)
    k = kummer_coords(c, to_point_pair(wm, random_divisor(wm, random.Random(31)))).normalized()
    classes = two_torsion_classes(c)
    assert len(classes) == 3
    for T in classes:
        assert main(["translate", str(CORPUS_DIR / "c2_general_f.curve"), "--formulas",
                     str(REFERENCE_DIR / "c2_general_f.kfs"), "--class", T.label, "--point", k.text()]) == 0
        W = printed_translation(c, T)[0]
        assert capsys.readouterr().out == KummerPoint(c.field, W.apply(list(k.coords))).normalized().text() + "\n"


B8 = BinaryField(3, 0b1011)


@pytest.fixture(scope="module")
def checked_files(tmp_path_factory, formula_cache):
    """(curve file, KFS1 text) of a reference file, an odd-characteristic
    corpus file and a file synthesized on the lift of a GF(8) curve."""
    d = tmp_path_factory.mktemp("checked")
    gf8 = normal_form_curve(B8, "c", 1, 0, 2)
    gf8_path = d / "gf8.curve"
    gf8_path.write_text(gf8.curve_file_text())
    return {
        "c2_general_f": (CORPUS_DIR / "c2_general_f.curve", (REFERENCE_DIR / "c2_general_f.kfs").read_text()),
        "p1009_2tors": (CORPUS_DIR / "p1009_2tors.curve", serialize_formula_set(formula_cache["p1009_2tors"])),
        "gf8_normal_form": (gf8_path, serialize_formula_set(synthesize_formula_set(gf8, random.Random(32)))),
    }


def _one_coefficient_changed(text, line):
    """``text`` with the first coefficient of its ``line`` (a delta line, or
    "W" for the first W line) plus one; on a B line, the first nonzero
    coefficient off the diagonal, without its mirror image."""
    fs = deserialize_formula_set(text)
    F = fs.curve.field
    bump = lambda vec: [F.add(vec[0], F.one)] + list(vec[1:])
    if line.startswith("B"):
        key = (int(line[1]), int(line[2]))
        vec = list(fs.bqf[key])
        k = next(k for k, c in enumerate(vec) if c != F.zero and k // 10 != k % 10)
        vec[k] = F.add(vec[k], F.one)
        fs.bqf[key] = tuple(vec)
    elif line == "W":
        label, W = fs.w[0]
        fs.w[0] = (label, Matrix(F, [bump(W.rows[0])] + W.rows[1:]))
    else:
        i = int(line[len("delta"):]) - 1
        fs.delta = fs.delta[:i] + (tuple(bump(fs.delta[i])),) + fs.delta[i + 1:]
    return serialize_formula_set(fs)


@pytest.mark.parametrize("line", [None, "delta1", "delta2", "delta3", "delta4", "W"])
@pytest.mark.parametrize("name", ["c2_general_f", "p1009_2tors", "gf8_normal_form"])
def test_loaded_formulas_are_checked_against_their_forms(checked_files, tmp_path, capsys, name, line):
    cpath, text = checked_files[name]
    if line is not None:
        changed = _one_coefficient_changed(text, line)
        assert sum(a != b for a, b in zip(text.splitlines(), changed.splitlines())) == 1
        text = changed
    kfs = tmp_path / "f.kfs"
    kfs.write_text(text)
    rc = main(["dbl", str(cpath), "--formulas", str(kfs), "--point", "0:0:0:1"])
    captured = capsys.readouterr()
    if line is None:
        assert rc == 0 and captured.err == ""
        return
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: formula file: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("line", [f"B{i}{j}" for i, j in BQF_INDEX_PAIRS])
@pytest.mark.parametrize("name", ["c2_general_f", "p1009_2tors", "gf8_normal_form"])
def test_asymmetric_b_lines_are_rejected(checked_files, tmp_path, capsys, name, line):
    # the forms are evaluated over the symmetric pairs, so a B line that is
    # not symmetric in its two arguments is refused as input (exit 2)
    cpath, text = checked_files[name]
    changed = _one_coefficient_changed(text, line)
    assert sum(a != b for a, b in zip(text.splitlines(), changed.splitlines())) == 1
    kfs = tmp_path / "f.kfs"
    kfs.write_text(changed)
    rc = main(["dbl", str(cpath), "--formulas", str(kfs), "--point", "0:0:0:1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {line} is not symmetric in its two arguments\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_needs_a_trial(synth_file, capsys, trials):
    cpath, kfs = synth_file
    assert main(["bench", cpath, "--formulas", kfs, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "trial" in captured.err
    assert "Traceback" not in captured.err and "per_step" not in captured.out


def test_twotorsion_listing(tmp_path, capsys):
    F = F1009
    h = Poly.from_ints(F, [0, 1])
    g = Poly.from_ints(F, [-1, 0, 1]) * Poly.from_ints(F, [-2, 1]) * Poly.from_ints(F, [-3, 1]) * Poly.from_ints(F, [-5, 1])
    f = (g - h * h).scale(F.inv(F.from_int(4)))
    c = CurveModel(F, f, h)
    p = tmp_path / "t.curve"
    p.write_text(c.curve_file_text())
    assert main(["twotorsion", str(p)]) == 0
    out = capsys.readouterr().out
    assert "rational two-torsion classes: 10" in out


def test_translate_odd_char(tmp_path, capsys):
    F = F1009
    h = Poly.from_ints(F, [0, 1])
    g = Poly.from_ints(F, [-1, 0, 1]) * Poly.from_ints(F, [-2, 1]) * Poly.from_ints(F, [-3, 1]) * Poly.from_ints(F, [-5, 1])
    f = (g - h * h).scale(F.inv(F.from_int(4)))
    c = CurveModel(F, f, h)
    cpath = tmp_path / "t.curve"
    cpath.write_text(c.curve_file_text())
    kfs = tmp_path / "t.kfs"
    assert main(["synth", str(cpath), "--out", str(kfs), "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["twotorsion", str(cpath)]) == 0
    label = None
    for line in capsys.readouterr().out.splitlines():
        line = line.strip()
        if line.startswith("s:"):
            label = line.split()[0]
            break
    assert label
    rc = main(["translate", str(cpath), "--formulas", str(kfs), "--class", label,
               "--point", "0:0:0:1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.count(":") == 3
    # a point off the surface is a usage error
    rc = main(["translate", str(cpath), "--formulas", str(kfs), "--class", label,
               "--point", "1:2:3:4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not on the Kummer surface" in captured.err


def test_lemma_cli(capsys):
    rc = main(["lemma", "delta", "--case", "a", "--field", "binary:m=2,mod=0x7",
               "--coeffs", "0,0,1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "seed" in out


def test_lemma_singular_coefficients_exit_one(capsys):
    # a typed rejection of the input exits 1, not 2
    rc = main(["lemma", "b", "--case", "a", "--field", "binary:m=2,mod=0x7", "--coeffs", "0,0,0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: case (a) needs f5 != 0\n"


def test_verify_cli(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "one.curve").write_text(CURVE_TEXT)
    (d / "bad.curve").write_text(SINGULAR_TEXT)
    (d / "mini.corpus").write_text("one.curve\nbad.curve\n")
    rc = main(["verify", str(d / "mini.corpus"), "--quick", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "PASS"
    assert "SKIP curve=bad" in out
    rc = main(["verify", str(d / "mini.corpus"), "--quick", "--seed", "5", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert payload["ok"] is True


def test_bench_cli(synth_file, capsys):
    cpath, kfs = synth_file
    rc = main(["bench", cpath, "--formulas", kfs, "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out.split("\n", 1)[1])
    assert payload["inversions_per_step"] == 0
    assert payload["xdbl"]["mul"] > 0


def test_bench_over_q_is_rejected(capsys):
    # a 40-bit ladder over Q would run for hours; bench refuses the field
    # before it samples a point
    kfs = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "rational_small.kfs"
    rc = main(["bench", str(CORPUS_DIR / "rational_small.curve"), "--formulas", str(kfs), "--trials", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "rationals" in captured.err
    assert "per_step" not in captured.out


def test_module_entry_point():
    # the child process imports the same package as this one
    src = str(Path(g2kummer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "g2kummer", "validate", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
