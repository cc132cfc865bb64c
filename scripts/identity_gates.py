#!/usr/bin/env python3
"""Write the outputs that a behaviour-preserving change must leave byte-identical.

Usage: scripts/identity_gates.py OUTDIR

OUTDIR receives
  - <name>.kfs for each curve of corpus/default.corpus, written by
    ``g2kummer synth --seed 1000+i`` with i the curve's index in the manifest;
  - verify_quick_seed7.json, the ``g2kummer verify --quick --json --seed 7``
    report over every curve of the corpus, in manifest order;
  - <name>.ladder.txt for each finite-field curve: a fixed surface point
    (kappa of two affine points drawn with a fixed seed) and the normalized
    output of ``g2kummer dbl`` on it and of ``g2kummer ladder`` on it with
    each of SCALARS, both reading the <name>.kfs just written.

The commands run against the ``src/`` next to this script, so running it
from two checkouts and comparing the two directories with ``diff -r`` shows
whether a change altered any formula file or verify report.
"""

import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2kummer.curve import curve_from_text, pair_from_points, sample_point  # noqa: E402
from g2kummer.kummer import kummer_coords  # noqa: E402

SCALARS = (2, 123456789, (1 << 255) | 0x5DEECE66D)


def g2kummer(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "g2kummer", *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


def surface_point(c, name) -> str:
    """k1:k2:k3:k4 of kappa of two affine points of c with distinct x, drawn
    from a seed fixed per curve file name."""
    rng = random.Random(f"identity-gates/{name}")
    while True:
        P, Q = sample_point(c, rng), sample_point(c, rng)
        if P.x != Q.x:
            return kummer_coords(c, pair_from_points(c, P, Q)).normalized().text()


def ladder_outputs(curve, point, kfs) -> str:
    lines = [f"point {point}", "dbl " + g2kummer("dbl", curve, "--formulas", kfs, "--point", point).strip()]
    for n in SCALARS:
        out = g2kummer("ladder", curve, "--formulas", kfs, "--point", point, "-n", str(n)).strip()
        lines.append(f"ladder {n} {out}")
    return "\n".join(lines) + "\n"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = os.path.abspath(sys.argv[1])
    os.makedirs(out, exist_ok=True)
    manifest = os.path.join(CORPUS, "default.corpus")
    with open(manifest) as fh:
        files = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    for i, name in enumerate(files):
        stem = os.path.splitext(name)[0]
        curve, kfs = os.path.join(CORPUS, name), os.path.join(out, f"{stem}.kfs")
        g2kummer("synth", curve, "--out", kfs, "--seed", str(1000 + i))
        with open(curve) as fh:
            c = curve_from_text(fh.read())
        if c.field.order() is None:
            continue
        with open(os.path.join(out, f"{stem}.ladder.txt"), "w") as fh:
            fh.write(ladder_outputs(curve, surface_point(c, name), kfs))
    report = g2kummer("verify", manifest, "--quick", "--json", "--seed", "7")
    with open(os.path.join(out, "verify_quick_seed7.json"), "w") as fh:
        fh.write(report)
    print(f"wrote {len(files)} formula files, the ladder outputs and the verify report to {out}")


if __name__ == "__main__":
    main()
