#!/usr/bin/env python3
"""Write the outputs that a behaviour-preserving change must leave byte-identical.

Usage: scripts/identity_gates.py OUTDIR

OUTDIR receives
  - <name>.kfs for each curve of corpus/default.corpus, written by
    ``g2kummer synth --seed 1000+i`` with i the curve's index in the manifest;
  - verify_quick_seed7.json, the ``g2kummer verify --quick --json --seed 7``
    report over every curve of the corpus, in manifest order.

The commands run against the ``src/`` next to this script, so running it
from two checkouts and comparing the two directories with ``diff -r`` shows
whether a change altered any formula file or verify report.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def g2kummer(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "g2kummer", *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


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
        g2kummer("synth", os.path.join(CORPUS, name), "--out", os.path.join(out, f"{stem}.kfs"), "--seed", str(1000 + i))
    report = g2kummer("verify", manifest, "--quick", "--json", "--seed", "7")
    with open(os.path.join(out, "verify_quick_seed7.json"), "w") as fh:
        fh.write(report)
    print(f"wrote {len(files)} formula files and the verify report to {out}")


if __name__ == "__main__":
    main()
