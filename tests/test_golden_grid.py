"""Byte-for-byte pin of the library's canonical output over a small grid.

``tests/golden_grid.txt`` holds, for every ordered pair of diagrams with at
most 4 cells each:

* the canonical text of the two-variable pairing;
* the canonical text of both sl(N) routes at every admissible N <= 4;
* the sha256 of the ``--format json`` stdout of ``hopf``, ``sln`` and
  ``minor`` on the same grid, and of ``unknot`` and ``series --degree 5``
  for every diagram;
* the sha256 of the ``verify --format json`` stdout at default bounds, so a
  renamed, added or reworded check shows here.

Regenerate it only on purpose, after a change that is meant to alter the
output:

    PYTHONPATH=src python tests/test_golden_grid.py --write
"""

import contextlib
import hashlib
import io
import os
import sys

from hopfly import (
    format_ring_elem,
    hopf_invariant,
    hopf_sln_minor,
    hopf_sln_substitution,
    partitions_up_to,
)
from hopfly.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_grid.txt")
MAX_SIZE = 4
MAX_N = 4


def _json_digest(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    if code != 0:
        raise AssertionError(f"hopfly {' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def grid_lines() -> list[str]:
    """Every line of the golden file, in file order."""
    diagrams = partitions_up_to(MAX_SIZE)
    lines = []
    for lam in diagrams:
        for mu in diagrams:
            lines.append(f"hopf {lam} {mu} {format_ring_elem(hopf_invariant(lam, mu))}")
            for n in range(max(lam.length, mu.length, 1), MAX_N + 1):
                sub = hopf_sln_substitution(lam, mu, n).value
                minor = hopf_sln_minor(lam, mu, n).value
                lines.append(f"sln-substitution {lam} {mu} {n} {format_ring_elem(sub)}")
                lines.append(f"sln-minor {lam} {mu} {n} {format_ring_elem(minor)}")
    for lam in diagrams:
        flag = ["--lambda", str(lam)]
        lines.append(f"json unknot {lam} {_json_digest('unknot', *flag)}")
        lines.append(f"json series {lam} {_json_digest('series', *flag, '--degree', '5')}")
        for mu in diagrams:
            pair = [*flag, "--mu", str(mu)]
            lines.append(f"json hopf {lam} {mu} {_json_digest('hopf', *pair)}")
            for n in range(max(lam.length, mu.length, 1), MAX_N + 1):
                triple = [*pair, "--N", str(n)]
                lines.append(f"json sln {lam} {mu} {n} {_json_digest('sln', *triple)}")
                lines.append(f"json minor {lam} {mu} {n} {_json_digest('minor', *triple)}")
    lines.append(f"json verify {_json_digest('verify')}")
    return lines


def test_golden_grid_is_byte_identical():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        expected = fh.read()
    assert "\n".join(grid_lines()) + "\n" == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(grid_lines()) + "\n")
