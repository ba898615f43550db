"""Smoke tests: the scripts under scripts/ run to completion, and the
mutation table still matches the source."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["worked_example.py"],
        ["pair_grid.py", "--max-size", "2", "--max-n", "2"],
    ],
)
def test_script_exits_cleanly(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_mutant_snippet_occurs_once_in_src():
    # scripts/mutants.py runs each mutant against a copy of src/; this keeps
    # its table from rotting without running it
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            assert fh.read().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet and m.tests, m.name


def test_loc_counts_code_lines_only():
    spec = importlib.util.spec_from_file_location(
        "loc", os.path.join(ROOT, "scripts", "loc.py"))
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = '"""Module\ndocstring."""\n\n# comment\ndef f(x):\n    """Doc."""\n' \
             '    y = (x +  # trailing\n         1)\n    return """not\na docstring"""\n'
    assert loc.code_lines(source) == 5
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "loc.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[-1][1] == "total" and "ring.py" in [name for _, name in rows]
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
