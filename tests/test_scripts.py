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
