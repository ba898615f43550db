import dataclasses
import json
import os
import subprocess
import sys

import pytest

import hopfly.cli as cli
import hopfly.hopf as hopf
import hopfly.ring as ring
import hopfly.verify as verify
from hopfly.cli import main
from hopfly.ring import parse_ring_elem, ring_elem_from_json
from hopfly.partitions import Partition
from hopfly.hopf import hopf_invariant
from hopfly.verify import run_all


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHopfCommand:
    def test_empty_pair(self, capsys):
        code, out, _ = run_cli(capsys, "hopf", "--lambda", "0", "--mu", "0")
        assert code == 0
        assert "value: 1*v^0*s^0" in out

    def test_golden_pair_text(self, capsys):
        code, out, _ = run_cli(capsys, "hopf", "--lambda", "3,1", "--mu", "2,2")
        assert code == 0
        value_line = next(l for l in out.splitlines() if l.startswith("value:"))
        parsed = parse_ring_elem(value_line.split("value:", 1)[1].strip())
        assert parsed == hopf_invariant(Partition((3, 1)), Partition((2, 2)))

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "hopf", "--lambda", "2,1", "--mu", "1,1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == [2, 1] and payload["mu"] == [1, 1]
        expected = hopf_invariant(Partition((2, 1)), Partition((1, 1)))
        assert ring_elem_from_json(payload["value"]) == expected
        assert parse_ring_elem(payload["value"]["text"]) == expected


class TestOtherCommands:
    def test_unknot(self, capsys):
        code, out, _ = run_cli(capsys, "unknot", "--lambda", "1")
        assert code == 0
        assert "framing" in out

    def test_series(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--lambda", "1", "--degree", "3")
        assert code == 0
        assert "elementary series" in out and "complete series" in out

    def test_minor_q_display(self, capsys):
        code, out, _ = run_cli(capsys, "minor", "--lambda", "3,1", "--mu", "2,2", "--N", "3")
        assert code == 0
        assert "q = s^2" in out and "q^26" in out

    def test_minor_long_row_matches_its_mirror(self, capsys):
        texts = []
        for lam, mu in (("20", "0"), ("0", "20")):
            code, out, _ = run_cli(capsys, "minor", "--lambda", lam, "--mu", mu,
                                   "--N", "20", "--format", "json")
            assert code == 0
            texts.append(json.loads(out)["value"]["text"])
        assert texts[0] == texts[1]

    def test_sln_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "sln", "--lambda", "3,1", "--mu", "2,2", "--N", "3")
        assert code == 0
        assert "routes agree: true" in out

    def test_sln_json(self, capsys):
        code, out, _ = run_cli(capsys, "sln", "--lambda", "1", "--mu", "1", "--N", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["routes_agree"] is True
        assert payload["correction_exponent"] == {"numerator": -1, "denominator": 1}

    def test_sln_size_six_pair_at_n_20(self, capsys):
        code, out, _ = run_cli(capsys, "sln", "--lambda", "3,2,1", "--mu", "3,2,1",
                               "--N", "20", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["routes_agree"] is True
        assert ring_elem_from_json(payload["minor_value"]) == ring_elem_from_json(payload["value"])

    def test_sln_size_six_pair_at_n_40(self, capsys):
        # the minor route no longer builds Vandermonde products of
        # N(N-1)/2 factors, so N = 40 is within reach of the CLI
        code, out, _ = run_cli(capsys, "sln", "--lambda", "3,2,1", "--mu", "3,2,1",
                               "--N", "40", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["routes_agree"] is True

    def test_verify_small_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-size", "2", "--max-n", "2",
                               "--degree", "4")
        assert code == 0
        assert "checks passed" in out
        # determinism: a second run prints the identical report
        _, out2, _ = run_cli(capsys, "verify", "--max-size", "2", "--max-n", "2",
                             "--degree", "4")
        assert out == out2


class TestErrorHandling:
    def test_bad_partition_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hopf", "--lambda", "1,2", "--mu", "0"])
        assert exc.value.code == 2

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hopf", "--lambda", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--max-size", "-1"), ("--degree", "-2"), ("--max-n", "0"),
        ("--max-size", "0"), ("--max-n", "1"), ("--degree", "0"),
    ])
    def test_verify_rejects_out_of_range_bound(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("max_size, max_n, degree", [
        pytest.param(0, 4, 10, id="0-4"), pytest.param(5, 1, 10, id="5-1"),
        pytest.param(5, 4, 0, id="degree-0"),
    ])
    def test_run_all_rejects_bounds_that_sweep_nothing(self, max_size, max_n, degree):
        with pytest.raises(ValueError):
            run_all(max_size=max_size, max_n=max_n, degree=degree)

    def test_series_rejects_negative_degree(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--lambda", "1", "--degree", "-1"])
        assert exc.value.code == 2

    def test_n_below_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "minor", "--lambda", "1,1,1", "--mu", "0", "--N", "2")
        assert code == 2
        assert "error" in err

    def test_part_too_large_to_index_is_usage_error(self, capsys):
        # [0] * 10**20 overflows at once, before anything is allocated
        code, out, err = run_cli(capsys, "hopf", "--lambda", "99999999999999999999", "--mu", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_failed_packed_division_exits_1(self, capsys, monkeypatch):
        hopf._hopf_value.cache_clear()
        # one more constant term makes the numerator's packed division by
        # the excess brackets leave a remainder
        real = ring._over_packed
        raised = []

        def bumped(terms, nvars, missing, excess, den):
            if excess:
                key = 0 if nvars == 1 else (0, 0)
                terms = {**terms, key: terms.get(key, 0) + 1}
            try:
                return real(terms, nvars, missing, excess, den)
            except ring.ConsistencyError:
                raised.append(excess)
                raise

        monkeypatch.setattr(ring, "_over_packed", bumped)
        code, out, err = run_cli(capsys, "hopf", "--lambda", "2,1", "--mu", "2,1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: internal identity failed: ")
        assert "does not divide the numerator" in err and "Traceback" not in err
        assert len(raised) == 1

    def test_disagreeing_routes_exit_1(self, capsys, monkeypatch):
        real = cli.hopf_sln_minor

        def shifted(lam, mu, n):
            result = real(lam, mu, n)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(cli, "hopf_sln_minor", shifted)
        code, out, _ = run_cli(capsys, "sln", "--lambda", "3,1", "--mu", "2,2", "--N", "3")
        assert code == 1
        assert "routes agree: false" in out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        failing = verify.CheckResult("sl(2) structure", False, "forced failure")
        monkeypatch.setattr(verify, "check_sl2_structure", lambda *args: failing)
        code, out, _ = run_cli(capsys, "verify", "--max-size", "2", "--max-n", "2",
                               "--degree", "4")
        assert code == 1
        assert "FAIL  sl(2) structure: forced failure" in out.splitlines()
        assert "15/16 checks passed" in out.splitlines()


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfly", "hopf", "--lambda", "0", "--mu", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "v^-1" in proc.stdout
