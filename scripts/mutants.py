"""Mutation checks: deliberate small faults that named tests must catch.

    python scripts/mutants.py              # run every mutant
    python scripts/mutants.py NAME ...     # run the named mutants
    python scripts/mutants.py --list       # print the table

Each entry of ``MUTANTS`` names a file under ``src/``, an exact snippet
that occurs there once, its replacement, and the test node ids expected to
fail.  For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, applies the mutant to
the copy (the checkout is never written) and runs the named tests there
with ``pytest -x``.  The mutant is killed when pytest reports a failed
test, and survives when every named test passes.  Any other pytest status,
such as a node id that no longer exists, marks the entry broken.  The exit
status is 1 if any mutant survives or is broken, else 0.

``tests/test_scripts.py`` checks, cheaply, that every snippet still occurs
exactly once, so the table cannot silently rot.  A change that records a
mutation check adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


HOOK_CONTENT_TESTS = (
    "tests/test_sln.py::TestBracketClosedForms::test_hook_content_matches_product_form",
    "tests/test_sln.py::TestHookContentRoute::test_hook_content_is_literal_minor_quotient",
)

MUTANTS = (
    # the pairing's Giambelli route
    Mutant(
        "giambelli-one-sign-flipped", "src/hopfly/series.py",
        "-y if k % 2 else y", "-y if k == 1 else y",
        ("tests/test_series.py::TestGiambelli::test_hook_values_match_jacobi_trudy",),
    ),
    Mutant(
        "giambelli-hook-sum-one-term-short", "src/hopfly/series.py",
        "for k in range(b + 1)]", "for k in range(b)]",
        ("tests/test_series.py::TestGiambelli::test_hook_values_match_jacobi_trudy",),
    ),
    Mutant(
        "giambelli-on-ties", "src/hopfly/hopf.py",
        "if mu.diagonal_length < min(", "if mu.diagonal_length <= min(",
        ("tests/test_hopf.py::TestHopfInvariant::test_schur_side_takes_the_smallest_order",),
    ),
    # the Jacobi-Trudy tie rule and the decoration series
    Mutant(
        "h-form-on-ties", "src/hopfly/series.py",
        "return mu.length < mu.part(1)", "return mu.length <= mu.part(1)",
        ("tests/test_series.py::TestJacobiTrudyDuality::test_h_form_only_when_strictly_smaller",),
    ),
    Mutant(
        "factor-step-reads-a-for-out", "src/hopfly/hopf.py",
        "- w * out[k - 1]", "- w * a[k - 1]",
        ("tests/test_series.py::test_factor_step_matches_cauchy_products",
         "tests/test_hopf.py::TestDecoratedSeries::test_inverse_pair"),
    ),
    # bracket denominators
    Mutant(
        "divides-always-true", "src/hopfly/ring.py",
        "return phi_counts(small) <= phi_counts(big)", "return True",
        ("tests/test_ring.py::test_cyclotomic_divisibility_matches_exact_division",
         "tests/test_ring.py::test_q_binomial_brackets_divide_without_being_contained"),
    ),
    Mutant(
        "sum-of-products-skips-divisibility", "src/hopfly/ring.py",
        "if not all(_divides(d, den) for d in dens):", "if False:",
        ("tests/test_ring.py::test_sum_of_products_takes_the_term_denominator_that_all_divide",
         "tests/test_ring.py::test_sum_of_products_matches_pairwise_adds"),
    ),
    Mutant(
        "over-skips-one-excess-bracket", "src/hopfly/ring.py",
        "tuple(sorted((h - w).elements(), reverse=True))",
        "tuple(sorted((h - w).elements(), reverse=True))[1:]",
        ("tests/test_ring.py::test_over_rewrites_the_denominator",
         "tests/test_ring.py::test_packed_over_matches_per_bracket_division"),
    ),
    Mutant(
        "plan-contains-by-sets", "src/hopfly/ring.py",
        "tuple(sorted((h - w).elements(), reverse=True))",
        "tuple(sorted(set(h) - set(w), reverse=True))",
        ("tests/test_ring.py::test_lift_across_a_q_binomial_is_cross_multiplication",
         "tests/test_ring.py::test_packed_over_matches_per_bracket_division"),
    ),
    Mutant(
        "lift-across-brackets-drops-one", "src/hopfly/ring.py",
        "return x.over(den).num", "return x.over(den[1:]).num",
        ("tests/test_ring.py::test_lift_across_a_q_binomial_is_cross_multiplication",
         "tests/test_series.py::test_cauchy_coefficient_k_is_over_one_factorial"),
    ),
    # the packed multiply
    Mutant(
        "packed-slot-one-byte-short", "src/hopfly/ring.py",
        "w = bound.bit_length() // 8 + 1", "w = (bound.bit_length() + 7) // 8",
        ("tests/test_ring.py::test_packed_mul_at_slot_width_bound",
         "tests/test_ring.py::test_packed_mul_matches_term_loop"),
    ),
    Mutant(
        "lattice-step-on-a-mixed-axis", "src/hopfly/ring.py",
        "None if apar is None or bpar is None else apar ^ bpar",
        "(apar or 0) ^ (bpar or 0)",
        ("tests/test_ring.py::test_packed_mul_matches_term_loop",
         "tests/test_ring.py::test_mixed_parity_products_pack_the_whole_box"),
    ),
    Mutant(
        "packed-sum-bound-counts-first-pair", "src/hopfly/ring.py",
        "* min(len(a), len(b))\n                for _, a, b in pairs)",
        "* min(len(a), len(b))\n                for _, a, b in pairs[:1])",
        ("tests/test_ring.py::test_packed_mul_at_slot_width_bound",),
    ),
    Mutant(
        "packed-sum-step-ignores-other-pairs", "src/hopfly/ring.py",
        "h = int(len(parities) == 1 and None not in parities)",
        "h = int(None not in parities)",
        ("tests/test_ring.py::test_pairs_on_different_cosets_take_the_full_layout",
         "tests/test_ring.py::test_packed_sum_matches_term_loop"),
    ),
    Mutant(
        "monomial-operand-not-scaled", "src/hopfly/ring.py",
        "{(ev + v0, es + s0): c * c0 for", "{(ev + v0, es + s0): c for",
        ("tests/test_ring.py::test_sparse_products_stay_on_term_loop",),
    ),
    # the two-variable term jobs on the one-variable kernels
    Mutant(
        "exact-div-skips-s-window", "src/hopfly/ring.py",
        "if quo is None or any(i % k > room for i in quo):", "if quo is None:",
        ("tests/test_ring.py::test_wrapped_slot_quotient_is_not_a_quotient",),
    ),
    Mutant(
        "sparse-layout-stride-one-short", "src/hopfly/ring.py",
        "k = ta - sa + tb - sb + 1", "k = ta - sa + tb - sb",
        ("tests/test_ring.py::test_sparse_products_stay_on_term_loop",
         "tests/test_ring.py::test_packed_mul_matches_term_loop"),
    ),
    # the packed RingElem.over
    Mutant(
        "packed-over-skips-row-room-check", "src/hopfly/ring.py",
        "if top and any(", "if False and any(",
        ("tests/test_ring.py::test_quotient_rows_that_reach_the_next_row_raise",),
    ),
    Mutant(
        "packed-over-row-room-past-the-row", "src/hopfly/ring.py",
        "top = min(sum(downs), stride)", "top = sum(downs)",
        ("tests/test_ring.py::test_brackets_wider_than_a_row_raise",),
    ),
    Mutant(
        "packed-over-digit-bound-one-bit-loose", "src/hopfly/ring.py",
        "<< len(downs) < 1 << bits - 1:", "<< len(downs) < 1 << bits:",
        ("tests/test_ring.py::test_quotient_too_wide_for_its_slots_widens",
         "tests/test_ring.py::test_packed_over_matches_per_bracket_division"),
    ),
    Mutant(
        "packed-over-never-widens", "src/hopfly/ring.py",
        "if max(max(slots), -min(slots))", "if True or max(max(slots), -min(slots))",
        ("tests/test_ring.py::test_quotient_too_wide_for_its_slots_widens",
         "tests/test_ring.py::test_large_n_sl_values_widen"),
    ),
    # the sl(N) minor route
    Mutant(
        "hook-content-extra-s-squared", "src/hopfly/sln.py",
        "exponent = 2 * weight + n * mu.size", "exponent = 2 + 2 * weight + n * mu.size",
        HOOK_CONTENT_TESTS,
    ),
    Mutant(
        "hook-content-drops-q-to-n-mu", "src/hopfly/sln.py",
        "exponent = 2 * weight + n * mu.size", "exponent = n * mu.size",
        HOOK_CONTENT_TESTS,
    ),
    Mutant(
        "reference-minor-one-bracket-short", "src/hopfly/sln.py",
        "for _ in range(n - d)).num", "for _ in range(n - d - (d == n - 1))).num",
        ("tests/test_sln.py::TestBracketClosedForms::test_reference_minor_matches_product_form",
         "tests/test_sln.py::TestVandermondeMinor::test_reference_minor_is_vandermonde_product"),
    ),
    Mutant(
        "alternant-series-k-rising", "src/hopfly/sln.py",
        "for k in range(min(i + 1, degree), 0, -1):",
        "for k in range(1, min(i + 1, degree) + 1):",
        ("tests/test_sln.py::TestElementaryFactors::test_recurrence_equals_cauchy_products",),
    ),
    # identity checks made vacuous: each compares a route with itself
    Mutant(
        "symmetry-check-compares-a-pairing-with-itself", "src/hopfly/verify.py",
        "if _hopf_value(lam, mu) != _hopf_value(mu, lam):",
        "if _hopf_value(lam, mu) != _hopf_value(lam, mu):",
        ("tests/test_verify.py::test_symmetry_check_fails_on_one_asymmetric_pairing",),
    ),
    Mutant(
        "series-forms-check-compares-a-series-with-itself", "src/hopfly/verify.py",
        "if elementary_series(lam, degree) != elementary_series_by_rows(lam, degree):",
        "if elementary_series(lam, degree) != elementary_series(lam, degree):",
        ("tests/test_verify.py::test_series_forms_check_fails_on_one_faulty_row_product",),
    ),
)


def apply(mutant: Mutant, root: str) -> None:
    """Apply the mutant to the file under ``root``; the snippet must occur once."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'broken (...)' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="hopfly-mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        apply(mutant, tmp)
        # pyproject.toml puts the copy's src/ first on sys.path
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, capture_output=True, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"broken (pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]})"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}: {m.snippet!r} -> {m.replacement!r}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for m in chosen:
        t0 = time.monotonic()
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{outcome:>8}  {m.name}  ({time.monotonic() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
