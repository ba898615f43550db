"""Deterministic identity-verification suite over bounded partition ranges.

Each check exercises one exact identity the library is built on; together
they cross-validate the series route, the closed forms, the combinatorics
and both specialisation routes against each other.  All checks are pure and
deterministic, so repeated runs print identical reports.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from .ring import LaurentPoly, RingElem, _det_bareiss
from .partitions import (
    EMPTY,
    Partition,
    column_partition,
    hook_partition,
    partitions_up_to,
    pieri_column,
    row_partition,
)
from .series import TruncatedSeries, required_degree, schur_of_series
from .hopf import (
    _hopf_value,
    complete_series,
    content_polynomial,
    curl_identity_check,
    elementary_series,
    elementary_series_by_rows,
    eval_unknot,
    hook_factors,
    hopf_column_row_closed,
    times_factors,
)
from .sln import hopf_sln_minor, hopf_sln_substitution, sl2_quantum_check, vandermonde_minor


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _all_pairs(size: int) -> Iterable[tuple[Partition, Partition]]:
    ps = partitions_up_to(size)
    for lam in ps:
        for mu in ps:
            yield lam, mu


def check_hopf_symmetry(max_size: int = 5) -> CheckResult:
    bad = 0
    total = 0
    for lam, mu in _all_pairs(max_size):
        total += 1
        if _hopf_value(lam, mu) != _hopf_value(mu, lam):
            bad += 1
    return CheckResult(
        "pairing symmetry",
        bad == 0,
        f"{total} ordered pairs with |parts| <= {max_size}, {bad} asymmetric",
    )


def check_column_row_closed_form(max_index: int = 6) -> CheckResult:
    bad = []
    for i in range(max_index + 1):
        for j in range(max_index + 1):
            closed = hopf_column_row_closed(i, j)
            direct = _hopf_value(column_partition(i), row_partition(j))
            if closed != direct:
                bad.append((i, j))
    return CheckResult(
        "column/row closed form",
        not bad,
        f"i, j <= {max_index}, mismatches: {bad or 'none'}",
    )


def check_series_inverse_pair(max_size: int = 6, degree: int = 10) -> CheckResult:
    one = TruncatedSeries.one(degree)
    bad = []
    for lam in partitions_up_to(max_size):
        e = elementary_series(lam, degree)
        # uncached: no pairing reads H_lam this far, so the memo would only grow
        h = complete_series.__wrapped__(lam, degree)
        if e.mul(h.negate_t()) != one:
            bad.append(lam)
    return CheckResult(
        "column and row series are mutually inverse",
        not bad,
        f"|parts| <= {max_size} at degree {degree}, failures: {bad or 'none'}",
    )


def check_series_product_forms(max_size: int = 6, degree: int = 10) -> CheckResult:
    bad = []
    for lam in partitions_up_to(max_size):
        if elementary_series(lam, degree) != elementary_series_by_rows(lam, degree):
            bad.append(lam)
    return CheckResult(
        "diagonal-hook series product equals row-by-row product",
        not bad,
        f"|parts| <= {max_size} at degree {degree}, failures: {bad or 'none'}",
    )


def check_unknot_recursions(max_index: int = 8) -> CheckResult:
    bad = []
    delta_num = LaurentPoly({(-1, 0): 1, (1, 0): -1})
    for r in range(max_index):
        step = RingElem(LaurentPoly({(-1, -r): 1, (1, r): -1}), (r + 1,))
        if eval_unknot(column_partition(r + 1)) != step * eval_unknot(column_partition(r)):
            bad.append(("column", r + 1))
        step = RingElem(LaurentPoly({(-1, r): 1, (1, -r): -1}), (r + 1,))
        if eval_unknot(row_partition(r + 1)) != step * eval_unknot(row_partition(r)):
            bad.append(("row", r + 1))
    for i in range(1, max_index + 1):
        for j in range(1, max_index + 1):
            lhs = (
                eval_unknot(hook_partition(i, j))
                * RingElem(delta_num)
                * RingElem(LaurentPoly.quantum_bracket(i + j - 1))
            )
            rhs = (
                RingElem(LaurentPoly.quantum_bracket(j))
                * RingElem(LaurentPoly.quantum_bracket(i))
                * eval_unknot(column_partition(i))
                * eval_unknot(row_partition(j))
            )
            if lhs != rhs:
                bad.append(("hook", i, j))
    return CheckResult(
        "unknot evaluation recursions",
        not bad,
        f"indices <= {max_index}, failures: {bad or 'none'}",
    )


def check_curl_identity(max_index: int = 5) -> CheckResult:
    bad = [
        (i, j)
        for i in range(1, max_index + 1)
        for j in range(1, max_index + 1)
        if not curl_identity_check(i, j)
    ]
    return CheckResult(
        "doubled-curl identity",
        not bad,
        f"i, j <= {max_index}, failures: {bad or 'none'}",
    )


def check_multiplicativity(max_size: int = 4, max_strip: int = 3) -> CheckResult:
    bad = []
    for lam in partitions_up_to(max_size):
        unknot = eval_unknot(lam)
        for i in range(max_strip + 1):
            for j in range(max_strip + 1):
                lhs = _hopf_value(lam, column_partition(i)) * _hopf_value(
                    lam, column_partition(j)
                )
                total = RingElem(LaurentPoly.zero())
                for nu in pieri_column(column_partition(i), j):
                    total = total + _hopf_value(lam, nu)
                if lhs != unknot * total:
                    bad.append((lam, i, j))
    return CheckResult(
        "pairing is multiplicative over column products",
        not bad,
        f"|parts| <= {max_size}, strips <= {max_strip}, failures: {bad or 'none'}",
    )


def check_content_polynomial_ratio(max_size: int = 6, degree: int = 8) -> CheckResult:
    bad = []
    up = RingElem(LaurentPoly.monomial(1, -1, 1))
    down = RingElem(LaurentPoly.monomial(1, -1, -1))
    for lam in partitions_up_to(max_size):
        ratio = content_polynomial(lam, up, degree).mul(
            content_polynomial(lam, down, degree).invert()
        )
        factors = times_factors(TruncatedSeries.one(degree), hook_factors(lam))
        if ratio != factors:
            bad.append(lam)
    return CheckResult(
        "content-polynomial ratio matches diagonal-hook factors",
        not bad,
        f"|parts| <= {max_size} at degree {degree}, failures: {bad or 'none'}",
    )


def check_specialisation_routes(max_size: int = 4, max_n: int = 4) -> CheckResult:
    bad = []
    total = 0
    for lam, mu in _all_pairs(max_size):
        low = max(lam.length, mu.length, 1)
        for n in range(low, max_n + 1):
            total += 1
            sub = hopf_sln_substitution(lam, mu, n)
            minor = hopf_sln_minor(lam, mu, n)
            if sub.value != minor.value:
                bad.append((lam, mu, n))
    return CheckResult(
        "substitution route equals minor route",
        not bad,
        f"{total} triples with |parts| <= {max_size}, N <= {max_n}, failures: {bad or 'none'}",
    )


def check_specialisation_vanishing(max_size: int = 5, max_n: int = 3) -> CheckResult:
    bad = []
    for lam, mu in _all_pairs(max_size):
        for n in range(1, max_n + 1):
            value = hopf_sln_substitution(lam, mu, n).value
            expect_zero = lam.length > n or mu.length > n
            if value.is_zero() != expect_zero:
                bad.append((lam, mu, n))
    return CheckResult(
        "specialisation vanishes exactly above N parts",
        not bad,
        f"|parts| <= {max_size}, N <= {max_n}, failures: {bad or 'none'}",
    )


def check_minor_symmetry(max_size: int = 4, max_n: int = 4) -> CheckResult:
    """P(lam, mu) = P(mu, lam): the Vandermonde matrix is symmetric.

    With P(lam, mu) = P(empty, empty) * s_mu(1, q, ..., q**(N-1)) * s_lam(q**a)
    this is the identity s_mu(1, ..., q**(N-1)) * s_lam(q**a) =
    s_lam(1, ..., q**(N-1)) * s_mu(q**b), for a = index_set(mu, N) and
    b = index_set(lam, N): two different hook-content products times two
    different Jacobi-Trudy determinants on two different series.
    """
    bad = []
    for lam, mu in _all_pairs(max_size):
        for n in range(max(lam.length, mu.length, 1), max_n + 1):
            if vandermonde_minor(lam, mu, n) != vandermonde_minor(mu, lam, n):
                bad.append((lam, mu, n))
    return CheckResult(
        "Vandermonde minors are symmetric",
        not bad,
        f"|parts| <= {max_size}, N <= {max_n}, failures: {bad or 'none'}",
    )


def _literal_minor(lam: Partition, mu: Partition, n: int) -> LaurentPoly:
    """The minor of (q**(i*j)) on rows index_set(mu, n) and columns
    index_set(lam, n), as an N x N determinant by Bareiss elimination, which
    no library value goes through, so it is independent of ``determinant``."""
    return _det_bareiss([
        [LaurentPoly.monomial(1, s=2 * i * j, nvars=1) for j in lam.index_set(n)]
        for i in mu.index_set(n)
    ])


def check_minor_bialternant(max_size: int = 4, max_n: int = 4) -> CheckResult:
    """The product P(empty, empty) * s_mu(1, q, ..., q**(N-1)) * s_lam(q**a)
    that ``vandermonde_minor`` computes equals the literal N x N determinant.

    Its last two factors are the quotient that the sl(N) minor route scales
    and prints.  The factorised side takes one Jacobi-Trudy determinant by
    memoised minor expansion, the library's only determinant algorithm; the
    literal side is computed by fraction-free Bareiss elimination, used
    nowhere else.
    """
    bad = []
    for lam, mu in _all_pairs(max_size):
        for n in range(max(lam.length, mu.length, 1), max_n + 1):
            if vandermonde_minor(lam, mu, n) != _literal_minor(lam, mu, n):
                bad.append((lam, mu, n))
    return CheckResult(
        "bialternant consistency of minors",
        not bad,
        f"|parts| <= {max_size}, N <= {max_n}, failures: {bad or 'none'}",
    )


def check_sl2_structure(max_ab: int = 4, max_ij: int = 2) -> CheckResult:
    bad = []
    for a in range(1, max_ab + 1):
        for b in range(1, max_ab + 1):
            for i in range(max_ij + 1):
                for j in range(max_ij + 1):
                    if not sl2_quantum_check(a, b, i, j):
                        bad.append((a, b, i, j))
    return CheckResult(
        "sl(2) quantum-integer structure",
        not bad,
        f"a, b <= {max_ab}, i, j <= {max_ij}, failures: {bad or 'none'}",
    )


def check_schur_homogeneity(max_size: int = 4, degree: int = 6) -> CheckResult:
    base = elementary_series(Partition((2, 1)), degree)
    alphas = [
        RingElem(LaurentPoly.monomial(3, 1, -2)),
        RingElem(LaurentPoly({(0, 0): 1, (1, 1): 2})),
    ]
    bad = []
    for lam in partitions_up_to(max_size):
        if lam.size == 0 or required_degree(lam) > degree:
            continue
        plain = schur_of_series(lam, base)
        for alpha in alphas:
            scaled = schur_of_series(lam, base.scale_t(alpha))
            if scaled != alpha ** lam.size * plain:
                bad.append(lam)
    return CheckResult(
        "Schur extraction is homogeneous under rescaling t",
        not bad,
        f"|parts| <= {max_size}, failures: {bad or 'none'}",
    )


def check_schur_naturality(max_size: int = 5, ns: tuple[int, ...] = (2, 3, 4)) -> CheckResult:
    bad = []
    source = elementary_series(Partition((2, 1)), max_size * 2)
    for lam in partitions_up_to(max_size):
        if lam.size == 0 or required_degree(lam) > source.degree:
            continue
        value = schur_of_series(lam, source)
        for n in ns:
            direct = value.substitute_v(n)
            mapped = schur_of_series(lam, source.map_coeffs(lambda c: c.substitute_v(n)))
            if direct != mapped:
                bad.append((lam, n))
    return CheckResult(
        "Schur extraction commutes with specialisation",
        not bad,
        f"|parts| <= {max_size}, N in {ns}, failures: {bad or 'none'}",
    )


def check_index_set_identity(max_size: int = 8, extra_n: int = 2) -> CheckResult:
    bad = []
    for lam in partitions_up_to(max_size):
        arms, legs = lam.frobenius()
        for n in range(max(lam.length, 1), lam.length + extra_n + 1):
            base = set(EMPTY.index_set(n))
            target = set(lam.index_set(n))
            gained = {n + a for a in arms}
            lost = {n - b - 1 for b in legs}
            if gained & lost:
                bad.append((lam, n, "collision"))
            elif (base | gained) - lost != target:
                bad.append((lam, n, "set identity"))
    return CheckResult(
        "index sets obey the diagonal add/remove identity",
        not bad,
        f"|parts| <= {max_size}, failures: {bad or 'none'}",
    )


ALL_CHECKS: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("symmetry", check_hopf_symmetry),
    ("closed-form", check_column_row_closed_form),
    ("series-inverse", check_series_inverse_pair),
    ("series-products", check_series_product_forms),
    ("recursions", check_unknot_recursions),
    ("curl", check_curl_identity),
    ("multiplicativity", check_multiplicativity),
    ("content-ratio", check_content_polynomial_ratio),
    ("routes", check_specialisation_routes),
    ("vanishing", check_specialisation_vanishing),
    ("minor-symmetry", check_minor_symmetry),
    ("bialternant", check_minor_bialternant),
    ("sl2", check_sl2_structure),
    ("homogeneity", check_schur_homogeneity),
    ("naturality", check_schur_naturality),
    ("index-sets", check_index_set_identity),
)


def run_all(max_size: int = 5, max_n: int = 4, degree: int = 10) -> list[CheckResult]:
    """Run every check with bounds tied to the given limits.

    max_size >= 1, max_n >= 2 and degree >= 1 are required: below them some
    checks would compare nothing and still report a pass.
    """
    if max_size < 1 or max_n < 2 or degree < 1:
        raise ValueError(f"verify needs max_size >= 1, max_n >= 2 and degree >= 1, "
                         f"got {max_size}, {max_n} and {degree}")
    small = min(max_size, 4)
    return [
        check_hopf_symmetry(max_size),
        check_column_row_closed_form(6),
        check_series_inverse_pair(max_size + 1, degree),
        check_series_product_forms(max_size + 1, degree),
        check_unknot_recursions(8),
        check_curl_identity(5),
        check_multiplicativity(small, 3),
        check_content_polynomial_ratio(max_size + 1, min(degree, 8)),
        check_specialisation_routes(small, max_n),
        check_specialisation_vanishing(max_size, 3),
        check_minor_symmetry(small, max_n),
        check_minor_bialternant(small, max_n),
        check_sl2_structure(4, 2),
        check_schur_homogeneity(small, 6),
        check_schur_naturality(max_size, tuple(range(2, max_n + 1))),
        check_index_set_identity(8),
    ]
