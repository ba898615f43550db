"""Acceptance gate: every criterion below runs at its stated bound and
prints one pass/fail line."""

import time

from hopfly.ring import LaurentPoly, RingElem
from hopfly.partitions import Partition
from hopfly.hopf import (
    _hopf_value,
    elementary_series,
    elementary_series_empty,
    eval_unknot,
    hopf_invariant,
)
from hopfly.sln import hopf_sln_minor, hopf_sln_substitution, vandermonde_minor
from hopfly import verify

P2 = LaurentPoly


def report(number, ok, description):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, description


def vq(ev, d):
    """Two-variable polynomial v^ev * sum c q^e, with q = s^2."""
    return P2({(ev, 2 * e): c for e, c in d.items()})


def qp(d):
    return LaurentPoly({2 * e: c for e, c in d.items()}, nvars=1)


def test_criterion_1_golden_two_variable():
    # Fresh caches so the timing bound is honest.
    _hopf_value.cache_clear()
    elementary_series.cache_clear()
    elementary_series_empty.cache_clear()
    eval_unknot.cache_clear()

    start = time.perf_counter()
    value = hopf_invariant(Partition((3, 1)), Partition((2, 2)))
    elapsed = time.perf_counter() - start

    core = (
        vq(0, {14: -1, 13: 1, 12: 1, 11: -1, 10: -1, 9: -1, 8: 2, 7: 1, 6: -1,
               4: -2, 2: 2, 0: -1})
        + vq(2, {13: 1, 10: -1, 9: -1, 8: 2, 7: 1, 6: 1, 4: -2, 2: 1, 1: 1})
        + vq(4, {10: -1, 9: -1, 8: 1, 4: -1, 3: -1})
        + vq(6, {6: 1})
    )
    v2 = P2.monomial(1, 2, 0)
    q = P2.monomial(1, 0, 2)
    one = P2.one()
    prefactor_num = (
        P2.monomial(1, -8, 0)
        * (v2 - one) ** 2
        * (v2 - q)
        * (v2 - q ** 2)
        * (v2 * q - one)
    )
    qk = lambda k: P2.monomial(1, 0, 2 * k) - one
    prefactor_den = qk(1) ** 3 * qk(2) ** 3 * qk(3) * qk(4)

    matches = value.num * prefactor_den == prefactor_num * core * value.den_poly()
    report(1, matches and elapsed < 1.0,
           f"pairing of (3,1) with (2,2) matches the displayed value in {elapsed:.3f}s")


def test_criterion_2_golden_sl3():
    expected = RingElem(
        qp({2: 1, 1: 1, 0: 1})
        * qp({8: 1, 4: 1, 3: 1, 2: -1, 0: 1})
        * qp({2: 1, 0: 1})
        * qp({4: 1, 3: 1, 2: 1, 1: 1, 0: 1})
        * LaurentPoly.monomial(1, s=-6, nvars=1)
    )
    sub = hopf_sln_substitution(Partition((3, 1)), Partition((2, 2)), 3).value
    minor = hopf_sln_minor(Partition((3, 1)), Partition((2, 2)), 3).value
    report(2, sub == expected and minor == expected,
           "both sl(3) routes equal the displayed product over q^3")


def test_criterion_3_golden_minor():
    got = vandermonde_minor(Partition((3, 1)), Partition((2, 2)), 3)
    expected = qp({26: 1, 23: -1, 20: -1, 15: 1, 8: 1, 6: -1})
    report(3, got == expected, "3x3 Vandermonde minor matches q^26-q^23-q^20+q^15+q^8-q^6")


def test_criterion_4_symmetry_suite():
    start = time.perf_counter()
    result = verify.check_hopf_symmetry(max_size=5)
    elapsed = time.perf_counter() - start
    report(4, result.passed and elapsed < 300,
           f"{result.detail} in {elapsed:.1f}s (bound 300s)")


def test_criterion_5_closed_form_suite():
    result = verify.check_column_row_closed_form(max_index=6)
    report(5, result.passed, result.detail)


def test_criterion_6_series_identities():
    inverse = verify.check_series_inverse_pair(max_size=6, degree=10)
    products = verify.check_series_product_forms(max_size=6, degree=10)
    report(6, inverse.passed and products.passed,
           f"{inverse.detail}; {products.detail}")


def test_criterion_7_specialisation_consistency():
    routes = verify.check_specialisation_routes(max_size=4, max_n=4)
    vanishing = verify.check_specialisation_vanishing(max_size=5, max_n=3)
    report(7, routes.passed and vanishing.passed,
           f"{routes.detail}; {vanishing.detail}")


def test_criterion_8_sl2_structure():
    result = verify.check_sl2_structure(max_ab=4, max_ij=2)
    report(8, result.passed, result.detail)


def test_criterion_9_curl_identity():
    result = verify.check_curl_identity(max_index=5)
    report(9, result.passed, result.detail)


def test_criterion_10_content_polynomial():
    result = verify.check_content_polynomial_ratio(max_size=6, degree=8)
    report(10, result.passed, result.detail)
