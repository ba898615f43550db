import math
from fractions import Fraction

import pytest

import hopfly.ring as ring
from hopfly.ring import ConsistencyError, LaurentPoly, RingElem, determinant
from hopfly.partitions import EMPTY, Partition, partitions_up_to
from hopfly.series import TruncatedSeries, h_form_is_smaller, required_degree, schur_of_series
from hopfly.hopf import elementary_series, hopf_invariant
import hopfly.sln as sln
# The minor of (q^(ij)) on rows index_set(mu), columns index_set(lam), as an
# N x N determinant by Bareiss: the oracle for the factorised minor.
from hopfly.verify import _literal_minor as literal_minor
from hopfly.sln import (
    _elementary_series,
    _hook_content,
    _index_exponents,
    _reference_minor,
    hopf_sln_minor,
    hopf_sln_substitution,
    sl2_quantum_check,
    vandermonde_minor,
)

def qp(d):
    """Laurent polynomial in q = s^2 from a q-exponent -> coeff dict."""
    return LaurentPoly({2 * e: c for e, c in d.items()}, nvars=1)


class TestVandermondeMinor:
    def test_golden_three_one_vs_two_two(self):
        got = vandermonde_minor(Partition((3, 1)), Partition((2, 2)), 3)
        assert got == qp({26: 1, 23: -1, 20: -1, 15: 1, 8: 1, 6: -1})

    def test_empty_empty_small(self):
        # 2x2 minor on {1,0} x {1,0}: det [[q,1],[1,1]] = q - 1
        assert vandermonde_minor(EMPTY, EMPTY, 2) == qp({1: 1, 0: -1})
        # N=3 reference minor (q-1)(q^2-1)(q^2-q)
        expected = qp({1: 1, 0: -1}) * qp({2: 1, 0: -1}) * qp({2: 1, 1: -1})
        assert vandermonde_minor(EMPTY, EMPTY, 3) == expected

    def test_symmetry(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                n = max(lam.length, mu.length, 2)
                assert vandermonde_minor(lam, mu, n) == vandermonde_minor(mu, lam, n)

    def test_symmetry_at_n_30(self):
        lam, mu = Partition((4, 3, 2, 1)), Partition((3, 3))
        assert vandermonde_minor(lam, mu, 30) == vandermonde_minor(mu, lam, 30)

    def test_domain(self):
        with pytest.raises(ValueError):
            vandermonde_minor(Partition((1, 1, 1)), EMPTY, 2)

    def test_equals_literal_determinant(self):
        triples = 0
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                for n in range(max(lam.length, mu.length, 1), 7):
                    triples += 1
                    assert vandermonde_minor(lam, mu, n) == literal_minor(lam, mu, n), (lam, mu, n)
        assert triples == 659

    def test_reference_minor_is_vandermonde_product(self):
        # P(empty, empty), the denominator of the minor quotient
        for n in range(1, 9):
            assert _reference_minor(n) == literal_minor(EMPTY, EMPTY, n)

    def test_unchosen_orientation_equals_literal_determinant(self):
        # Delta(x) * s_lam(x) in the Jacobi-Trudy form vandermonde_minor skips:
        # the e-form on prod (1 + x_i t) where it takes the h-form, and the
        # reverse, so both orientations meet the literal oracle.
        triples = 0
        for lam in partitions_up_to(4):
            degree = required_degree(lam)
            for mu in partitions_up_to(4):
                for n in range(max(lam.length, mu.length, 1), 7):
                    triples += 1
                    e = TruncatedSeries.one(degree, like=RingElem(LaurentPoly.one(1)))
                    for a in mu.index_set(n):
                        x = RingElem(LaurentPoly.monomial(1, s=2 * a, nvars=1))
                        e = e.mul(TruncatedSeries.linear_factor(x, degree))
                    if h_form_is_smaller(lam):
                        schur = schur_of_series(lam, e)
                    else:
                        schur = schur_of_series(lam.conjugate(), e.negate_t().invert())
                    delta = _reference_minor(n) * _hook_content(mu, n)
                    assert delta * schur.num == literal_minor(lam, mu, n), (lam, mu, n)
        assert triples == 659

    def test_long_row_builds_order_one(self, monkeypatch):
        orders = []

        def recording(matrix):
            orders.append(len(matrix))
            return determinant(matrix)

        def no_bareiss(matrix):
            raise AssertionError(f"Bareiss on an order-{len(matrix)} matrix")

        monkeypatch.setattr(ring, "determinant", recording)
        monkeypatch.setattr(ring, "_det_bareiss", no_bareiss)
        row = Partition((20,))
        minor = vandermonde_minor(row, EMPTY, 20)
        assert orders == [1]
        assert minor == vandermonde_minor(EMPTY, row, 20)

    def test_no_determinant_above_lambda_one(self, monkeypatch):
        orders = []

        def recording(matrix):
            orders.append(len(matrix))
            return determinant(matrix)

        monkeypatch.setattr(ring, "determinant", recording)
        monkeypatch.setattr(sln, "determinant", recording, raising=False)
        staircase = Partition((3, 2, 1))
        vandermonde_minor(staircase, staircase, 20)
        hopf_sln_minor(staircase, staircase, 20)
        assert orders and max(orders) <= staircase.parts[0]


class TestSpecialisationRoutes:
    def test_golden_sl3(self):
        expected = RingElem(
            qp({2: 1, 1: 1, 0: 1})
            * qp({8: 1, 4: 1, 3: 1, 2: -1, 0: 1})
            * qp({2: 1, 0: 1})
            * qp({4: 1, 3: 1, 2: 1, 1: 1, 0: 1})
            * LaurentPoly.monomial(1, s=-6, nvars=1)
        )
        sub = hopf_sln_substitution(Partition((3, 1)), Partition((2, 2)), 3)
        minor = hopf_sln_minor(Partition((3, 1)), Partition((2, 2)), 3)
        assert sub.value == expected
        assert minor.value == expected

    def test_empty_pair_is_one(self):
        for n in (1, 2, 3, 4):
            assert hopf_sln_minor(EMPTY, EMPTY, n).value == 1
            assert hopf_sln_substitution(EMPTY, EMPTY, n).value == 1

    def test_single_boxes_cross_route(self):
        one = Partition((1,))
        sub = hopf_sln_substitution(one, one, 2).value
        minor = hopf_sln_minor(one, one, 2).value
        assert sub == minor
        # and against the direct substitution of the 2-variable value
        assert sub == hopf_invariant(one, one).substitute_v(2)

    def test_vanishing_above_n_parts(self):
        assert hopf_sln_substitution(Partition((3, 1)), Partition((2, 2)), 1).value.is_zero()
        assert hopf_sln_substitution(Partition((1, 1, 1)), Partition((1,)), 2).value.is_zero()
        assert not hopf_sln_substitution(Partition((2, 2)), Partition((2,)), 2).value.is_zero()

    def test_route_agreement_sweep(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for n in range(max(lam.length, mu.length, 1), 4):
                    assert (
                        hopf_sln_substitution(lam, mu, n).value
                        == hopf_sln_minor(lam, mu, n).value
                    )

    def test_substitution_values_are_laurent_polynomials(self):
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                for n in range(1, 6):
                    assert hopf_sln_substitution(lam, mu, n).value.den == (), (lam, mu, n)

    def test_correction_exponent_field(self):
        res = hopf_sln_minor(Partition((3, 1)), Partition((2, 2)), 3)
        assert res.correction_exponent == Fraction(-2 * 4 * 4, 3)
        assert "s^" in res.corrected_note


class TestSl2Structure:
    def test_trivial_hooks(self):
        check = sl2_quantum_check(1, 1, 1, 1)
        assert check and check.s_exponent is not None

    def test_row_pair(self):
        # a = b = 2, i = j = 0: ratio to (q^4-1)/(q-1) is a monomial
        check = sl2_quantum_check(2, 2, 0, 0)
        assert check
        assert check.s_exponent is not None

    def test_mixed_example(self):
        assert sl2_quantum_check(3, 2, 1, 2)

    def test_odd_parity_gives_half_integral_exponent(self):
        # a=2, b=1, i=j=0 pairs the empty diagram with a single box:
        # value s + s^-1 = (q^2-1)/(q-1) * s^-1.
        check = sl2_quantum_check(2, 1, 0, 0)
        assert check
        assert check.s_exponent == -1

    def test_domain(self):
        with pytest.raises(ValueError):
            sl2_quantum_check(0, 1, 0, 0)


class TestElementaryFactors:
    def test_empty_exponents(self):
        assert sorted(_index_exponents(EMPTY, 3)) == [0, 2, 4]

    def test_three_one_exponents_match_index_set(self):
        exps = sorted(_index_exponents(Partition((3, 1)), 3))
        assert exps == [0, 4, 10]
        assert exps == sorted(2 * e for e in Partition((3, 1)).index_set(3))

    def test_column_ratio(self):
        # the k-column exponents trade q^(N-k) of the empty ones for q^N
        n = 4
        base = set(_index_exponents(EMPTY, n))
        for k in range(n + 1):
            col = set(_index_exponents(Partition((1,) * k) if k else EMPTY, n))
            gained = col - base
            lost = base - col
            if k == 0:
                assert not gained and not lost
            else:
                assert gained == {2 * n} and lost == {2 * n - 2 * k}

    def test_product_reproduces_specialised_series(self):
        # prod_j (1 + s^(2 a_j - (N-1)) t) is the column series of lam at v = s^-N
        for lam in partitions_up_to(4):
            for n in range(max(lam.length, 1), 5):
                prod = TruncatedSeries.one(n, like=RingElem(LaurentPoly.one(1)))
                for e in _index_exponents(lam, n):
                    x = RingElem(LaurentPoly.monomial(1, s=e - (n - 1), nvars=1))
                    prod = prod.mul(TruncatedSeries.linear_factor(x, n))
                specialised = elementary_series(lam, n).map_coeffs(
                    lambda c: c.substitute_v(n)
                )
                assert prod == specialised

    def test_recurrence_equals_cauchy_products(self):
        # the one-pass recurrence, also past t^N where its coefficients are zero
        for mu in partitions_up_to(4):
            for n in range(max(mu.length, 1), 6):
                exponents = _index_exponents(mu, n)
                for degree in (0, 1, n, n + 3):
                    prod = TruncatedSeries.one(degree, like=RingElem(LaurentPoly.one(1)))
                    for e in exponents:
                        x = RingElem(LaurentPoly.monomial(1, s=e, nvars=1))
                        prod = prod.mul(TruncatedSeries.linear_factor(x, degree))
                    assert _elementary_series(exponents, degree) == prod, (mu, n, degree)

    def test_domain(self):
        with pytest.raises(ValueError):
            _index_exponents(Partition((1, 1)), 1)


class TestHookContentRoute:
    def test_hook_content_is_literal_minor_quotient(self):
        # s_mu(1, q, ..., q^(N-1)) = P(empty, mu) / P(empty, empty)
        pairs = 0
        for mu in partitions_up_to(5):
            for n in range(max(mu.length, 1), 8):
                pairs += 1
                reference = literal_minor(EMPTY, EMPTY, n)
                assert _hook_content(mu, n) * reference == literal_minor(EMPTY, mu, n), (mu, n)
        assert pairs == 109

    def test_minor_route_is_literal_minor_quotient(self):
        # the paper's statement: s^((1-N)(|lam|+|mu|)) P(lam, mu) / P(empty, empty)
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                for n in range(max(lam.length, mu.length, 1), 6):
                    shift = LaurentPoly.monomial(1, s=(1 - n) * (lam.size + mu.size), nvars=1)
                    quo = (shift * literal_minor(lam, mu, n)).exact_div(
                        literal_minor(EMPTY, EMPTY, n)
                    )
                    assert quo is not None
                    assert hopf_sln_minor(lam, mu, n).value == RingElem(quo), (lam, mu, n)

    @pytest.mark.parametrize("lam, mu", [
        ((3, 2, 1), (3, 2, 1)),
        ((4, 2), (2, 2, 1, 1)),
        ((6,), (1,) * 6),
    ])
    def test_agrees_with_substitution_at_n_40(self, lam, mu):
        lam, mu = Partition(lam), Partition(mu)
        assert hopf_sln_minor(lam, mu, 40).value == hopf_sln_substitution(lam, mu, 40).value

    def test_builds_no_minor(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"minor route built a Vandermonde minor: {args}")

        monkeypatch.setattr(sln, "vandermonde_minor", refuse)
        monkeypatch.setattr(sln, "_reference_minor", refuse)
        for lam, mu in [((3, 1), (2, 2)), ((3, 2, 1), (3, 2, 1)), ((), (4,))]:
            hopf_sln_minor(Partition(lam), Partition(mu), 5)

    def test_domain(self):
        with pytest.raises(ValueError):
            hopf_sln_minor(Partition((1, 1, 1)), EMPTY, 2)
        with pytest.raises(ValueError):
            hopf_sln_minor(EMPTY, Partition((1, 1, 1)), 2)

    def test_inexact_quotient_is_an_internal_error(self, monkeypatch):
        # Lift the numerator by one missing bracket too few: for mu = (2, 1)
        # at n = 3 the excess hook brackets [1][1] must then divide [4]
        # alone, which has the factor s - 1 only once, so the packed
        # division leaves a remainder.
        real = ring._over_packed
        raised = []

        def short(terms, nvars, missing, excess, den):
            try:
                return real(terms, nvars, sorted(missing)[1:], excess, den)
            except ConsistencyError:
                raised.append(list(excess))
                raise

        sln._hook_content.cache_clear()
        monkeypatch.setattr(ring, "_over_packed", short)
        try:
            with pytest.raises(ConsistencyError):
                hopf_sln_minor(Partition((1,)), Partition((2, 1)), 3)
        finally:
            sln._hook_content.cache_clear()
        assert raised == [[1, 1]]


def product_hook_content(mu, n):
    """q**n(mu) * prod_cells (q**(n+c) - 1) / (q**h - 1) as two products of
    (q**k - 1) factors and one exact division."""
    numer = denom = LaurentPoly.one(1)
    for c in mu.contents():
        numer = numer * qp({n + c: 1, 0: -1})
    for h in mu.hooks():
        denom = denom * qp({h: 1, 0: -1})
    weight = sum((i - 1) * p for i, p in enumerate(mu.parts, start=1))
    return numer.exact_div(denom) * qp({weight: 1})


def product_reference_minor(n):
    """q**C(n,3) * prod_{d<n} (q**d - 1)**(n-d) as a product of powers."""
    value = qp({math.comb(n, 3): 1})
    for d in range(1, n):
        value = value * qp({d: 1, 0: -1}) ** (n - d)
    return value


class TestBracketClosedForms:
    """The closed forms written over brackets by RingElem.over, against their
    products of (q**k - 1) factors, past the range of the literal minors."""

    def test_hook_content_matches_product_form(self):
        pairs = 0
        for mu in partitions_up_to(7):
            for n in range(max(mu.length, 1), 16):
                pairs += 1
                assert _hook_content(mu, n) == product_hook_content(mu, n), (mu, n)
        assert pairs == 588

    def test_reference_minor_matches_product_form(self):
        for n in range(1, 25):
            assert _reference_minor(n) == product_reference_minor(n), n
