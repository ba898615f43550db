from fractions import Fraction

import pytest

import hopfly.ring as ring
from hopfly.ring import LaurentPoly, RingElem, determinant
from hopfly.partitions import EMPTY, Partition, partitions_up_to
from hopfly.series import TruncatedSeries, h_form_is_smaller, required_degree, schur_of_series
from hopfly.hopf import elementary_series, hopf_invariant
import hopfly.sln as sln
# The minor of (q^(ij)) on rows index_set(mu), columns index_set(lam), as an
# N x N determinant by Bareiss: the oracle for the factorised minor.
from hopfly.verify import _literal_minor as literal_minor
from hopfly.sln import (
    hopf_sln_minor,
    hopf_sln_substitution,
    sl2_quantum_check,
    sln_elementary_factors,
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
        # the P(empty, empty) that hopf_sln_minor divides by
        for n in range(1, 9):
            reference, _ = sln._alternant_rows(EMPTY, n)
            assert reference == literal_minor(EMPTY, EMPTY, n)

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
                    delta, _ = sln._alternant_rows(mu, n)
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
        assert sub == hopf_invariant(one, one).value.substitute_v(2)

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
        factors = sln_elementary_factors(EMPTY, 3)
        exps = sorted(next(iter(f.num.items()))[0] for f in factors)
        assert exps == [-2, 0, 2]

    def test_three_one_exponents_match_index_set(self):
        factors = sln_elementary_factors(Partition((3, 1)), 3)
        exps = sorted(next(iter(f.num.items()))[0] for f in factors)
        assert exps == [-2, 2, 8]
        # reindexing t -> s^(N-1) t shifts each exponent by 2, landing on
        # q to the index-set powers
        assert [e + 2 for e in exps] == [0, 4, 10]
        assert sorted(2 * e for e in Partition((3, 1)).index_set(3)) == [0, 4, 10]

    def test_column_ratio(self):
        # ratio of the k-column factors to the empty ones is
        # (1 + s^{N+1} t)/(1 + s^{N-2k+1} t)
        n = 4
        for k in range(n + 1):
            col = sorted(
                next(iter(f.num.items()))[0]
                for f in sln_elementary_factors(Partition((1,) * k) if k else EMPTY, n)
            )
            base = sorted(
                next(iter(f.num.items()))[0] for f in sln_elementary_factors(EMPTY, n)
            )
            gained = set(col) - set(base)
            lost = set(base) - set(col)
            if k == 0:
                assert not gained and not lost
            else:
                assert gained == {n + 1} and lost == {n - 2 * k + 1}

    def test_product_reproduces_specialised_series(self):
        for lam in partitions_up_to(4):
            for n in range(max(lam.length, 1), 5):
                factors = sln_elementary_factors(lam, n)
                prod = TruncatedSeries.one(n, like=factors[0])
                for f in factors:
                    prod = prod.mul(TruncatedSeries.linear_factor(f, n))
                specialised = elementary_series(lam, n).map_coeffs(
                    lambda c: c.substitute_v(n)
                )
                assert prod == specialised

    def test_domain(self):
        with pytest.raises(ValueError):
            sln_elementary_factors(Partition((1, 1)), 1)
