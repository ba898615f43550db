import pytest

import hopfly.hopf as hopf
import hopfly.ring as ring
from hopfly.ring import LaurentPoly, RingElem
from hopfly.partitions import (
    EMPTY,
    Partition,
    column_partition,
    hook_partition,
    partitions_up_to,
    pieri_column,
    row_partition,
)
from hopfly.series import TruncatedSeries, schur_of_series
from hopfly.hopf import (
    complete_series,
    content_polynomial,
    curl_identity_check,
    elementary_series,
    elementary_series_by_rows,
    elementary_series_empty,
    eval_unknot,
    framing_factor,
    hopf_column_row_closed,
    hopf_invariant,
    required_degree,
)

P2 = LaurentPoly


def elem(terms, den=()):
    return RingElem(P2(terms), den)


DELTA = elem({(-1, 0): 1, (1, 0): -1}, (1,))
ONE = RingElem(P2.one())


def sigma(x):
    """The ring involution s -> -s**-1, v fixed.  It sends v**a s**b to
    (-1)**b v**a s**-b and the bracket [k] to (-1)**(k+1) [k]."""
    sign = (-1) ** sum(k + 1 for k in x.den)
    num = P2({(ev, -es): -sign * c if es % 2 else sign * c
              for (ev, es), c in x.num.items()})
    return RingElem(num, x.den)


class TestUnknot:
    def test_empty_is_one(self):
        assert eval_unknot(EMPTY) == 1

    def test_single_cell_is_delta(self):
        assert eval_unknot(Partition((1,))) == DELTA

    def test_three_one_displayed_value(self):
        # (v^-1-v)(v^-1 s - v s^-1)(v^-1 s^2 - v s^-2)(v^-1 s^-1 - v s)
        # over (s-s^-1)^2 (s^2-s^-2)(s^4-s^-4)
        num = (
            P2({(-1, 0): 1, (1, 0): -1})
            * P2({(-1, 1): 1, (1, -1): -1})
            * P2({(-1, 2): 1, (1, -2): -1})
            * P2({(-1, -1): 1, (1, 1): -1})
        )
        assert eval_unknot(Partition((3, 1))) == RingElem(num, (1, 1, 2, 4))

    def test_column_recursion(self):
        for r in range(8):
            step = elem({(-1, -r): 1, (1, r): -1}, (r + 1,))
            assert eval_unknot(column_partition(r + 1)) == step * eval_unknot(column_partition(r))

    def test_row_recursion(self):
        for r in range(8):
            step = elem({(-1, r): 1, (1, -r): -1}, (r + 1,))
            assert eval_unknot(row_partition(r + 1)) == step * eval_unknot(row_partition(r))

    def test_hook_recursion(self):
        # unknot(hook) * (v^-1 - v)(s^{i+j-1} - s^{-(i+j-1)})
        #   = (s^j - s^-j)(s^i - s^-i) unknot(col) unknot(row)
        for i in range(1, 6):
            for j in range(1, 6):
                lhs = (
                    eval_unknot(hook_partition(i, j))
                    * elem({(-1, 0): 1, (1, 0): -1})
                    * RingElem(P2.quantum_bracket(i + j - 1))
                )
                rhs = (
                    RingElem(P2.quantum_bracket(i))
                    * RingElem(P2.quantum_bracket(j))
                    * eval_unknot(column_partition(i))
                    * eval_unknot(row_partition(j))
                )
                assert lhs == rhs


class TestFramingFactor:
    def test_column(self):
        for i in range(7):
            assert framing_factor(column_partition(i)) == elem({(-i, -i * (i - 1)): 1})

    def test_row(self):
        for j in range(7):
            assert framing_factor(row_partition(j)) == elem({(-j, j * (j - 1)): 1})

    def test_empty(self):
        assert framing_factor(EMPTY) == 1

    def test_hook_product_rule(self):
        # f(hook(i,j)) = v * f(col_i) * f(row_j)
        v = elem({(1, 0): 1})
        for i in range(1, 6):
            for j in range(1, 6):
                assert framing_factor(hook_partition(i, j)) == v * framing_factor(
                    column_partition(i)
                ) * framing_factor(row_partition(j))

    def test_one_step_shifts(self):
        for i in range(6):
            assert framing_factor(column_partition(i + 1)) == elem(
                {(-1, -2 * i): 1}
            ) * framing_factor(column_partition(i))
            assert framing_factor(row_partition(i + 1)) == elem(
                {(-1, 2 * i): 1}
            ) * framing_factor(row_partition(i))


class TestEmptySeries:
    def test_first_coefficients(self):
        s = elementary_series_empty(3)
        assert s.coeff(0) == 1
        assert s.coeff(1) == DELTA

    def test_coefficients_are_column_unknots(self):
        s = elementary_series_empty(6)
        for r in range(7):
            assert s.coeff(r) == eval_unknot(column_partition(r))

    def test_specialised_product_form(self):
        # After v -> s^-N and t -> s^(N-1) t the series becomes
        # prod_{i=0}^{N-1} (1 + s^{2i} t).
        for n in (2, 3, 4):
            s = elementary_series_empty(n)
            specialised = s.map_coeffs(lambda c: c.substitute_v(n))
            reindexed = specialised.scale_t(RingElem(LaurentPoly.monomial(1, s=n - 1, nvars=1)))
            product = TruncatedSeries.one(n, like=RingElem(LaurentPoly.one(nvars=1)))
            for i in range(n):
                x = RingElem(LaurentPoly.monomial(1, s=2 * i, nvars=1))
                product = product.mul(TruncatedSeries.linear_factor(x, n))
            assert reindexed == product

    def test_scaled_coefficients_match_displayed_fractions(self):
        # E_empty(v s^-1 t) has coefficient r equal to
        # prod_{i<r} (1 - q^i v^2) / prod_{k<=r} (q^k - 1).
        s = elementary_series_empty(3).scale_t(elem({(1, -1): 1}))
        for r in range(1, 4):
            num = P2.one()
            shift = 0
            for i in range(r):
                num = num * P2({(0, 0): 1, (2, 2 * i): -1})
            for k in range(1, r + 1):
                shift += k  # (q^k - 1) = s^k (s^k - s^-k)
            expected = RingElem(num * P2.monomial(1, 0, -shift), tuple(range(1, r + 1)))
            assert s.coeff(r) == expected


class TestDecoratedSeries:
    def test_column_decoration_ratio(self):
        # E_col(k) = (1 + v^-1 s t) / (1 + v^-1 s^(1-2k) t) * E_empty
        degree = 6
        base = elementary_series_empty(degree)
        for k in range(7):
            expected = base.mul(
                TruncatedSeries.linear_factor(elem({(-1, 1): 1}), degree)
            ).mul(TruncatedSeries.linear_factor(elem({(-1, 1 - 2 * k): 1}), degree).invert())
            assert elementary_series(column_partition(k), degree) == expected

    def test_row_decoration_via_complete_ratio(self):
        # H_col(k) = (1 - v^-1 s^(1-2k) t) / (1 - v^-1 s t) * H_empty
        degree = 6
        base = complete_series(EMPTY, degree)
        for k in range(7):
            expected = base.mul(
                TruncatedSeries.linear_factor(-elem({(-1, 1 - 2 * k): 1}), degree)
            ).mul(TruncatedSeries.linear_factor(-elem({(-1, 1): 1}), degree).invert())
            assert complete_series(column_partition(k), degree) == expected

    def test_three_one_scaled_coefficients(self):
        # E_(3,1)(v s^-1 t) = (1 + q^2 t)/(1 + q^-2 t) E_empty(v s^-1 t);
        # its first three coefficients, assembled from the displayed
        # fractions, pin the diagonal-hook product down.
        s = elementary_series(Partition((3, 1)), 3).scale_t(elem({(1, -1): 1}))

        def frac(r):
            num = P2.one()
            for i in range(r):
                num = num * P2({(0, 0): 1, (2, 2 * i): -1})
            shift = sum(range(1, r + 1))
            return RingElem(num * P2.monomial(1, 0, -shift), tuple(range(1, r + 1)))

        q = lambda e: elem({(0, 2 * e): 1})
        e1 = frac(1) + q(2) - q(-2)
        e2 = frac(2) + (q(2) - q(-2)) * frac(1) - (ONE - q(-4))
        e3 = (
            frac(3)
            + (q(2) - q(-2)) * frac(2)
            - (ONE - q(-4)) * frac(1)
            + (q(-2) - q(-6))
        )
        assert s.coeff(0) == 1
        assert s.coeff(1) == e1
        assert s.coeff(2) == e2
        assert s.coeff(3) == e3

    def test_diagonal_and_row_products_agree(self):
        for lam in partitions_up_to(5):
            assert elementary_series(lam, 8) == elementary_series_by_rows(lam, 8)

    def test_inverse_pair(self):
        one = TruncatedSeries.one(8)
        for lam in partitions_up_to(5):
            e = elementary_series(lam, 8)
            h = complete_series(lam, 8)
            assert e.mul(h.negate_t()) == one

    def test_complete_empty_coefficients_are_row_unknots(self):
        # Coefficient j of H_empty must equal the row-diagram unknot, which
        # eval_unknot builds from hook lengths rather than by recursion.
        h = complete_series(EMPTY, 6)
        for j in range(7):
            assert h.coeff(j) == eval_unknot(row_partition(j))


class TestHopfInvariant:
    def test_required_degree(self):
        assert required_degree(EMPTY) == 0
        assert required_degree(Partition((2, 2))) == 3
        assert required_degree(Partition((3, 1))) == 4

    def test_empty_decoration_reduces_to_unknot(self):
        for mu in partitions_up_to(4):
            assert hopf_invariant(EMPTY, mu) == eval_unknot(mu)
            assert hopf_invariant(mu, EMPTY) == eval_unknot(mu)

    def test_symmetry_small(self):
        pairs = [
            (Partition((2, 1)), Partition((3,))),
            (Partition((2, 2)), Partition((1, 1, 1))),
            (Partition((4,)), Partition((2, 1, 1))),
        ]
        for lam, mu in pairs:
            assert hopf_invariant(lam, mu) == hopf_invariant(mu, lam)

    def test_conjugation_is_the_involution(self):
        # <lam', mu'> = sigma <lam, mu>: the conjugates swap arms and legs,
        # so their series and Jacobi-Trudy matrices differ from lam's and mu's
        assert sigma(elem({(1, 1): 3})) == elem({(1, -1): -3})
        assert sigma(elem({(0, 0): 1}, (2,))) == elem({(0, 0): -1}, (2,))
        assert sigma(elem({(0, 1): 1, (0, -1): -1}, (1,))) == 1
        pairs = 0
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                pairs += 1
                conjugated = hopf_invariant(lam.conjugate(), mu.conjugate())
                assert conjugated == sigma(hopf_invariant(lam, mu)), (lam, mu)
        assert pairs == 361

    @pytest.mark.parametrize("lam, mu, form, order", [
        ((1,), (13,), "jacobi-trudy", 1),  # a tie: d(mu) = l(mu) = 1
        ((2, 2), (2, 2), "jacobi-trudy", 2),  # a tie: order 2 every way
        ((3, 3), (5, 4, 2), "giambelli", 2),
        ((8, 6, 4, 2), (7, 5, 3, 1), "giambelli", 3),
        ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), "giambelli", 3),
    ])
    def test_schur_side_takes_the_smallest_order(self, monkeypatch, lam, mu, form, order):
        # The pairing builds one determinant; stop once its form and order
        # are known, since the staircase determinant itself takes a while.
        class Built(Exception):
            pass

        forms = []

        def tagged(name, fn):
            def call(*args):
                forms.append(name)
                return fn(*args)
            return call

        def recording(matrix):
            raise Built(len(matrix))

        for name, attr in (("jacobi-trudy", "schur_of_series"), ("giambelli", "schur_by_giambelli")):
            monkeypatch.setattr(hopf, attr, tagged(name, getattr(hopf, attr)))
        monkeypatch.setattr(ring, "determinant", recording)
        with pytest.raises(Built) as built:
            hopf._hopf_value.__wrapped__(Partition(lam), Partition(mu))
        assert (forms, built.value.args) == ([form], (order,))

    def test_pairing_is_written_over_both_hook_multisets(self):
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                den = hopf_invariant(lam, mu).den
                assert den == tuple(sorted(lam.hooks() + mu.hooks())), (lam, mu)

    def test_closed_form_examples(self):
        assert hopf_column_row_closed(0, 0) == 1
        assert hopf_column_row_closed(0, 3) == eval_unknot(row_partition(3))
        assert hopf_column_row_closed(2, 0) == eval_unknot(column_partition(2))
        # i = j = 1 cross-multiplied against delta^2 (v^-1(s^2-1+s^-2)-v)/(v^-1-v)
        got = hopf_column_row_closed(1, 1)
        bracket = P2({(-1, 2): 1, (-1, 0): -1, (-1, -2): 1, (1, 0): -1})
        vminus = P2({(-1, 0): 1, (1, 0): -1})
        lhs = got * RingElem(vminus)
        rhs = DELTA * DELTA * RingElem(bracket)
        assert lhs == rhs

    def test_closed_form_matches_series_route(self):
        for i in range(7):
            for j in range(7):
                direct = hopf_invariant(column_partition(i), row_partition(j))
                assert hopf_column_row_closed(i, j) == direct

    def test_multiplicativity_over_column_products(self):
        for lam in partitions_up_to(3):
            for i in range(3):
                for j in range(3):
                    lhs = (
                        hopf_invariant(lam, column_partition(i))
                        * hopf_invariant(lam, column_partition(j))
                    )
                    total = RingElem(P2.zero())
                    for nu in pieri_column(column_partition(i), j):
                        total = total + hopf_invariant(lam, nu)
                    assert lhs == eval_unknot(lam) * total


class TestCurlIdentity:
    @pytest.mark.parametrize("i,j", [(1, 1), (2, 3), (5, 5)])
    def test_examples(self, i, j):
        assert curl_identity_check(i, j)

    def test_domain(self):
        with pytest.raises(ValueError):
            curl_identity_check(0, 1)


class TestContentPolynomial:
    def test_empty(self):
        assert content_polynomial(EMPTY, ONE, 3) == TruncatedSeries.one(3)

    def test_single_cell(self):
        u = elem({(-1, 1): 1})
        expected = TruncatedSeries.linear_factor(u, 2)
        assert content_polynomial(Partition((1,)), u, 2) == expected

    def test_three_one_ratio(self):
        up = elem({(-1, 1): 1})
        down = elem({(-1, -1): 1})
        ratio = content_polynomial(Partition((3, 1)), up, 5).mul(
            content_polynomial(Partition((3, 1)), down, 5).invert()
        )
        expected = TruncatedSeries.linear_factor(elem({(-1, 5): 1}), 5).mul(
            TruncatedSeries.linear_factor(elem({(-1, -3): 1}), 5).invert()
        )
        assert ratio == expected
