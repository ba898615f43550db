import pytest
from hypothesis import given, settings, strategies as st

from hopfly.ring import LaurentPoly, RingElem, det_fractions, format_ring_elem
from hopfly.partitions import EMPTY, Partition, partitions_up_to
from hopfly.series import (
    TruncatedSeries,
    h_form_is_smaller,
    required_degree,
    schur_by_giambelli,
    schur_of_series,
)
from hopfly.hopf import complete_series, elementary_series, times_factors

P2 = LaurentPoly


def elem(terms, den=()):
    return RingElem(P2(terms), den)


ONE = RingElem(P2.one())
ZERO = RingElem(P2.zero())


def schur_classical(lam, xs):
    """Bialternant quotient det(x_i**(lam_j + N - j)) / det(x_i**(N - j)).

    The denominator is the Vandermonde alternant, so the x values must be
    pairwise distinct; the quotient always lies in the ring and the division
    is performed exactly.
    """
    n = len(xs)
    if n < lam.length:
        raise ValueError(f"need at least {lam.length} variables for {lam}")
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise ValueError("repeated variable values make the alternant vanish")
    numerator = det_fractions([[x ** e for e in lam.index_set(n)] for x in xs])
    vandermonde = det_fractions([[x ** e for e in EMPTY.index_set(n)] for x in xs])
    quo = (numerator.num * vandermonde.den_poly()).exact_div(vandermonde.num)
    if quo is None:
        raise ValueError("alternant quotient is not exact over the given values")
    return RingElem(quo, numerator.den)


def series(*coeffs):
    return TruncatedSeries(tuple(coeffs))


@st.composite
def unit_series(draw, degree=5):
    coeffs = [ONE]
    for _ in range(degree):
        n = draw(st.integers(0, 2))
        terms = []
        for _ in range(n):
            ev = draw(st.integers(-2, 2))
            es = draw(st.integers(-2, 2))
            c = draw(st.integers(-4, 4))
            terms.append(((ev, es), c))
        den = tuple(draw(st.lists(st.integers(1, 2), max_size=1)))
        coeffs.append(RingElem(P2(terms), den))
    return TruncatedSeries(tuple(coeffs))


def mul_pairwise(a, b):
    """The Cauchy product as k + 1 RingElem additions per coefficient, each
    over the union of the brackets so far: the oracle for ``mul``."""
    d = min(a.degree, b.degree)
    out = []
    for k in range(d + 1):
        acc = a.coeffs[0] * b.coeffs[k]
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        out.append(acc)
    return TruncatedSeries(tuple(out))


def invert_pairwise(a):
    """The inverse by the same pairwise additions: the oracle for ``invert``."""
    out = [RingElem(LaurentPoly.one(a.coeffs[0].num.nvars))]
    for k in range(1, a.degree + 1):
        acc = a.coeffs[1] * out[k - 1]
        for i in range(2, k + 1):
            acc = acc + a.coeffs[i] * out[k - i]
        out.append(-acc)
    return TruncatedSeries(tuple(out))


@st.composite
def bracket_series(draw, nvars, degree, unit=False, brackets=True):
    """Up to ``degree`` + 1 coefficients of up to three terms, some zero,
    each over up to three brackets of index <= 4 when ``brackets``."""
    coeffs = []
    for k in range(degree + 1):
        if unit and k == 0:
            coeffs.append(RingElem(LaurentPoly.one(nvars)))
            continue
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            es = draw(st.integers(-3, 3))
            key = es if nvars == 1 else (draw(st.integers(-2, 2)), es)
            terms.append((key, draw(st.integers(-5, 5))))
        den = draw(st.lists(st.integers(1, 4), max_size=3)) if brackets else ()
        coeffs.append(RingElem(LaurentPoly(terms, nvars), tuple(den)))
    return TruncatedSeries(tuple(coeffs))


class TestSeriesArithmetic:
    def test_one_times_one_minus_t(self):
        plus = TruncatedSeries.linear_factor(ONE, 2)
        minus = TruncatedSeries.linear_factor(-ONE, 2)
        assert plus.mul(minus) == series(ONE, ZERO, -ONE)  # 1 - t^2

    def test_identity_element(self):
        a = elementary_series(Partition((2, 1)), 4)
        assert a.mul(TruncatedSeries.one(4)) == a

    def test_truncates_to_smaller_degree(self):
        a = TruncatedSeries.one(5)
        b = TruncatedSeries.one(3)
        assert a.mul(b).degree == 3

    def test_invert_geometric(self):
        # 1 - q^-2 t + q^-4 t^2 - q^-6 t^3 spelled out
        w = elem({(0, -2): 1})
        spelled = series(ONE, -w, elem({(0, -4): 1}), elem({(0, -6): -1}))
        assert TruncatedSeries.linear_factor(w, 3).invert() == spelled

    def test_invert_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series(elem({(0, 1): 1}), ONE).invert()

    def test_linear_factor_zero_parameter(self):
        assert TruncatedSeries.linear_factor(ZERO, 2) == TruncatedSeries.one(2)

    def test_coefficient_out_of_range(self):
        s = TruncatedSeries.one(2)
        assert s.coeff(-1).is_zero()
        with pytest.raises(ValueError):
            s.coeff(3)


@settings(max_examples=30, deadline=None)
@given(unit_series())
def test_invert_roundtrip(a):
    assert a.mul(a.invert()) == TruncatedSeries.one(a.degree)
    assert a.invert().invert() == a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_matches_pairwise_adds(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    a = data.draw(bracket_series(nvars, data.draw(st.integers(0, 5))))
    b = data.draw(bracket_series(nvars, data.draw(st.integers(0, 5))))
    got = a.mul(b)
    assert got == mul_pairwise(a, b)
    assert all(c.num.nvars == nvars for c in got.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invert_matches_pairwise_adds(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    brackets = data.draw(st.booleans())
    a = data.draw(bracket_series(nvars, data.draw(st.integers(0, 5)), unit=True, brackets=brackets))
    got = a.invert()
    assert got == invert_pairwise(a)
    if not brackets:
        # the sl(N) h-form path: polynomial coefficients stay polynomials
        assert all(c.den == () for c in got.coeffs)


def test_cauchy_coefficient_k_is_over_one_factorial():
    # e_i e_(k-i) is over [1]...[i] [1]...[k-i], which divides [1]...[k]
    # (a q-binomial); summed over their union it would be
    # [1]...[k] [1]...[k // 2].
    for lam in (EMPTY, Partition((1,)), Partition((2, 1)), Partition((3, 1, 1)), Partition((2, 2))):
        e = elementary_series(lam, 8)
        square = e.mul(e)
        for k, c in enumerate(square.coeffs):
            assert c.den == tuple(range(1, k + 1)), (lam, k, c.den)
    assert square == mul_pairwise(e, e)


@st.composite
def monomial(draw):
    exps = (draw(st.integers(-2, 2)), draw(st.integers(-3, 3)))
    return elem({exps: draw(st.sampled_from((-2, -1, 1, 3)))})


@settings(max_examples=30, deadline=None)
@given(unit_series(), monomial(), monomial())
def test_factor_step_matches_cauchy_products(a, u, w):
    # Coefficients of a need not sit over [1]...[k], unlike the decoration
    # series that times_factors is built for.
    d = a.degree
    expected = a.mul(TruncatedSeries.linear_factor(u, d)).mul(
        TruncatedSeries.linear_factor(w, d).invert()
    )
    assert times_factors(a, [(u, w)]) == expected


class TestSchurOfSeries:
    def test_empty_partition(self):
        assert schur_of_series(EMPTY, TruncatedSeries.one(0)) == 1

    def test_single_column_reads_coefficient(self):
        s = elementary_series(Partition((3, 1)), 5)
        for i in range(1, 6):
            assert schur_of_series(Partition((1,) * i), s) == s.coeff(i)

    def test_two_by_two_determinant(self):
        s = elementary_series(Partition((2,)), 4)
        e = s.coeff
        expected = e(2) * e(2) - e(1) * e(3)
        assert schur_of_series(Partition((2, 2)), s) == expected

    def test_insufficient_degree_raises(self):
        s = TruncatedSeries.one(2)
        with pytest.raises(ValueError):
            schur_of_series(Partition((2, 2)), s)  # needs degree 3

    def test_single_row_jacobi_trudy(self):
        # s_(3) = det [[e1 e2 e3],[1 e1 e2],[0 1 e1]] spelled out by hand
        s = elementary_series(Partition((1, 1)), 4)
        e = s.coeff
        expected = (
            e(1) * (e(1) * e(1) - e(2))
            - e(2) * e(1)
            + e(3)
        )
        assert schur_of_series(Partition((3,)), s) == expected


class TestJacobiTrudyDuality:
    def test_e_form_equals_h_form(self):
        # s_mu(E_lam) three ways: order mu_1 on E_lam, order l(mu) on
        # H_lam = 1/E_lam(-t), and Giambelli's order d(mu) on both, so every
        # printed pairing with |lam|, |mu| <= 5 has two routes whichever
        # form the pairing takes
        pairs = 0
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                if mu == EMPTY:
                    continue
                pairs += 1
                degree = required_degree(mu)
                e, h = elementary_series(lam, degree), complete_series(lam, degree)
                e_form = schur_of_series(mu, e)
                h_form = schur_of_series(mu.conjugate(), h)
                giambelli = schur_by_giambelli(mu, e, h)
                assert e_form == h_form == giambelli, (lam, mu)
                # each form's brackets cancel down to hooks(mu)
                texts = {format_ring_elem(x.over(mu.hooks())) for x in (e_form, h_form, giambelli)}
                assert len(texts) == 1, (lam, mu)
        assert pairs == 342

    def test_h_form_only_when_strictly_smaller(self):
        assert not h_form_is_smaller(EMPTY)
        assert not h_form_is_smaller(Partition((1,)))
        assert not h_form_is_smaller(Partition((2, 1, 1)))
        assert not h_form_is_smaller(Partition((2, 2)))  # ties keep the e-form
        assert not h_form_is_smaller(Partition((6, 5, 4, 3, 2, 1)))
        assert h_form_is_smaller(Partition((13,)))
        assert h_form_is_smaller(Partition((7, 5, 3, 1)))


class TestGiambelli:
    def test_hook_values_match_jacobi_trudy(self):
        # s_(a|b) by its shorter alternating sum: b <= a sums h_(a+1+k) e_(b-k),
        # b > a sums e_(b+1+k) h_(a-k); the 5 x 5 grid has both and a = b
        for lam in (EMPTY, Partition((2, 1)), Partition((3, 1, 1))):
            for a in range(5):
                for b in range(5):
                    mu = Partition((a + 1,) + (1,) * b)
                    assert mu.frobenius() == ((a,), (b,))
                    degree = required_degree(mu)
                    e = elementary_series(lam, degree)
                    h = complete_series(lam, degree)
                    assert schur_by_giambelli(mu, e, h) == schur_of_series(mu, e), (lam, a, b)

    def test_empty_is_one(self):
        assert schur_by_giambelli(EMPTY, TruncatedSeries.one(0), TruncatedSeries.one(0)) == 1

    def test_degree_beyond_truncation_raises(self):
        mu = Partition((2, 2))  # reads coefficient 3 of both series
        e = elementary_series(EMPTY, 3)
        with pytest.raises(ValueError):
            schur_by_giambelli(mu, e, complete_series(EMPTY, 2))

    @pytest.mark.parametrize("lam, mu", [
        ((8, 6, 4, 2), (7, 5, 3, 1)),
        ((1,), (13,)),
        ((3, 3), (5, 4, 2)),
        ((5, 3, 2, 1), (4, 3, 1)),
        ((5, 5, 1), (3, 3, 3, 2)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1)),
    ])
    def test_giambelli_equals_both_orientations_on_large_shapes(self, lam, mu):
        # the pairs with |lam|, |mu| <= 5 are in TestJacobiTrudyDuality
        lam, mu = Partition(lam), Partition(mu)
        degree = required_degree(mu)
        e, h = elementary_series(lam, degree), complete_series(lam, degree)
        values = (schur_by_giambelli(mu, e, h), schur_of_series(mu, e),
                  schur_of_series(mu.conjugate(), h))
        assert len({format_ring_elem(x.over(mu.hooks())) for x in values}) == 1


class TestSchurClassical:
    def xs(self, *exps):
        return [RingElem(P2.monomial(1, 0, e)) for e in exps]

    def test_elementary_symmetric(self):
        x1 = elem({(0, 1): 1})
        x2 = elem({(0, -1): 1})
        assert schur_classical(Partition((1,)), [x1, x2]) == x1 + x2

    def test_empty(self):
        assert schur_classical(EMPTY, self.xs(1, 3)) == 1

    def test_repeated_values_rejected(self):
        with pytest.raises(ValueError):
            schur_classical(Partition((1,)), self.xs(2, 2))

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            schur_classical(Partition((1, 1, 1)), self.xs(1, 3))

    def test_bialternant_matches_jacobi_trudy(self):
        # Independent routes: alternant quotient vs determinant in the
        # coefficients of prod (1 + x_j t).
        xs = self.xs(8, 2, -2)  # the N=3 factor exponents of (3,1)
        prod = TruncatedSeries.one(4)
        for x in xs:
            prod = prod.mul(TruncatedSeries.linear_factor(x, 4))
        assert schur_classical(Partition((2, 2)), xs) == schur_of_series(Partition((2, 2)), prod)

    def test_bialternant_sweep(self):
        from hopfly.partitions import partitions_up_to

        for lam in partitions_up_to(5):
            for n in (2, 3, 4):
                if lam.length > n:
                    continue
                xs = self.xs(*(2 * k + 1 for k in range(n)))
                degree = max(lam.length + (lam.parts[0] if lam.parts else 0), 1)
                prod = TruncatedSeries.one(degree)
                for x in xs:
                    prod = prod.mul(TruncatedSeries.linear_factor(x, degree))
                assert schur_classical(lam, xs) == schur_of_series(lam, prod)


class TestHomogeneityAndNaturality:
    def test_homogeneity_with_monomial(self):
        base = elementary_series(Partition((3, 1)), 6)
        alpha = elem({(1, -1): 1})
        for lam in (Partition((2, 1)), Partition((2, 2)), Partition((1, 1, 1))):
            scaled = schur_of_series(lam, base.scale_t(alpha))
            assert scaled == alpha ** lam.size * schur_of_series(lam, base)

    def test_homogeneity_with_general_element(self):
        base = elementary_series(Partition((2,)), 6)
        alpha = elem({(0, 0): 2, (1, 1): -1})
        lam = Partition((2, 1))
        scaled = schur_of_series(lam, base.scale_t(alpha))
        assert scaled == alpha ** 3 * schur_of_series(lam, base)

    def test_naturality_under_specialisation(self):
        base = elementary_series(Partition((2, 1)), 6)
        for lam in (Partition((2, 2)), Partition((3, 1))):
            for n in (2, 3):
                direct = schur_of_series(lam, base).substitute_v(n)
                mapped = schur_of_series(lam, base.map_coeffs(lambda c: c.substitute_v(n)))
                assert direct == mapped


def test_decoration_series_carry_factorial_brackets():
    # Coefficient k of E_lam and H_lam has denominator exactly [1][2]...[k]:
    # both are built as products, which never need a bracket cancelled.
    for lam in partitions_up_to(5):
        for s in (elementary_series(lam, 8), complete_series(lam, 8)):
            for k, c in enumerate(s.coeffs):
                assert c.den == tuple(range(1, k + 1)), (lam, k, c.den)
