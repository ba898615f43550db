import gc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import hopfly.ring as ring
import hopfly.verify as verify
from hopfly.hopf import complete_series, elementary_series, eval_unknot, hopf_invariant
from hopfly.partitions import Partition
from hopfly.series import TruncatedSeries
from hopfly.sln import hopf_sln_minor, hopf_sln_substitution, vandermonde_minor
from hopfly.ring import (
    ConsistencyError,
    LaurentPoly,
    RingElem,
    _det_bareiss,
    _det_expansion,
    determinant,
    format_poly,
    format_ring_elem,
    parse_poly,
    parse_ring_elem,
    ring_elem_from_json,
    ring_elem_to_json,
)

P2 = LaurentPoly


def P1(terms=()):
    return LaurentPoly(terms, nvars=1)


DELTA = RingElem(P2({(-1, 0): 1, (1, 0): -1}), (1,))


@st.composite
def poly2(draw, max_terms=4, max_exp=3, max_coeff=6):
    n = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n):
        ev = draw(st.integers(-max_exp, max_exp))
        es = draw(st.integers(-max_exp, max_exp))
        c = draw(st.integers(-max_coeff, max_coeff))
        terms.append(((ev, es), c))
    return P2(terms)


@st.composite
def ring_elem(draw):
    num = draw(poly2())
    den = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return RingElem(num, den)


nonzero_poly2 = poly2().filter(lambda p: not p.is_zero())


class TestLaurentArithmetic:
    def test_additive_inverse(self):
        v = P2.monomial(1, 1, 0)
        assert (v + (-v)).is_zero()

    def test_monomials_combine(self):
        p = P2([((0, 1), 2), ((0, 1), 3), ((1, 0), 0)])
        assert dict(p.items()) == {(0, 1): 5}

    def test_quantum_factor_values(self):
        assert P2.quantum_bracket(1) == P2({(0, 1): 1, (0, -1): -1})
        assert P2.quantum_bracket(2) == P2({(0, 2): 1, (0, -2): -1})
        assert P2.quantum_bracket(3) == P2({(0, 3): 1, (0, -3): -1})
        with pytest.raises(ValueError):
            P2.quantum_bracket(0)

    def test_substitute_v_monomials(self):
        # v^-1 - v at N = 2 gives s^2 - s^-2
        p = P2({(-1, 0): 1, (1, 0): -1})
        assert p.substitute_v(2) == P1({2: 1, -2: -1})

    def test_one_variable_constructors(self):
        assert P1({3: 1}) == LaurentPoly.monomial(1, s=3, nvars=1)
        assert LaurentPoly.quantum_bracket(2, nvars=1) == P1({2: 1, -2: -1})
        assert LaurentPoly.constant(5, nvars=1) == P1({0: 5})
        assert LaurentPoly.one(nvars=1) == 1 and LaurentPoly.zero(nvars=1).is_zero()
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, v=1, nvars=1)
        with pytest.raises(ValueError):
            LaurentPoly({}, nvars=3)

    def test_two_variable_exponent_is_exactly_two_ints(self):
        for key in ((1, 2, 3), (1,), 4, [1, 2], (1, 2.0), (True, 0)):
            with pytest.raises(ValueError):
                P2([(key, 1)])
        assert dict(P2({(1, 2): 1}).items()) == {(1, 2): 1}

    def test_one_variable_exponent_is_one_int(self):
        for key in ((1, 2), (3,)):
            with pytest.raises(ValueError):
                P1({key: 1})

    def test_float_and_bool_exponents_are_refused(self):
        for key in (1.5, 3.0, True):
            with pytest.raises(ValueError):
                P1({key: 1})
        # a zero coefficient is dropped, but its exponent is still checked
        with pytest.raises(ValueError):
            P1({2.5: 0})

    def test_monomial_exponents_are_ints(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, 0, 2.5)
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, v=1.0)
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, s=2.0, nvars=1)
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, s=True, nvars=1)
        assert LaurentPoly.monomial(2, 1, -3) == P2({(1, -3): 2})

    def test_not_hashable(self):
        # equal to the int 3, so no hash could agree with both
        assert LaurentPoly.constant(3) == 3
        for p in (LaurentPoly.constant(3), P1({2: 1, -2: -1})):
            with pytest.raises(TypeError):
                hash(p)

    def test_arities_do_not_mix(self):
        one_var, two_var = LaurentPoly.one(nvars=1), LaurentPoly.one()
        assert one_var.nvars == 1 and two_var.nvars == 2
        assert one_var != two_var
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(one_var, two_var)
            with pytest.raises(TypeError):
                op(two_var, one_var)
        with pytest.raises(TypeError):
            one_var.exact_div(two_var)
        with pytest.raises(TypeError):
            one_var.substitute_v(2)
        with pytest.raises(TypeError):
            RingElem(one_var).substitute_v(2)

    def test_format_poly_both_arities(self):
        assert format_poly(P2({(1, -2): 3, (0, 4): -1})) == "3*v^1*s^-2 - 1*v^0*s^4"
        assert format_poly(P1({4: -1, -2: 2})) == "-1*s^4 + 2*s^-2"
        assert format_poly(P1({4: -1, -2: 2}), variable="q") == "-1*q^2 + 2*q^-1"
        assert format_poly(P1()) == "0"
        with pytest.raises(ValueError):
            format_poly(P1({1: 1}), variable="q")


class TestRingElem:
    def test_multiplicative_inverse_pair(self):
        # delta's reciprocal has v^-1 - v in its denominator, which is not a
        # representable bracket fraction, so the product-equals-one identity
        # is checked in cross-multiplied form: delta * (s - s^-1) = v^-1 - v.
        vdiff = P2({(-1, 0): 1, (1, 0): -1})
        assert DELTA * RingElem(P2.quantum_bracket(1)) == RingElem(vdiff)

    def test_delta_squared(self):
        # Expanded by hand: (v^-1 - v)^2 = v^-2 - 2 + v^2
        expected_num = P2({(-2, 0): 1, (0, 0): -2, (2, 0): 1})
        assert DELTA * DELTA == RingElem(expected_num, (1, 1))

    def test_delta_substitution_cancels(self):
        assert DELTA.substitute_v(2).den == (1,)  # the ring map cancels nothing
        val = DELTA.substitute_v(2).over(())
        assert val == RingElem(P1({1: 1, -1: 1}))
        assert val.den == ()  # (s^2-s^-2)/(s-s^-1) is s + s^-1

    def test_over_lifts_before_it_divides(self):
        # (s + s^-1)/[2] = 1/[1], though [2] alone does not divide s + s^-1
        val = RingElem(P2({(0, 1): 1, (0, -1): 1}), (2,)).over((1,))
        assert val.num == P2.one() and val.den == (1,)

    def test_over_refuses_a_bracket_that_does_not_divide(self):
        with pytest.raises(ConsistencyError):
            RingElem(P2({(2, 0): 1, (0, 0): -1}), (1,)).over(())  # (v^2 - 1)/[1]

    def test_equality_is_cross_multiplicative(self):
        a = RingElem(P2.quantum_bracket(2), (1, 1))  # (s^2-s^-2)/(s-s^-1)^2
        b = RingElem(P2({(0, 1): 1, (0, -1): 1}), (1,))  # (s+s^-1)/(s-s^-1)
        assert a == b
        assert not (a == a + 1)

    def test_int_comparisons(self):
        assert RingElem(P2.zero(), ()) == 0
        assert RingElem(P2.quantum_bracket(1), (1,)) == 1


class TestExactDivision:
    def test_quantum_integer_factorisation(self):
        q = P2.quantum_bracket(2).exact_div(P2.quantum_bracket(1))
        assert q == P2({(0, 1): 1, (0, -1): 1})
        q = P2.quantum_bracket(2, nvars=1).exact_div(P2.quantum_bracket(1, nvars=1))
        assert q == P1({1: 1, -1: 1})

    def test_v_does_not_divide_out(self):
        a = P2({(2, 0): 1, (0, 0): -1})  # v^2 - 1
        assert a.exact_div(P2.quantum_bracket(1)) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            P2.one().exact_div(P2.zero())
        with pytest.raises(ZeroDivisionError):
            P1({0: 1}).exact_div(P1())

    def test_golden_prefactor_single_variable_division(self):
        # Numerator of the worked-example prefactor, specialised at N=3,
        # must be exactly divisible by (q-1)^3 = (s^2-1)^3.
        v2 = P2.monomial(1, 2, 0)
        q = P2.monomial(1, 0, 2)
        one = P2.one()
        numerator = (v2 - one) ** 2 * (v2 - q) * (v2 - q ** 2) * (v2 * q - one)
        specialised = numerator.substitute_v(3)
        q_minus_one = P1({2: 1, 0: -1})
        assert specialised.exact_div(q_minus_one ** 3) is not None
        # full multiplicity: (q^3-1)^2 (q^5-1)(q^4-1)(q^2-1) carries (q-1)^5
        assert specialised.exact_div(q_minus_one ** 5) is not None
        assert specialised.exact_div(q_minus_one ** 6) is None


@settings(max_examples=60, deadline=None)
@given(ring_elem(), ring_elem(), ring_elem())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(poly2(), nonzero_poly2)
def test_exact_div_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


@settings(max_examples=60, deadline=None)
@given(ring_elem(), ring_elem(), st.integers(2, 4))
def test_substitution_is_a_ring_map(a, b, n):
    assert (a * b).substitute_v(n) == a.substitute_v(n) * b.substitute_v(n)
    assert (a + b).substitute_v(n) == a.substitute_v(n) + b.substitute_v(n)


@settings(max_examples=40, deadline=None)
@given(ring_elem(), st.lists(st.integers(1, 4), min_size=1, max_size=2),
       st.lists(st.integers(1, 4), min_size=1, max_size=2))
def test_cross_multiplication_equivalence(x, ks1, ks2):
    # Unnormalised representatives of the same value stay equal, pairwise
    # and transitively.
    def rescale(val, ks):
        num = val.num
        for k in ks:
            num = num * LaurentPoly.quantum_bracket(k)
        return RingElem(num, tuple(sorted(val.den + tuple(ks))))

    r1 = rescale(x, ks1)
    r2 = rescale(x, ks2)
    r3 = rescale(r1, ks2)
    assert r1 == x and r2 == x and r1 == r2 and r3 == r2


@settings(max_examples=40, deadline=None)
@given(ring_elem().filter(bool), st.lists(st.integers(1, 4), max_size=3), st.integers(1, 4))
def test_over_rewrites_the_denominator(x, extra, k):
    den = x.den + tuple(extra)
    assert x.over(den) == x
    assert x.over(den).den == tuple(sorted(den))
    back = RingElem(x.num * LaurentPoly.quantum_bracket(k), x.den + (k,)).over(x.den)
    assert back.num == x.num and back.den == x.den


@settings(max_examples=40, deadline=None)
@given(ring_elem())
def test_text_roundtrip(x):
    assert parse_ring_elem(format_ring_elem(x)) == x


@settings(max_examples=40, deadline=None)
@given(ring_elem())
def test_json_roundtrip(x):
    back = ring_elem_from_json(ring_elem_to_json(x))
    assert back == x
    # the embedded text form parses to the same value
    assert parse_ring_elem(ring_elem_to_json(x)["text"]) == x


def test_parse_accepts_q_terms():
    assert parse_poly("1*q^2 - 1*q^0") == P2({(0, 4): 1, (0, 0): -1})
    assert parse_poly("1*q^2 - 1*q^0", univariate=True) == P1({4: 1, 0: -1})


def test_parse_rejects_anything_but_brackets_after_slash():
    for text in ("(1*v^0*s^0) / garbage", "(1*v^0*s^0) / [2]junk[3]", "(1*v^0*s^0) /"):
        with pytest.raises(ValueError):
            parse_ring_elem(text)
    assert parse_ring_elem("(1*v^0*s^0) / [3][2]").den == (2, 3)
    assert parse_ring_elem("(1*s^0) / [2] [1] ", univariate=True).den == (1, 2)


def test_json_rejects_malformed_terms():
    with pytest.raises(ValueError):
        ring_elem_from_json({"vars": 1, "num": [[0, 0, 1]]})
    with pytest.raises(ValueError):
        ring_elem_from_json({"vars": 2, "num": [[1, 1]]})
    with pytest.raises(ValueError):
        ring_elem_from_json({"vars": 3, "num": [[1, 1, 1, 1]]})
    with pytest.raises(ValueError):
        ring_elem_from_json({"vars": 2, "num": [[1, "1", 1]]})
    for bad in (
        {"vars": 1, "num": [[0, 1]], "den": [1.9]},
        {"vars": 1, "num": [[0, 1]], "den": ["2"]},
        {"vars": 1, "num": [[0, 1]], "den": [True]},
        {"vars": 1, "num": [[0, 1]], "den": [0]},
        {"vars": 1, "num": [[True, 1]]},
        {"vars": 2, "num": [[0, 1.0, 1]]},
        {"vars": True, "num": [[0, 1]]},
        {"vars": 1.0, "num": [[0, 1]]},
        {"vars": 1},
        {"num": None},
        {"vars": 1, "num": 5},
        {"vars": 1, "num": "[[0, 1]]"},
        {"vars": 1, "num": [5]},
        {"vars": 1, "num": [[0, 1], 5]},
        {"vars": 1, "num": [[0, 1]], "den": 5},
        {"vars": 1, "num": [[0, 1]], "den": "23"},
    ):
        with pytest.raises(ValueError):
            ring_elem_from_json(bad)
    one_var = ring_elem_from_json({"vars": 1, "num": [[2, 3]], "den": [1]})
    assert one_var == RingElem(P1({2: 3}), (1,))


class TestDeterminant:
    def test_small_integer_matrix(self):
        m = [[P2.constant(a) for a in row] for row in ((2, 3), (1, 4))]
        assert determinant(m) == P2.constant(5)

    def test_expansion_leaves_no_garbage_cycle(self):
        # The memo of minors is freed when the determinant returns, not
        # kept until the next cyclic collection.
        m = [[P2.monomial(1, i, i * j) for j in range(4)] for i in range(4)]
        gc.collect()
        gc.disable()
        try:
            _det_expansion(m)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bareiss_agrees_with_expansion(self, data):
        # Bareiss computes the literal minor that verify's bialternant check
        # compares with the library, so it is checked here on random
        # matrices of either arity, with zero entries (pivot swaps) and with
        # one row a multiple of another (singular).
        nvars = data.draw(st.sampled_from((1, 2)))
        order = data.draw(st.integers(1, 5))
        rows = [[data.draw(boxed_poly(nvars)) for _ in range(order)] for _ in range(order)]
        singular = order > 1 and data.draw(st.booleans())
        if singular:
            i, j = data.draw(st.permutations(range(order)))[:2]
            factor = data.draw(boxed_poly(nvars))
            rows[j] = [factor * x for x in rows[i]]
        by_bareiss = _det_bareiss(rows)
        assert by_bareiss == _det_expansion(rows)
        if singular:
            assert by_bareiss.is_zero()

    @pytest.mark.parametrize("nvars", (1, 2))
    def test_determinant_never_runs_bareiss(self, monkeypatch, nvars):
        # Order 13 was above the old expansion bound for one-variable
        # matrices.  Upper triangular, so the determinant is the diagonal
        # product; the zeros below the diagonal keep the expansion cheap.
        def refuse(matrix):
            raise AssertionError(f"order-{len(matrix)} matrix sent to Bareiss")

        monkeypatch.setattr(ring, "_det_bareiss", refuse)
        order = 13
        v = nvars - 1
        diagonal = [LaurentPoly.one(nvars) - LaurentPoly.monomial(1, v=v, s=i, nvars=nvars)
                    for i in range(order)]
        m = [[diagonal[i] if i == j
              else LaurentPoly.monomial(1, v=v * (j % 2), s=i - j, nvars=nvars) if j > i
              else LaurentPoly.zero(nvars)
              for j in range(order)] for i in range(order)]
        expected = LaurentPoly.one(nvars)
        for d in diagonal:
            expected = expected * d
        assert determinant(m) == expected

    def test_singular_matrix_is_zero_under_bareiss(self):
        row = [P2.constant(1), P2.constant(2), P2.constant(3)]
        m = [row, row, [P2.constant(4), P2.constant(5), P2.constant(6)]]
        assert _det_bareiss(m).is_zero()


def test_literal_minor_is_computed_by_bareiss(monkeypatch):
    lam, mu, n = Partition((2, 1)), Partition((3,)), 3
    expected = vandermonde_minor(lam, mu, n)
    orders = []

    def recording(matrix):
        orders.append(len(matrix))
        return _det_bareiss(matrix)

    def refuse(matrix):
        raise AssertionError("the literal minor was expanded by minors")

    monkeypatch.setattr(verify, "_det_bareiss", recording)
    monkeypatch.setattr(ring, "_det_expansion", refuse)
    assert verify._literal_minor(lam, mu, n) == expected
    assert orders == [n]


# ---------------------------------------------------------------------------
# the packed (Kronecker substitution) multiply against the term loop

NEVER_PACK = 10 ** 18


def both_kernels(a, b):
    """a * b with every product packed, then with none packed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_PACKED_MIN_PRODUCTS_PER_SLOT", 0)
        packed = a * b
        mp.setattr(ring, "_PACKED_MIN_PRODUCTS_PER_SLOT", NEVER_PACK)
        looped = a * b
    return packed, looped


def packed_calls(monkeypatch):
    """Record, per product, whether the packed kernel computed it."""
    calls = []
    real = ring._mul_packed

    def spy(pairs, nvars):
        out = real(pairs, nvars)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(ring, "_mul_packed", spy)
    return calls


@st.composite
def boxed_poly(draw, nvars):
    """Up to 12 terms in a box of side <= 5 at a random, possibly negative,
    offset, with coefficients up to 3, 2**20, 2**64 or 2**100 in size."""
    bound = 2 ** draw(st.sampled_from((2, 20, 64, 100)))
    side = draw(st.integers(0, 4))
    ov, os = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        es = os + draw(st.integers(0, side))
        c = draw(st.integers(-bound, bound))
        terms.append((es, c) if nvars == 1 else ((ov + draw(st.integers(0, side)), es), c))
    return LaurentPoly(terms, nvars)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_mul_matches_term_loop(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    a, b = data.draw(boxed_poly(nvars)), data.draw(boxed_poly(nvars))
    packed, looped = both_kernels(a, b)
    assert packed.nvars == looped.nvars == nvars
    assert dict(packed.items()) == dict(looped.items())


def geometric_pair(x, y, c, n):
    """(x - c*y) and sum_{i<n} c**i x**(n-1-i) y**i, whose product
    x**n - c**n y**n cancels in every middle slot."""
    tail = LaurentPoly.zero(x.nvars)
    for i in range(n):
        tail = tail + x ** (n - 1 - i) * y ** i * c ** i
    return x - y * c, tail


@pytest.mark.parametrize("c", (1, -3, 2 ** 12))
def test_packed_mul_cancels_middle_slots(c):
    for x, y in ((P1({1: 1}), P1({-2: 1})), (P2({(1, -1): 1}), P2({(-1, 2): 1}))):
        a, b = geometric_pair(x, y, c, 10)
        packed, looped = both_kernels(a, b)
        assert packed == looped == x ** 10 - y ** 10 * c ** 10
    for zero in (P1(), P2()):
        one = LaurentPoly.one(zero.nvars)
        assert all(p.is_zero() for p in both_kernels(zero, one) + both_kernels(one, zero))


@pytest.mark.parametrize("na, nb, ca, cb", (
    (7, 8, 151, 31),                       # 7 * 151 * 31 = 2**15 - 1: two-byte slots
    (7, 8, 151, -31),
    (8, 9, 64, 64),                        # 2**15: three-byte slots
    (8, 9, -64, 64),
    (7, 8, 7 * 73 * 127 * 337, 92737 * 649657),  # 2**63 - 1: eight-byte slots
    (8, 8, 2 ** 30, -(2 ** 30)),           # 2**63: nine-byte slots, decoded one by one
))
def test_packed_mul_at_slot_width_bound(na, nb, ca, cb):
    # Constant coefficients on consecutive exponents: the middle product
    # coefficient sums min(na, nb) equal term products, so it reaches the
    # bound max|a| * max|b| * min(na, nb) that fixes the slot width.
    peak = ca * cb * min(na, nb)
    for nvars, key in ((1, lambda e: e - 3), (2, lambda e: (e - 2, 1 - e))):
        a = LaurentPoly({key(e): ca for e in range(na)}, nvars)
        b = LaurentPoly({key(e): cb for e in range(nb)}, nvars)
        packed, looped = both_kernels(a, b)
        assert packed == looped
        assert max(c for _, c in packed.items()) == max(peak, ca * cb)
        assert min(c for _, c in packed.items()) == min(peak, ca * cb)
        # the pair twice in one packed sum: the peak and the bound double
        pairs = [(1, dict(a.items()), dict(b.items()))] * 2
        summed = fused_sum(pairs, nvars)
        assert summed == looped_sum(pairs, nvars)
        assert max(summed.values()) == 2 * max(peak, ca * cb)
        assert min(summed.values()) == 2 * min(peak, ca * cb)


def test_sparse_products_stay_on_term_loop(monkeypatch):
    dense = eval_unknot(Partition((4, 3, 2, 1))).num
    calls = packed_calls(monkeypatch)
    looped = []
    real_addmul = ring._addmul

    def addmul_spy(acc, a, b):
        looped.append((len(a), len(b)))
        real_addmul(acc, a, b)

    monkeypatch.setattr(ring, "_addmul", addmul_spy)
    # a monomial operand is a shift of the other's keys and a scale: no kernel
    terms = dict(dense.items())
    assert dict((P2.monomial(3, 1, -2) * dense).items()) == \
        {(ev + 1, es - 2): 3 * c for (ev, es), c in terms.items()}
    assert dict((dense * P2.monomial(-1, 0, 5)).items()) == \
        {(ev, es + 5): -c for (ev, es), c in terms.items()}
    assert dict((P1({1: 2, 4: -1}) * P1({-3: 5})).items()) == {-2: 10, 1: -5}
    assert calls == [] and looped == []
    # a binomial operand is too sparse to pack
    binomial = P2.monomial(1, 1, 1) - P2.monomial(1, 0, -1)
    product = binomial * dense
    assert calls == [False] and looped
    assert product == P2.monomial(1, 1, 1) * dense - P2.monomial(1, 0, -1) * dense


def test_ladder_size_product_is_packed(monkeypatch):
    pairing = hopf_invariant(Partition((4, 3, 2, 1)), Partition((4, 2, 1))).num
    unknot = eval_unknot(Partition((4, 3, 2, 1))).num
    calls = packed_calls(monkeypatch)
    product = pairing * unknot
    assert calls == [True]
    packed, looped = both_kernels(pairing, unknot)
    assert product == looped


# ---------------------------------------------------------------------------
# packed products on the compressed exponent lattice


def decoded_slots(mp):
    """Record the slot count of every packed product's decode."""
    seen = []
    real = ring._unpack

    def spy(p, w, n):
        seen.append(n)
        return real(p, w, n)

    mp.setattr(ring, "_unpack", spy)
    return seen


def spans(p):
    """Exponent spans of p: (span_s,) or (span_v, span_s)."""
    keys = [e if p.nvars == 2 else (e,) for e in dict(p.items())]
    return [max(e[i] for e in keys) - min(e[i] for e in keys) for i in range(p.nvars)]


def full_layout_slots(a, b):
    """Slots of the unhalved layout: the product's exponent box, with s
    varying fastest at an odd stride in two variables."""
    span = [x + y for x, y in zip(spans(a), spans(b))]
    if a.nvars == 1:
        return span[0] + 1
    return (span[0] + 1) * ((span[1] + 1) | 1)


def lattice_layout_slots(a, b):
    """Slots of the two-variable layout with both axes compressed by 2: a
    quarter of the exponent box, with an odd stride."""
    span = [x + y for x, y in zip(spans(a), spans(b))]
    assert span[0] % 2 == span[1] % 2 == 0
    return (span[0] // 2 + 1) * ((span[1] // 2 + 1) | 1)


COEFF_BOUNDS = (3, 2 ** 20, 2 ** 30, 2 ** 70)  # 2**30 lets slots reach 8 and 9 bytes


@st.composite
def one_parity_poly(draw, nvars, parity, lattice=False):
    """2 to 13 terms with e_v + e_s of the given parity (e_v = 0 in one
    variable), in a box at an offset from -7 up of either parity, nonzero
    coefficients up to one of ``COEFF_BOUNDS`` in size.  Two-variable
    terms lie on one coset of 2Z x 2Z when ``lattice``, with e_v / 2 taking
    both parities there, and otherwise take both parities of e_v."""
    bound = draw(st.sampled_from(COEFF_BOUNDS))
    coeff = st.integers(-bound, bound).filter(bool)
    ov, os = draw(st.integers(-7, 7)), draw(st.integers(-7, 7))
    if nvars == 1:
        os += (os + parity) % 2
        keys = [os, os + 2] + [os + 2 * draw(st.integers(0, 4))
                               for _ in range(draw(st.integers(0, 11)))]
    else:
        os += (ov + os + parity) % 2
        if lattice:
            keys = [(ov, os), (ov + 2, os)] + [
                (ov + 2 * draw(st.integers(0, 2)), os + 2 * draw(st.integers(0, 4)))
                for _ in range(draw(st.integers(0, 11)))]
        else:
            keys = [(ov, os), (ov + 1, os + 1)]
            for _ in range(draw(st.integers(0, 11))):
                ev, es = ov + draw(st.integers(0, 4)), os + draw(st.integers(0, 8))
                keys.append((ev, es + (ev + es + parity) % 2))
    return LaurentPoly({k: draw(coeff) for k in keys}, nvars)


@st.composite
def mixed_parity_poly(draw, nvars):
    """A one-parity polynomial with one or two terms set beside its least
    key, so that it takes both parities of e_v + e_s and, in two
    variables, of e_v and of e_s."""
    parity = draw(st.integers(0, 1))
    terms = dict(draw(one_parity_poly(nvars, parity)).items())
    low = min(terms)
    step = ((1,) if nvars == 1 else ((1, 0), (0, 1)))
    for d in step:
        key = low + d if nvars == 1 else (low[0] + d[0], low[1] + d[1])
        terms[key] = draw(st.integers(-3, 3).filter(bool))
    return LaurentPoly(terms, nvars)


def packed_layout(a, b):
    """a * b packed and looped, and the slot counts the packed decode used."""
    with pytest.MonkeyPatch.context() as mp:
        slots = decoded_slots(mp)
        packed, looped = both_kernels(a, b)
    assert dict(packed.items()) == dict(looped.items())
    return slots


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_parity_products_take_halved_layout(data):
    # On a coset of 2Z x 2Z in both operands the product packs a quarter
    # of its exponent box; with e_v + e_s of one parity alone, or in one
    # variable, half of it.
    nvars = data.draw(st.sampled_from((1, 2)))
    lattice = [data.draw(st.booleans()) for _ in range(2)]
    a, b = (data.draw(one_parity_poly(nvars, data.draw(st.integers(0, 1)), on))
            for on in lattice)
    if nvars == 2 and all(lattice):
        assert packed_layout(a, b) == [lattice_layout_slots(a, b)]
    else:
        assert packed_layout(a, b) == [(full_layout_slots(a, b) + 1) // 2]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lattice_products_halve_again_when_the_quarter_is_a_checkerboard(data):
    # On a coset of 2Z x 2Z whose halved exponents also have one parity of
    # e_v/2 + e_s/2, the quarter box is halved like a checkerboard.
    parity = data.draw(st.integers(0, 1))
    a, b = (data.draw(one_parity_poly(2, parity)) for _ in range(2))
    a = LaurentPoly({(2 * ev, 2 * es + 1): c for (ev, es), c in a.items()})
    b = LaurentPoly({(2 * ev + 1, 2 * es): c for (ev, es), c in b.items()})
    assert packed_layout(a, b) == [(lattice_layout_slots(a, b) + 1) // 2]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mixed_parity_products_take_full_layout(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    a = data.draw(mixed_parity_poly(nvars))
    b = data.draw(st.one_of(mixed_parity_poly(nvars),
                            one_parity_poly(nvars, data.draw(st.integers(0, 1)),
                                            data.draw(st.booleans()))))
    a, b = data.draw(st.permutations((a, b)))
    assert packed_layout(a, b) == [full_layout_slots(a, b)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_axis_step_compresses_only_that_axis(data):
    # e_v of one parity in each operand but e_s of both: rows step by 2
    s_polys = data.draw(mixed_parity_poly(1)), data.draw(mixed_parity_poly(1))
    ev = [2 * data.draw(st.integers(-3, 3)) + data.draw(st.integers(0, 1)) for _ in range(2)]
    rows = [data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)) for _ in range(2)]
    a, b = (LaurentPoly({(e + 2 * r, es): c for r in rs for es, c in p.items()})
            for e, rs, p in zip(ev, rows, s_polys))
    span_v, span_s = [x + y for x, y in zip(spans(a), spans(b))]
    assert packed_layout(a, b) == [(span_v // 2 + 1) * ((span_s + 1) | 1)]


def bytes_pack(keys, coeffs, w):
    """The w-byte slots written one ``to_bytes`` slice per term, positive
    and negated negative coefficients apart: ``_pack``'s path above eight
    bytes, and for every width before the array path."""
    size = (max(keys) + 1) * w
    pos, neg = bytearray(size), bytearray(size)
    for k, c in zip(keys, coeffs):
        if c > 0:
            pos[k * w:(k + 1) * w] = c.to_bytes(w, "little")
        else:
            neg[k * w:(k + 1) * w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_array_pack_matches_byte_path(data):
    w = data.draw(st.integers(1, 9))
    top = 2 ** (8 * w - 1) - 1
    keys = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=True))
    coeffs = [data.draw(st.sampled_from((top, -top, 1, -1)) | st.integers(-top, top).filter(bool))
              for _ in keys]
    packed = ring._pack(keys, coeffs, w)
    assert packed == bytes_pack(keys, coeffs, w)
    assert packed == sum(c << 8 * w * k for k, c in zip(keys, coeffs))
    assert ring._unpack(packed, w, max(keys) + 1) == \
        [dict(zip(keys, coeffs)).get(k, 0) for k in range(max(keys) + 1)]


# ---------------------------------------------------------------------------
# sums of products on one packed integer against the term loop


def looped_sum(pairs, nvars):
    """The sum of sign * a * b over (sign, a, b) triples of term dicts, each
    product on the term loop, added term by term."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_PACKED_MIN_PRODUCTS_PER_SLOT", NEVER_PACK)
        return ring._sum_terms(pairs, nvars)


def fused_sum(pairs, nvars):
    """The same sum as one packed multiply-accumulate, however sparse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_PACKED_MIN_PRODUCTS_PER_SLOT", 0)
        return ring._mul_packed(pairs, nvars)


@st.composite
def signed_pairs(draw, nvars):
    """1 to 4 signed pairs of nonzero polynomials, each operand of its own
    parity class at its own offset, so that pairs may agree or disagree on
    the parity of their products; when cancelling, every pair occurs again
    with the opposite sign."""
    operand = st.one_of(any_parity_poly(nvars), boxed_poly(nvars).filter(bool))
    pairs = [(draw(st.sampled_from((1, -1))), dict(draw(operand).items()),
              dict(draw(operand).items())) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        pairs += [(-sign, a, b) for sign, a, b in draw(st.permutations(pairs))]
    return pairs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_sum_matches_term_loop(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    pairs = data.draw(signed_pairs(nvars))
    expected = looped_sum(pairs, nvars)
    assert fused_sum(pairs, nvars) == expected
    assert ring._sum_terms(pairs, nvars) == expected


def test_pairs_on_different_cosets_take_the_full_layout():
    # Every operand has one parity on each axis, but the two pairs' products
    # lie on different cosets: e_s even and odd in one variable, e_v even
    # and odd in two.  The axes with disagreeing parities keep step 1, and
    # the slots of the two pairs' products then differ in parity too, so the
    # union box is decoded unhalved.
    even, odd = {0: 1, 2: 3, 4: -2}, {1: 1, 3: -1, 5: 2}
    b = {0: 2, 2: 1, 6: 1}
    lattice = {(0, 0): 1, (2, 0): 2, (0, 2): -1, (2, 2): 1}
    shifted = {(1, 0): 1, (3, 2): 1, (1, 2): 3}
    # s-exponents 0..11; v-exponents 0..5 by s-exponents 0, 2, 4 (stride 3)
    for nvars, pairs, slots in ((1, [(1, even, b), (-1, odd, b)], 12),
                                (2, [(1, lattice, lattice), (-1, shifted, lattice)], 18)):
        with pytest.MonkeyPatch.context() as mp:
            seen = decoded_slots(mp)
            got = fused_sum(pairs, nvars)
        assert got == looped_sum(pairs, nvars)
        assert seen == [slots]


def test_packed_sums_that_cancel_decode_to_zero(monkeypatch):
    # E_lam(t) H_lam(-t) = 1: past the constant, every coefficient of the
    # product is a sum of products that cancels, here on one packed integer
    sums = []
    real = ring._mul_packed

    def spy(pairs, nvars):
        out = real(pairs, nvars)
        sums.append((len(pairs), out))
        return out

    monkeypatch.setattr(ring, "_mul_packed", spy)
    lam, degree = Partition((3, 2, 1)), 8
    e, h = elementary_series(lam, degree), complete_series(lam, degree)
    assert e.mul(h.negate_t()) == TruncatedSeries.one(degree)
    assert [n for n, out in sums if out == {}] == list(range(4, degree + 2))


# ---------------------------------------------------------------------------
# the sweep division against the division loop it replaced


def div_by_max_rem(num: dict, den: dict):
    """Top term by top term, one max(rem) scan per quotient term: the
    one-variable division loop before the sweep, kept as its oracle."""
    if not num:
        return {}
    dmax = max(den)
    dc = den[dmax]
    qmin = min(num) - min(den)
    quo: dict = {}
    rem = dict(num)
    while rem:
        rmax = max(rem)
        rc = rem[rmax]
        qe = rmax - dmax
        if qe < qmin or rc % dc:
            return None
        qc = rc // dc
        quo[qe] = qc
        for e, c in den.items():
            k = qe + e
            nc = rem.get(k, 0) - qc * c
            if nc:
                rem[k] = nc
            elif k in rem:
                del rem[k]
    return quo


@st.composite
def division_case(draw, nvars):
    """(dividend, divisor): a quotient of up to 150 terms over a span of up
    to 600 (two variables: 3 v-rows), possibly negative, times a divisor
    of 1 to 5 terms, then left exact or bumped by one term: at a random
    exponent, or (one variable) strictly between the dividend's lowest
    exponent and the lowest place the sweep visits."""
    low = draw(st.integers(-400, 100))
    span = draw(st.integers(0, 600))
    key = (lambda ev, es: es) if nvars == 1 else (lambda ev, es: (ev, es))
    rows = 1 if nvars == 1 else 3
    quo = LaurentPoly({key(draw(st.integers(0, rows - 1)), draw(st.integers(low, low + span))):
                       draw(st.integers(-50, 50))
                       for _ in range(draw(st.integers(1, 150)))}, nvars)
    den = LaurentPoly({key(draw(st.integers(0, rows - 1)), draw(st.integers(-4, 4))):
                       draw(st.sampled_from((1, -1, 2, -3)))
                       for _ in range(draw(st.integers(1, 5)))}, nvars)
    num = quo * den
    bump = draw(st.sampled_from(("none", "anywhere", "below")))
    if bump == "none" or not num:
        return num, den
    c = draw(st.integers(-5, 5).filter(bool))
    if nvars == 1 and bump == "below":
        es, ds = list(dict(num.items())), list(dict(den.items()))
        gap = max(ds) - min(ds)
        if gap < 2:
            return num, den
        e = min(es) + draw(st.integers(1, gap - 1))
    else:
        e = key(draw(st.integers(-1, rows)), draw(st.integers(low - 6, low + span + 6)))
    return num + LaurentPoly({e: c}, nvars), den


@settings(max_examples=150, deadline=None)
@given(division_case(1))
def test_sweep_division_matches_max_rem_oracle(case):
    num, den = case
    got = ring._div_terms_1var(dict(num.items()), dict(den.items()))
    assert got == div_by_max_rem(dict(num.items()), dict(den.items()))


@settings(max_examples=80, deadline=None)
@given(division_case(2))
def test_two_variable_division_matches_max_rem_oracle(case):
    num, den = case
    got = num.exact_div(den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_div_terms_1var", div_by_max_rem)
        expected = num.exact_div(den)
    assert got == expected


def test_wrapped_slot_quotient_is_not_a_quotient():
    # (v^2 s^-1 + s^2) / (v s^-1 + v s^-2) on the dividend's slot layout,
    # k = span_s + 1 = 4 slots per row from the least corners: X^8 + X^3
    # over X + 1.  The slots divide, X^3 (X^4 - X^3 + X^2 - X + 1), but
    # the slot X^7 has offset 7 % 4 = 3, past the room 3 - 1 = 2 that a
    # true quotient's s-offsets keep, so it wrapped into the next row.
    num = P2({(2, -1): 1, (0, 2): 1})
    den = P2({(1, -1): 1, (1, -2): 1})
    slots = ring._div_terms_1var({8: 1, 3: 1}, {1: 1, 0: 1})
    assert slots == {7: 1, 6: -1, 5: 1, 4: -1, 3: 1}
    assert any(i % 4 > 2 for i in slots)
    assert num.exact_div(den) is None
    assert (num * den).exact_div(den) == num


def test_divisor_wider_in_s_than_the_dividend_does_not_divide():
    num = P2({(1, 0): 2, (0, 1): -1, (2, 1): 3})
    den = P2({(0, -1): 1, (0, 1): 1})
    assert num.exact_div(den) is None
    assert (num * den).exact_div(num) == den
    assert P2().exact_div(den) == P2()


def test_remainder_only_below_the_sweep_is_not_exact():
    # 121 quotient terms times a divisor of span 6; one bump just above the
    # dividend's lowest exponent lies below every place the sweep visits.
    den = P1({3: 2, 0: 1, -3: -1})
    num = dict((P1({e: 1 for e in range(-60, 61)}) * den).items())
    assert len(num) >= 100
    assert ring._div_terms_1var(num, dict(den.items())) is not None
    num[-62] = num.get(-62, 0) + 1
    assert ring._div_terms_1var(num, dict(den.items())) is None
    assert div_by_max_rem(num, dict(den.items())) is None


def test_one_term_divisor_shifts_and_scales():
    num = {e: 6 * e for e in range(-150, 151, 3) if e}
    assert ring._div_terms_1var(num, {-7: 3}) == {e + 7: 2 * e for e in num}
    assert ring._div_terms_1var(num, {4: 4}) is None


# ---------------------------------------------------------------------------
# lifting a numerator over extra brackets


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lift_is_multiplication_by_the_extra_brackets(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    num = data.draw(boxed_poly(nvars))
    have = data.draw(st.lists(st.integers(1, 4), max_size=3))
    extra = data.draw(st.lists(st.integers(1, 3), max_size=5))
    x = RingElem(num, tuple(have))
    lifted = ring._lift(x, tuple(sorted(x.den + tuple(extra))))
    assert lifted.nvars == nvars
    product = LaurentPoly.one(nvars)
    for k in extra:
        product = product * LaurentPoly.quantum_bracket(k, nvars)
    assert lifted == num * product


def test_lift_by_a_repeated_bracket():
    for nvars in (1, 2):
        num = LaurentPoly.monomial(3, s=1, nvars=nvars) - LaurentPoly.one(nvars)
        lifted = ring._lift(RingElem(num, (1,)), (1, 2, 2, 2))
        assert lifted == num * LaurentPoly.quantum_bracket(2, nvars) ** 3


# ---------------------------------------------------------------------------
# bracket divisibility and lifts by an exact quotient


def bracket_product(den, nvars=1):
    return RingElem(LaurentPoly.one(nvars), tuple(den)).den_poly()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=4), st.lists(st.integers(1, 12), max_size=4))
def test_cyclotomic_divisibility_matches_exact_division(small, big):
    small, big = tuple(sorted(small)), tuple(sorted(big))
    divides = bracket_product(big).exact_div(bracket_product(small)) is not None
    assert ring._divides(small, big) == divides


def test_q_binomial_brackets_divide_without_being_contained():
    for k in range(1, 10):
        whole = tuple(range(1, k + 1))
        for i in range(k + 1):
            parts = tuple(sorted([*range(1, i + 1), *range(1, k - i + 1)]))
            assert ring._divides(parts, whole), (k, i)
            assert bracket_product(whole).exact_div(bracket_product(parts)) is not None
            inside = Counter(parts) <= Counter(whole)
            assert inside == (i in (0, k)), (k, i)
            # [k] holds the cyclotomic factor Phi_2k, which no smaller bracket does
            assert ring._divides(whole, parts) == (i in (0, k)), (k, i)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lift_across_a_q_binomial_is_cross_multiplication(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    num = data.draw(boxed_poly(nvars))
    k = data.draw(st.integers(2, 8))
    i = data.draw(st.integers(1, k - 1))
    parts = (*range(1, i + 1), *range(1, k - i + 1))
    whole = tuple(range(1, k + 1))
    x = RingElem(num, parts)
    lifted = ring._lift(x, whole)
    assert lifted.nvars == nvars
    assert lifted * bracket_product(parts, nvars) == num * bracket_product(whole, nvars)
    assert RingElem(lifted, whole) == x


def test_lift_refuses_brackets_that_do_not_divide():
    num = LaurentPoly.monomial(1, v=1, s=2)
    with pytest.raises(ConsistencyError):
        ring._lift(RingElem(num, (3,)), (2,))
    with pytest.raises(ConsistencyError):
        ring._lift(RingElem(num, (1, 1, 1)), (2, 5))  # Phi_1 thrice, [2][5] twice
    assert ring._lift(RingElem(num, (1, 1)), (2, 5)) * bracket_product((1, 1), 2) == \
        num * bracket_product((2, 5), 2)


def sum_by_adds(pairs, nvars):
    total = RingElem(LaurentPoly.zero(nvars))
    for x, y in pairs:
        total = total + x * y
    return total


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_of_products_matches_pairwise_adds(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    pairs = []
    for _ in range(data.draw(st.integers(0, 5))):
        x, y = (RingElem(data.draw(boxed_poly(nvars)),
                         tuple(data.draw(st.lists(st.integers(1, 5), max_size=3))))
                for _ in range(2))
        pairs.append((x, y))
    got = ring.sum_of_products(pairs, nvars)
    assert got.num.nvars == nvars
    assert got == sum_by_adds(pairs, nvars)
    union = Counter()
    for x, y in pairs:
        if x and y:
            union |= Counter(x.den + y.den)
    assert Counter(got.den) <= union


def test_sum_of_products_takes_the_term_denominator_that_all_divide():
    # [1][2][3] holds [1][1][2] = [1][2] * [1] and [1][1] by q-binomials
    one = RingElem(LaurentPoly.one())
    e = [RingElem(LaurentPoly.monomial(1, v=-k, s=k), tuple(range(1, k + 1))) for k in range(4)]
    got = ring.sum_of_products([(e[i], e[3 - i]) for i in range(4)], 2)
    assert got.den == (1, 2, 3)
    assert got == sum_by_adds([(e[i], e[3 - i]) for i in range(4)], 2)
    # no term's brackets hold both [3] and [4]: the union
    got = ring.sum_of_products([(one, RingElem(LaurentPoly.one(), (3,))),
                                (one, RingElem(LaurentPoly.monomial(1, v=1), (4,)))], 2)
    assert got.den == (3, 4)
    assert ring.sum_of_products([], 1) == RingElem(LaurentPoly.zero(1))


# ---------------------------------------------------------------------------
# RingElem.over against one exact division per excess bracket


def over_per_bracket(x, brackets):
    """RingElem.over as one LaurentPoly.exact_div of the whole numerator per
    excess bracket, largest first."""
    want, have = Counter(brackets), Counter(x.den)
    num = ring._lift(x, tuple(sorted((have | want).elements())))
    for k in sorted((have - want).elements(), reverse=True):
        num = num.exact_div(LaurentPoly.quantum_bracket(k, num.nvars))
        if num is None:
            raise ConsistencyError(f"[{k}] does not divide")
    return RingElem(num, tuple(want.elements()))


def test_over_refuses_when_one_slice_does_not_divide():
    # v * (s - s^-1) + 1: the v^1 slice divides by [1], the v^0 slice does not
    num = P2({(1, 1): 1, (1, -1): -1, (0, 0): 1})
    with pytest.raises(ConsistencyError):
        RingElem(num, (1,)).over(())
    with pytest.raises(ConsistencyError):
        over_per_bracket(RingElem(num, (1,)), ())
    # the one-variable numerator s + 1 over [1]
    with pytest.raises(ConsistencyError):
        RingElem(P1({1: 1, 0: 1}), (1,)).over(())


# ---------------------------------------------------------------------------
# RingElem.over on one packed integer


def packed_over_outcomes(mp):
    """Record, per ``_over_packed`` call, 'packed' or 'raised' and how many
    times it doubled its slot width."""
    seen = []
    widths = []
    real_over, real_pack = ring._over_packed, ring._pack

    def pack(keys, coeffs, w):
        widths.append(w)
        return real_pack(keys, coeffs, w)

    def spy(*args):
        widths.clear()
        try:
            out = real_over(*args)
        except ConsistencyError:
            seen.append(("raised", len(widths) - 1))
            raise
        seen.append(("packed", len(widths) - 1))
        return out

    mp.setattr(ring, "_pack", pack)
    mp.setattr(ring, "_over_packed", spy)
    return seen


@st.composite
def any_parity_poly(draw, nvars):
    """A polynomial of one parity class: on a coset of 2Z x 2Z, a
    checkerboard of e_v + e_s, or of mixed parity, offsets down to -7."""
    kind = draw(st.sampled_from(("lattice", "checkerboard", "mixed")))
    if kind == "mixed":
        return draw(mixed_parity_poly(nvars))
    return draw(one_parity_poly(nvars, draw(st.integers(0, 1)), kind == "lattice"))


@settings(max_examples=350, deadline=None)
@given(st.data())
def test_packed_over_matches_per_bracket_division(data):
    nvars = data.draw(st.sampled_from((1, 2)))
    # boxed polynomials may be zero, and reach coefficients of 2**100
    base = data.draw(st.one_of(any_parity_poly(nvars), boxed_poly(nvars)))
    factors = data.draw(st.lists(st.integers(1, 5), max_size=4))
    extra = data.draw(st.lists(st.integers(1, 5), max_size=3))
    num = base * bracket_product(factors, nvars)
    kind = data.draw(st.sampled_from(("exact", "perturbed", "lifts")))
    if kind == "perturbed":
        e = data.draw(st.integers(-12, 12))
        num = num + LaurentPoly.monomial(data.draw(st.integers(-3, 3).filter(bool)),
                                         v=0 if nvars == 1 else e % 3, s=e, nvars=nvars)
    x = RingElem(num, (*factors, *extra))
    if kind == "lifts":
        target = (*x.den, *data.draw(st.lists(st.integers(1, 6), max_size=4)))
    else:
        target = data.draw(st.lists(st.sampled_from((*factors, *extra, 6)), max_size=5))
    try:
        expected = over_per_bracket(x, target)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            x.over(target)
        return
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        got = x.over(target)
    assert got.den == expected.den == (() if got.is_zero() else tuple(sorted(target)))
    assert dict(got.num.items()) == dict(expected.num.items())
    assert got == x
    if kind == "lifts" and x and len(target) > len(x.den):
        assert outcomes == [("packed", 0)]


def test_ladder_size_over_is_packed():
    lam, mu = Partition((4, 3, 2, 1)), Partition((4, 2, 1))
    value = hopf_invariant(lam, mu)
    extra = (1, 2, 2, 3, 5, 7)
    cases = [(RingElem(value.num * bracket_product(extra, 2), value.den + extra), value.den),
             (value, (*value.den, 4, 4, 1))]
    sl9 = value.substitute_v(9)
    cases.append((sl9, ()))
    for x, target in cases:
        with pytest.MonkeyPatch.context() as mp:
            outcomes = packed_over_outcomes(mp)
            got = x.over(target)
        assert outcomes == [("packed", 0)]
        expected = over_per_bracket(x, target)
        assert got.den == expected.den and got.num == expected.num
    assert len(sl9.num.items()) >= 64 and sl9.over(()).num.nvars == 1


def test_packed_over_raises_on_a_nonzero_remainder():
    value = hopf_invariant(Partition((3, 2, 1)), Partition((2, 2)))
    for nvars, x in ((2, value), (1, value.substitute_v(5))):
        bumped = RingElem(x.num + LaurentPoly.monomial(1, nvars=nvars), x.den)
        with pytest.MonkeyPatch.context() as mp:
            outcomes = packed_over_outcomes(mp)
            with pytest.raises(ConsistencyError):
                bumped.over(())
        assert outcomes == [("raised", 0)]
        with pytest.raises(ConsistencyError):
            over_per_bracket(bumped, ())


@pytest.mark.parametrize("half, doublings", [(30, 1), (3000, 2)])
def test_quotient_too_wide_for_its_slots_widens(half, doublings):
    # -3 (1 - s**(4 half)) (1 + s**2 + ... + s**(4 half - 2)) over [1]: the
    # numerator's coefficients are +-3, so its slots start one byte wide,
    # but the quotient -3 s (1 + s**2 + ... + s**(4 half - 2))**2 peaks at
    # -6 half.  With the digit check's bit, -180 needs two bytes per slot
    # and -18000 four: slots of 1 and 2 bytes, or of 1, 2 and 4.
    run = {2 * i: 3 for i in range(2 * half)}
    x = RingElem(P1({**run, **{e + 4 * half: -c for e, c in run.items()}}), (1,))
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        got = x.over(())
    assert outcomes == [("packed", doublings)]
    square = P1({2 * i: 1 for i in range(2 * half)}) ** 2
    assert got.num == square * P1({1: -3}) == over_per_bracket(x, ()).num
    assert max(-c for _, c in got.num.items()) == 6 * half


def test_large_n_sl_values_widen():
    # The quotient of an sl(N) value outgrows its numerator by about 3 bits
    # per hook bracket at N = 60, past the 2 the first slot width allows.
    lam, mu = Partition((4, 3, 2, 1)), Partition((4, 2, 1))
    hopf_invariant(lam, mu)  # memoised, so the spy sees only the sl(N) over
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        got = hopf_sln_substitution(lam, mu, 60).value
    assert len(outcomes) == 1 and outcomes[0][0] == "packed" and outcomes[0][1] >= 1
    assert got == hopf_sln_minor(lam, mu, 60).value


def test_quotient_rows_that_reach_the_next_row_raise():
    # Rows v^0 and v^1 of R [1] + v^0 s^10 - v^1 s^0: each row is off by
    # one monomial, but the two sit 2 slots apart in the packed layout
    # (12 slots per row), so the integer division by B^2 - 1 is exact and
    # only the quotient's top slots of row v^0 show the rows do not divide.
    r = P1({j: j + 1 for j in range(10)})
    row = r * LaurentPoly.quantum_bracket(1, 1)
    num = P2({(0, e): c for e, c in (row + P1({10: 1})).items()}) + \
        P2({(1, e): c for e, c in (row - P1({0: 1})).items()})
    x = RingElem(num, (1,))
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        with pytest.raises(ConsistencyError):
            x.over(())
    assert outcomes == [("raised", 0)]
    with pytest.raises(ConsistencyError):
        over_per_bracket(x, ())


def test_brackets_wider_than_a_row_raise():
    # (-1 - s) + v (s + s^2) over [2]: 3 slots per row, and the packed
    # integer (B + 1)(B^4 - 1) divides exactly by B^4 - 1, whose 4 slots
    # outspan a row.  So every slot of q must be zero, and q = 1 + B is not.
    x = RingElem(P2({(0, 0): -1, (0, 1): -1, (1, 1): 1, (1, 2): 1}), (2,))
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        with pytest.raises(ConsistencyError):
            x.over(())
    assert outcomes == [("raised", 0)]
    with pytest.raises(ConsistencyError):
        over_per_bracket(x, ())
