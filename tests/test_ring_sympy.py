"""Differential tests of the Laurent kernels against sympy's ``Poly``.

Each Laurent polynomial is shifted by a monomial to a plain polynomial
(every exponent >= 0, the least one 0 in each variable) before sympy sees
it, and sympy's answer is shifted back.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfly.ring as ring
from hopfly.hopf import hopf_invariant
from hopfly.partitions import partitions_up_to
from hopfly.ring import ConsistencyError, LaurentPoly, RingElem

sympy = pytest.importorskip("sympy")

V, S = sympy.symbols("v s")


@st.composite
def laurent(draw, nvars, s_only=False, max_terms=4, max_exp=3, max_coeff=6):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        es = draw(st.integers(-max_exp, max_exp))
        ev = 0 if s_only else draw(st.integers(-max_exp, max_exp))
        c = draw(st.integers(-max_coeff, max_coeff))
        terms.append((es if nvars == 1 else (ev, es), c))
    return LaurentPoly(terms, nvars)


def nonzero(strategy):
    return strategy.filter(lambda p: not p.is_zero())


def exps(p):
    """Term map of p with every key a tuple of exponents."""
    return {(e if p.nvars == 2 else (e,)): c for e, c in p.items()}


def to_sympy(p):
    """(plain sympy Poly, exponent shift) with p == shift-monomial * poly."""
    terms = exps(p)
    gens = (V, S) if p.nvars == 2 else (S,)
    shift = tuple(min(e[i] for e in terms) for i in range(p.nvars))
    plain = {tuple(a - b for a, b in zip(e, shift)): c for e, c in terms.items()}
    return sympy.Poly.from_dict(plain, *gens, domain=sympy.ZZ), shift


def from_sympy(poly, shift):
    """Term map, keyed by exponent tuples, of shift-monomial * poly."""
    return {
        tuple(a + b for a, b in zip(e, shift)): int(c)
        for e, c in poly.as_dict().items()
        if c
    }


arity = st.sampled_from((1, 2))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_matches_sympy(data):
    n = data.draw(arity)
    a = data.draw(nonzero(laurent(n)))
    b = data.draw(nonzero(laurent(n)))
    (pa, sa), (pb, sb) = to_sympy(a), to_sympy(b)
    shift = tuple(x + y for x, y in zip(sa, sb))
    assert exps(a * b) == from_sympy(pa * pb, shift)


@st.composite
def dense_laurent(draw, nvars):
    """20 to 25 distinct terms in a 24-wide (one variable) or 5 x 5 (two
    variables) exponent box, nonzero coefficients up to 2**80 in size: dense
    enough that any product of two takes the packed kernel."""
    box = ([(e,) for e in range(-12, 12)] if nvars == 1
           else [(ev, es) for ev in range(-3, 2) for es in range(-1, 4)])
    keys = draw(st.lists(st.sampled_from(box), min_size=20, max_size=25, unique=True))
    big = 2 ** 80
    coeffs = st.integers(-big, big).filter(bool)
    return LaurentPoly({(k[0] if nvars == 1 else k): draw(coeffs) for k in keys}, nvars)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dense_mul_is_packed_and_matches_sympy(data):
    n = data.draw(arity)
    a, b = data.draw(dense_laurent(n)), data.draw(dense_laurent(n))
    calls = []
    real = ring._mul_packed

    def spy(pairs, nvars):
        out = real(pairs, nvars)
        calls.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_mul_packed", spy)
        product = a * b
    assert calls == [True]
    (pa, sa), (pb, sb) = to_sympy(a), to_sympy(b)
    shift = tuple(x + y for x, y in zip(sa, sb))
    assert exps(product) == from_sympy(pa * pb, shift)


@st.composite
def lattice_laurent(draw, size=5):
    """20 to 25 distinct two-variable terms on one coset of 2Z x 2Z, in a
    ``size`` x ``size`` box of it at an offset from -7 up, nonzero
    coefficients up to 2**40 in size."""
    ov, os = draw(st.integers(-7, 7)), draw(st.integers(-7, 7))
    box = [(ov + 2 * i, os + 2 * j) for i in range(size) for j in range(size)]
    keys = draw(st.lists(st.sampled_from(box), min_size=20, max_size=25, unique=True))
    coeffs = st.integers(-2 ** 40, 2 ** 40).filter(bool)
    return LaurentPoly({k: draw(coeffs) for k in keys})


def packed_spy(mp, name):
    """Record, per call of ``ring.<name>``, whether it returned a result."""
    calls = []
    real = getattr(ring, name)

    def spy(*args):
        out = real(*args)
        calls.append(out is not None)
        return out

    mp.setattr(ring, name, spy)
    return calls


@settings(max_examples=30, deadline=None)
@given(lattice_laurent(), lattice_laurent())
def test_lattice_mul_is_packed_and_matches_sympy(a, b):
    with pytest.MonkeyPatch.context() as mp:
        calls = packed_spy(mp, "_mul_packed")
        product = a * b
    assert calls == [True]
    (pa, sa), (pb, sb) = to_sympy(a), to_sympy(b)
    shift = tuple(x + y for x, y in zip(sa, sb))
    assert exps(product) == from_sympy(pa * pb, shift)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_sum_matches_sympy(data):
    # 2 to 4 signed products of dense or lattice operands, each moved by its
    # own monomial so that the pairs' products may lie on different cosets
    # of 2Z (x 2Z), added on one packed integer however sparse the sum
    n = data.draw(arity)
    operand = dense_laurent(n) if n == 1 else st.one_of(dense_laurent(2), lattice_laurent())
    shift = st.integers(-3, 3)

    def moved(p):
        e = data.draw(shift) if n == 1 else (data.draw(shift), data.draw(shift))
        return p * LaurentPoly({e: 1}, n)

    pairs = [(data.draw(st.sampled_from((1, -1))), moved(data.draw(operand)), moved(data.draw(operand)))
             for _ in range(data.draw(st.integers(2, 4)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_PACKED_MIN_PRODUCTS_PER_SLOT", 0)
        got = ring._mul_packed([(sign, dict(a.items()), dict(b.items())) for sign, a, b in pairs], n)
    # every product moved to one common exponent origin before sympy adds
    gens = (V, S) if n == 2 else (S,)
    shifted = [(sign, to_sympy(a), to_sympy(b)) for sign, a, b in pairs]
    low = [min(sa[i] + sb[i] for _, (_, sa), (_, sb) in shifted) for i in range(n)]
    total = sympy.Poly(0, *gens, domain=sympy.ZZ)
    for sign, (pa, sa), (pb, sb) in shifted:
        origin = sympy.Poly.from_dict({tuple(x + y - lo for x, y, lo in zip(sa, sb, low)): sign},
                                      *gens, domain=sympy.ZZ)
        total += pa * pb * origin
    assert {(e if n == 2 else (e,)): c for e, c in got.items()} == from_sympy(total, low)


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


def bracket_poly(ks):
    """prod (s**(2k) - 1) over ks as a sympy Poly in v, s: the bracket
    product prod [k] times s**sum(ks)."""
    out = sympy.Poly(1, V, S)
    for k in ks:
        out *= sympy.Poly(S ** (2 * k) - 1, V, S)
    return out


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_packed_over_matches_sympy(data):
    base = data.draw(lattice_laurent(6))
    factors = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    target = data.draw(st.lists(st.integers(1, 4), max_size=3))
    assume(sorted(target) != sorted(factors))
    num = base
    for k in factors:
        num = num * LaurentPoly.quantum_bracket(k)
    with pytest.MonkeyPatch.context() as mp:
        outcomes = packed_over_outcomes(mp)
        got = RingElem(num, tuple(factors)).over(target)
    assert outcomes == [("packed", 0)]
    assert got.den == tuple(sorted(target))
    # num * prod [target] / prod [factors], divided by sympy
    pn, (sv, ss) = to_sympy(num)
    quo, rem = (pn * bracket_poly(target)).div(bracket_poly(factors))
    assert rem.is_zero
    assert exps(got.num) == from_sympy(quo, (sv, ss - sum(target) + sum(factors)))


@settings(max_examples=80, deadline=None)
@given(nonzero(laurent(2)), st.integers(1, 5))
def test_substitute_v_matches_sympy(p, n):
    poly, (sv, ss) = to_sympy(p)
    top = poly.degree(V)
    # s**(n*top) * P(s**-n, s) is a plain polynomial in s.
    image = sympy.Poly(sympy.expand(poly.as_expr().subs(V, S ** -n) * S ** (n * top)), S)
    expected = from_sympy(image, (ss - n * sv - n * top,))
    assert exps(p.substitute_v(n)) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_divides_back(data):
    n = data.draw(arity)
    s_only = data.draw(st.booleans())
    a = data.draw(laurent(n))
    b = data.draw(nonzero(laurent(n, s_only=s_only)))
    assert (a * b).exact_div(b) == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_div_agrees_with_sympy(data):
    n = data.draw(arity)
    s_only = data.draw(st.booleans())
    b = data.draw(nonzero(laurent(n, s_only=s_only, max_terms=3, max_exp=2, max_coeff=3)))
    # Mix true multiples with arbitrary dividends so both verdicts occur;
    # a dense cofactor gives dividends of at least 20 terms.
    kind = data.draw(st.sampled_from(("multiple", "dense", "arbitrary")))
    if kind == "arbitrary":
        a = data.draw(laurent(n))
    else:
        cofactor = (dense_laurent(n) if kind == "dense"
                    else laurent(n, max_terms=3, max_exp=2, max_coeff=3))
        a = b * data.draw(cofactor)
        a = a + data.draw(laurent(n, max_terms=1, max_exp=2, max_coeff=2))
        if kind == "dense":
            assume(len(a.items()) >= 20)
    got = a.exact_div(b)
    if a.is_zero():
        assert got is not None and got.is_zero()
        return
    (pa, sa), (pb, sb) = to_sympy(a), to_sympy(b)
    quo, rem = pa.div(pb)
    exact = rem.is_zero and all(c.is_integer for c in quo.coeffs())
    if not exact:
        assert got is None
    else:
        assert got is not None
        shift = tuple(x - y for x, y in zip(sa, sb))
        assert exps(got) == from_sympy(quo, shift)


def test_pairings_print_in_lowest_terms():
    # [k] = s**-k (s**(2k) - 1) is s**-k times the cyclotomic Phi_d(s) over
    # d | 2k, so no such Phi_d may divide the printed numerator.
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            value = hopf_invariant(lam, mu)
            num, _ = to_sympy(value.num)
            for d in {d for k in value.den for d in sympy.divisors(2 * k)}:
                phi = sympy.Poly(sympy.cyclotomic_poly(d, S), V, S)
                assert not num.rem(phi).is_zero, (lam, mu, d)
