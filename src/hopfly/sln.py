"""sl(N) specialisations of the Hopf pairing.

Two independent routes produce the same one-variable value:

* substitution: apply v -> s**-N to the two-variable pairing;
* minors: s**((1-N)(|lam|+|mu|)) * P(lam,mu) / P(empty,empty), where
  P(lam,mu) is the N x N minor of the Vandermonde matrix (q**(i*j)) with
  rows picked by the index set a of mu and columns by the index set of lam.

No minor is expanded as an N x N determinant.  Both entry points share one
pipeline, P(lam,mu) = P(empty,empty) * s_mu(1, q, ..., q**(N-1)) * s_lam(q**a).
By the bialternant formula (Macdonald, Symmetric Functions and Hall
Polynomials, I.3 (3.1)) the generalised Vandermonde determinant P(lam,mu) in
x_i = q**a_i is Delta(x) * s_lam(x), Delta(x) = prod_{i<j} (x_i - x_j), and
Delta(q**a) / P(empty,empty) is s_mu(1, q, ..., q**(N-1)), which the
hook-content formula gives in closed form (Macdonald I.3 Ex. 1).  That
closed form and P(empty,empty) are made of factors q**k - 1 = s**k [k], with
[k] = s**k - s**-k the quantum bracket, so each is the numerator that
``RingElem.over`` gives a monomial over brackets; this module does no
bracket arithmetic of its own.  s_lam(x) is one Jacobi-Trudy determinant of
order min(lam_1, l(lam)): the e-form on E(t) = prod_i (1 + x_i t), or, when
l(lam) < lam_1, the h-form on H(t) = 1 / E(-t).  The minor route takes the
quotient alone, so nothing divides by the reference minor.  Above the ring
layer it shares only ``schur_of_series`` with the substitution route: it
never touches the two-variable series or v -> s**-N.

Values are reported in s; a q = s**2 form exists only when every exponent
is even (the minor prefactor can contribute odd powers of s).  The quantum
group normalisation differs from the pairing by s raised to
-2|lam||mu|/N, which is carried as a symbolic exponent rather than by
extending the coefficient ring to fractional powers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

from .ring import LaurentPoly, RingElem
from .partitions import Partition
from .series import TruncatedSeries, h_form_is_smaller, required_degree, schur_of_series
from .hopf import hopf_invariant


@dataclasses.dataclass(frozen=True)
class SlNResult:
    lam: Partition
    mu: Partition
    n: int
    value: RingElem
    correction_exponent: Fraction

    @property
    def corrected_note(self) -> str:
        e = self.correction_exponent
        return f"quantum-group normalisation multiplies by s^({e.numerator}/{e.denominator})"


def _correction(lam: Partition, mu: Partition, n: int) -> Fraction:
    return Fraction(-2 * lam.size * mu.size, n)


def _index_exponents(lam: Partition, n: int) -> tuple[int, ...]:
    """The s-exponents 2*a_i of x_i = q**a_i, a = index_set(lam, n)."""
    return tuple(2 * a for a in lam.index_set(n))


@functools.lru_cache(maxsize=None)
def _elementary_series(exponents: tuple[int, ...], degree: int) -> TruncatedSeries:
    """prod_i (1 + x_i t) to the given degree, for x_i = s**exponents[i].

    One pass of e_k += x * e_(k-1) per factor, k falling, so every
    coefficient is exact: those past t**len(exponents) are zero.  The terms
    are added as exponent -> coefficient maps; all coefficients are positive,
    so no term cancels.
    """
    coeffs = [{0: 1}] + [{} for _ in range(degree)]
    for i, e in enumerate(exponents):
        for k in range(min(i + 1, degree), 0, -1):
            acc = coeffs[k]
            for a, c in coeffs[k - 1].items():
                acc[a + e] = acc.get(a + e, 0) + c
    return TruncatedSeries(tuple(RingElem(LaurentPoly(c, nvars=1)) for c in coeffs))


@functools.lru_cache(maxsize=None)
def _hook_content(mu: Partition, n: int) -> LaurentPoly:
    """s_mu(1, q, ..., q**(n-1)) = q**n(mu) * prod_cells (q**(n+c) - 1) / (q**h - 1),
    with c the content and h the hook length of each cell (Macdonald I.3
    Ex. 1).  Equal to Delta(q**a) / Delta(q**(n-1), ..., q**0) for
    a = index_set(mu, n).  Since q**k - 1 = s**k [k], that is a monomial
    over the hook brackets, written over the brackets [n+c] by
    ``RingElem.over``; the division must be exact."""
    hooks = mu.hooks()
    weight = sum((i - 1) * p for i, p in enumerate(mu.parts, start=1))
    exponent = 2 * weight + n * mu.size + mu.content_sum() - sum(hooks)
    value = RingElem(LaurentPoly.monomial(1, s=exponent, nvars=1), tuple(hooks))
    return value.over(n + c for c in mu.contents()).num


@functools.lru_cache(maxsize=None)
def _reference_minor(n: int) -> LaurentPoly:
    """P(empty, empty) = Delta(q**(n-1), ..., q**0)
    = q**C(n,3) * prod_{d<n} (q**d - 1)**(n-d): each pair i > j of
    exponents gives q**j * (q**(i-j) - 1).  With q**d - 1 = s**d [d], that
    is a monomial written over the brackets [d]**(n-d) by ``RingElem.over``."""
    exponent = 2 * math.comb(n, 3) + sum(d * (n - d) for d in range(1, n))
    value = RingElem(LaurentPoly.monomial(1, s=exponent, nvars=1))
    return value.over(d for d in range(1, n) for _ in range(n - d)).num


def _minor_quotient(lam: Partition, mu: Partition, n: int) -> LaurentPoly:
    """P(lam, mu) / P(empty, empty) = s_lam(q**a) * s_mu(1, q, ..., q**(n-1))
    for a = index_set(mu, n), with s_lam in the smaller Jacobi-Trudy
    orientation."""
    if n < lam.length or n < mu.length:
        raise ValueError(
            f"need n >= both lengths: n={n}, lam={lam}, mu={mu}"
        )
    # coefficients past t**n are zero; Jacobi-Trudy reads up to lam_1 + l(lam) - 1
    series = _elementary_series(_index_exponents(mu, n), required_degree(lam))
    if h_form_is_smaller(lam):
        schur = schur_of_series(lam.conjugate(), series.negate_t().invert())
    else:
        schur = schur_of_series(lam, series)
    # polynomial entries, so the Schur value has no bracket denominator
    return schur.num * _hook_content(mu, n)


def vandermonde_minor(lam: Partition, mu: Partition, n: int) -> LaurentPoly:
    """The N x N minor of (q**(i*j)) on rows index_set(mu), columns
    index_set(lam), both taken in decreasing order (q = s**2).

    Computed as the reference minor P(empty, empty) times the minor
    quotient: one Jacobi-Trudy determinant of order min(lam_1, l(lam)), no
    N x N matrix.
    """
    return _reference_minor(n) * _minor_quotient(lam, mu, n)


def hopf_sln_minor(lam: Partition, mu: Partition, n: int) -> SlNResult:
    """Minor-quotient route, without either minor: the minor quotient
    P(lam, mu) / P(empty, empty) times s**((1-n)(|lam|+|mu|)), so nothing
    divides by the reference minor."""
    shift = LaurentPoly.monomial(1, s=(1 - n) * (lam.size + mu.size), nvars=1)
    value = _minor_quotient(lam, mu, n) * shift
    return SlNResult(lam, mu, n, RingElem(value), _correction(lam, mu, n))


def hopf_sln_substitution(lam: Partition, mu: Partition, n: int) -> SlNResult:
    """Substitution route v -> s**-n, a Laurent polynomial over no bracket;
    zero exactly when either diagram has more than n parts."""
    value = hopf_invariant(lam, mu).substitute_v(n).over(())
    return SlNResult(lam, mu, n, value, _correction(lam, mu, n))


@dataclasses.dataclass(frozen=True)
class Sl2Check:
    """Outcome of the sl(2) structure check.

    When ``ok``, the specialised pairing equals
    (q**(a*b) - 1)/(q - 1) * s**s_exponent with coefficient exactly one.
    """

    ok: bool
    s_exponent: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def sl2_quantum_check(a: int, b: int, i: int, j: int) -> Sl2Check:
    """Check the sl(2) pairing of the hook-pair shapes (b+j-1, j), (a+i-1, i)
    against the quantum-integer pattern (q**(a*b) - 1)/(q - 1), up to a
    single monomial in s."""
    if a < 1 or b < 1 or i < 0 or j < 0:
        raise ValueError(f"need a, b >= 1 and i, j >= 0, got {(a, b, i, j)}")
    lam = Partition.of(b + j - 1, j)
    mu = Partition.of(a + i - 1, i)
    value = hopf_sln_substitution(lam, mu, 2).value
    if value.is_zero():
        return Sl2Check(False)
    numer = value.num * LaurentPoly({2: 1, 0: -1}, nvars=1)
    denom = LaurentPoly({2 * a * b: 1, 0: -1}, nvars=1)
    quo = numer.exact_div(denom)
    if quo is None or not quo.is_unit_monomial():
        return Sl2Check(False)
    (exponent, _), = quo.items()
    return Sl2Check(True, exponent)
