"""The decorated Hopf link pairing and the series feeding it.

The two-variable invariant of the Hopf link whose components carry the
closed idempotents of two Young diagrams is computed as

    pairing(lam, mu) = s_mu(E_lam(t)) * unknot(lam)

where E_lam is the generating series of the pairings of lam against single
columns, expressed as an explicit rational multiple of the empty-diagram
series via the diagonal (arm, leg) data of lam, and s_mu is a determinant
in its coefficients.  lam always supplies the series and mu the Schur side;
symmetry of the result is a theorem that the test suite checks, not a
shortcut the implementation takes.  The Schur side is the determinant of
smallest order: Giambelli's, of order d(mu), on the hook values of E_lam
and of the row series H_lam = 1 / E_lam(-t) when d(mu) < min(mu_1, l(mu));
otherwise the Jacobi-Trudy e-form of order mu_1 on E_lam, or, when
l(mu) < mu_1, its h-form of order l(mu) on H_lam.  Ties keep Jacobi-Trudy.
"""

from __future__ import annotations

import collections
import functools
from typing import Iterable

from .ring import LaurentPoly, RingElem
from .partitions import Partition, column_partition, hook_partition, row_partition
from .series import (
    TruncatedSeries,
    h_form_is_smaller,
    required_degree,
    schur_by_giambelli,
    schur_of_series,
)


@functools.lru_cache(maxsize=None)
def eval_unknot(lam: Partition) -> RingElem:
    """Unknot evaluation: product over cells of
    (v**-1 s**cn - v s**-cn) / (s**hl - s**-hl)."""
    num = LaurentPoly.one()
    for cn in lam.contents():
        num = num * LaurentPoly({(-1, cn): 1, (1, -cn): -1})
    return RingElem(num, tuple(lam.hooks()))


def framing_factor(lam: Partition) -> RingElem:
    """Positive-curl eigenvalue v**-|lam| s**(2 * content sum)."""
    return RingElem(LaurentPoly.monomial(1, -lam.size, 2 * lam.content_sum()))


@functools.lru_cache(maxsize=None)
def elementary_series_empty(degree: int, sign: int = 1) -> TruncatedSeries:
    """Evaluation series of the empty diagram by the one-cell recursion.

    sign = +1 gives the column series E_empty = 1 + sum_r unknot(1**r) t**r,
    where coefficient r+1 adds the numerator factor v**-1 s**-r - v s**r;
    sign = -1 gives the row series H_empty = 1 + sum_r unknot((r)) t**r,
    where it adds v**-1 s**r - v s**-r.  Either way it adds the bracket r+1.
    """
    coeffs = [RingElem(LaurentPoly.one())]
    num = LaurentPoly.one()
    den: list[int] = []
    for r in range(degree):
        num = num * LaurentPoly({(-1, -sign * r): 1, (1, sign * r): -1})
        den.append(r + 1)
        coeffs.append(RingElem(num, tuple(den)))
    return TruncatedSeries(tuple(coeffs))


def _factor_pair(up: int, down: int) -> tuple[RingElem, RingElem]:
    """(v**-1 s**up, v**-1 s**down)."""
    return (RingElem(LaurentPoly.monomial(1, -1, up)),
            RingElem(LaurentPoly.monomial(1, -1, down)))


def hook_factors(lam: Partition) -> list[tuple[RingElem, RingElem]]:
    """Pairs (v**-1 s**(2a_i+1), v**-1 s**(-2b_i-1)), one per diagonal hook
    (a_i | b_i) of lam."""
    return [_factor_pair(2 * a + 1, -2 * b - 1) for a, b in zip(*lam.frobenius())]


def times_factors(
    series: TruncatedSeries, pairs: Iterable[tuple[RingElem, RingElem]]
) -> TruncatedSeries:
    """series * prod (1 + u t) / (1 + w t) over the pairs (u, w), one pass
    b_k = a_k + (u a_(k-1) - w b_(k-1)) per pair.  On a decoration series the
    grouped terms share [1]...[k-1], so b_k is lifted once, by [k]."""
    for u, w in pairs:
        a = series.coeffs
        out = [a[0]]
        for k in range(1, len(a)):
            out.append(a[k] + (u * a[k - 1] - w * out[k - 1]))
        series = TruncatedSeries(tuple(out))
    return series


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PrefixMemo:
    """Memo of one decoration series per diagram, built at the largest
    degree asked for so far.  Coefficient k of the series depends only on
    coefficients up to k, so a call at a lower degree returns a prefix of
    the kept series, the same representation that a build at that degree
    gives.  ``__wrapped__`` is the uncached function; ``cache_info`` and
    ``cache_clear`` behave as those of ``functools.lru_cache``, a miss
    being a build."""

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self._series: dict = {}
        self._hits = self._misses = 0

    def __call__(self, lam: Partition, degree: int) -> TruncatedSeries:
        series = self._series.get(lam)
        if series is None or series.degree < degree:
            self._misses += 1
            series = self._series[lam] = self.__wrapped__(lam, degree)
        else:
            self._hits += 1
        return series if series.degree == degree else TruncatedSeries(series.coeffs[:degree + 1])

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, None, len(self._series))

    def cache_clear(self) -> None:
        self._series.clear()
        self._hits = self._misses = 0


@_PrefixMemo
def elementary_series(lam: Partition, degree: int) -> TruncatedSeries:
    """Column series E_lam = E_empty * prod_i (1 + u_i t) / (1 + w_i t) over
    the diagonal-hook factors (u_i, w_i) of lam."""
    return times_factors(elementary_series_empty(degree), hook_factors(lam))


def elementary_series_by_rows(lam: Partition, degree: int) -> TruncatedSeries:
    """The unsimplified row-by-row product
    prod_j (1 + v**-1 s**(2 lam_j - 2j + 1) t) / (1 + v**-1 s**(-2j+1) t) * E_empty.

    Same value as ``elementary_series``; kept as an independent route for
    identity checks.
    """
    pairs = [_factor_pair(2 * lam.part(j) - 2 * j + 1, -2 * j + 1)
             for j in range(1, lam.length + 1)]
    return times_factors(elementary_series_empty(degree), pairs)


@_PrefixMemo
def complete_series(lam: Partition, degree: int) -> TruncatedSeries:
    """Row series H_lam = 1 / E_lam(-t), as the mirror product
    H_empty * prod_i (1 - w_i t) / (1 - u_i t)."""
    pairs = [(-w, -u) for u, w in hook_factors(lam)]
    return times_factors(elementary_series_empty(degree, -1), pairs)


@functools.lru_cache(maxsize=None)
def _hopf_value(lam: Partition, mu: Partition) -> RingElem:
    """s_mu(E_lam) over hooks(mu), times unknot(lam) over hooks(lam).

    s_mu is the determinant of smallest order: Giambelli's, of order d(mu),
    when that is below min(mu_1, l(mu)), otherwise the smaller Jacobi-Trudy
    orientation; ties keep Jacobi-Trudy.  Every form has the value s_mu,
    whose product with the brackets of hooks(mu) is a Laurent polynomial
    (row i of the Jacobi-Trudy matrix on nu, mu' for the e-form and mu for
    the h-form, clears to [1]...[nu_i + l(nu) - i], which holds the hook
    lengths of row i of nu; Macdonald I.1 Ex. 1), so every excess bracket
    divides."""
    degree = required_degree(mu)
    if mu.diagonal_length < min(mu.part(1), mu.length):
        s_mu = schur_by_giambelli(mu, elementary_series(lam, degree), complete_series(lam, degree))
    elif h_form_is_smaller(mu):
        s_mu = schur_of_series(mu.conjugate(), complete_series(lam, degree))
    else:
        s_mu = schur_of_series(mu, elementary_series(lam, degree))
    return s_mu.over(mu.hooks()) * eval_unknot(lam)


def hopf_invariant(lam: Partition, mu: Partition) -> RingElem:
    """The two-variable pairing s_mu(E_lam) * unknot(lam)."""
    return _hopf_value(lam, mu)


def hopf_column_row_closed(i: int, j: int) -> RingElem:
    """Closed form of the pairing of a column of i cells with a row of j cells:

        unknot(col) * unknot(row) *
            (v**-1 (s**2j - s**(2(j-i)) + s**-2i) - v) / (v**-1 - v)

    The denominator v**-1 - v is cancelled against the content-zero cell of
    the column factor, so the result stays a bracket fraction.
    """
    if i < 0 or j < 0:
        raise ValueError("column and row sizes must be >= 0")
    col = column_partition(i)
    row = row_partition(j)
    if i == 0 and j == 0:
        return RingElem(LaurentPoly.one())
    if i == 0:
        return eval_unknot(row)
    if j == 0:
        return eval_unknot(col)
    num = LaurentPoly(
        {(-1, 2 * j): 1, (-1, 2 * (j - i)): -1, (-1, -2 * i): 1, (1, 0): -1}
    )
    # Column cells except (1,1), whose factor is exactly v**-1 - v.
    for r in range(2, i + 1):
        cn = 1 - r
        num = num * LaurentPoly({(-1, cn): 1, (1, -cn): -1})
    for c in range(1, j + 1):
        cn = c - 1
        num = num * LaurentPoly({(-1, cn): 1, (1, -cn): -1})
    return RingElem(num, tuple(col.hooks() + row.hooks()))


def content_polynomial(lam: Partition, u: RingElem, degree: int) -> TruncatedSeries:
    """prod over cells of (1 + q**cn(x) u t) with q = s**2, truncated."""
    series = TruncatedSeries.one(degree, like=u)
    for (i, j) in lam.cells():
        q_power = LaurentPoly.monomial(1, s=2 * (j - i), nvars=u.num.nvars)
        factor = u * RingElem(q_power)
        series = series.mul(TruncatedSeries.linear_factor(factor, degree))
    return series


def curl_identity_check(i: int, j: int) -> bool:
    """Check the doubled-curl count two ways: through the column/row pairing
    and through the two-hook expansion of the column-times-row product."""
    if i < 1 or j < 1:
        raise ValueError("curl identity needs i >= 1 and j >= 1")
    col = column_partition(i)
    row = row_partition(j)
    lhs = framing_factor(col) * framing_factor(row) * hopf_column_row_closed(i, j)
    tall = hook_partition(i + 1, j)
    wide = hook_partition(i, j + 1)
    rhs = framing_factor(wide) * eval_unknot(wide) + framing_factor(tall) * eval_unknot(tall)
    return lhs == rhs
