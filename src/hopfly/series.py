"""Truncated formal power series over RingElem and Schur-function extraction.

A series is a finite coefficient list e_0, ..., e_D; arithmetic never reads
past the truncation degree, and products truncate to the smaller degree of
the factors.  Schur functions are read off from series coefficients by the
Jacobi-Trudy determinant, of order mu_1 or l(mu), or by the Giambelli
determinant, of order d(mu), the Frobenius rank, whose entries are hook
Schur values summed from both series.  ``h_form_is_smaller`` picks which
Jacobi-Trudy orientation the callers build.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .ring import LaurentPoly, RingElem, det_fractions, sum_of_products
from .partitions import Partition


@dataclasses.dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients e_0..e_D of a formal power series, exact and immutable."""

    coeffs: tuple[RingElem, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def one(cls, degree: int, like: RingElem | None = None) -> "TruncatedSeries":
        nvars = 2 if like is None else like.num.nvars
        one = RingElem(LaurentPoly.one(nvars))
        zero = RingElem(LaurentPoly.zero(nvars))
        return cls((one,) + (zero,) * degree)

    @classmethod
    def linear_factor(cls, u: RingElem, degree: int) -> "TruncatedSeries":
        """1 + u*t to the requested degree."""
        one = cls.one(degree, like=u).coeffs
        return cls((one[:1] + (u,) + one[2:])[: degree + 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> RingElem:
        if k < 0:
            return RingElem(LaurentPoly.zero(self.coeffs[0].num.nvars))
        if k > self.degree:
            raise ValueError(f"coefficient {k} beyond truncation degree {self.degree}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to the smaller degree.  Coefficient k,
        the sum of self_i * other_(k-i), is summed by ``sum_of_products``
        over one bracket multiset.  For decoration series that is
        [1]...[k]: term i is over [1]...[i] [1]...[k-i], and the quotient
        is a q-binomial."""
        d = min(self.degree, other.degree)
        nvars = self.coeffs[0].num.nvars
        return TruncatedSeries(tuple(
            sum_of_products(zip(self.coeffs[:k + 1], reversed(other.coeffs[:k + 1])), nvars)
            for k in range(d + 1)
        ))

    def invert(self) -> "TruncatedSeries":
        """The series B with self * B = 1 to the truncation degree:
        B_k = -(sum of self_i * B_(k-i) for i = 1..k), each summed by
        ``sum_of_products`` over one bracket multiset, as in ``mul``.

        Requires constant coefficient 1, so the recursion stays integral.
        """
        if not (self.coeffs[0] == 1):
            raise ValueError("series inversion needs constant coefficient 1")
        nvars = self.coeffs[0].num.nvars
        out = [RingElem(LaurentPoly.one(nvars))]
        for k in range(1, self.degree + 1):
            out.append(-sum_of_products(zip(self.coeffs[1:k + 1], reversed(out)), nvars))
        return TruncatedSeries(tuple(out))

    def scale_t(self, alpha: RingElem) -> "TruncatedSeries":
        """The series of t -> alpha*t: coefficient k picks up alpha**k."""
        out = [self.coeffs[0]]
        power = RingElem(LaurentPoly.one(alpha.num.nvars))
        for k in range(1, self.degree + 1):
            power = power * alpha
            out.append(self.coeffs[k] * power)
        return TruncatedSeries(tuple(out))

    def negate_t(self) -> "TruncatedSeries":
        """The series of t -> -t."""
        out = [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)]
        return TruncatedSeries(tuple(out))

    def map_coeffs(self, f: Callable[[RingElem], RingElem]) -> "TruncatedSeries":
        return TruncatedSeries(tuple(f(c) for c in self.coeffs))

    def __str__(self) -> str:
        pieces = [f"({self.coeffs[0]})"]
        for k in range(1, self.degree + 1):
            t = "t" if k == 1 else f"t^{k}"
            pieces.append(f"({self.coeffs[k]}) {t}")
        return " + ".join(pieces)


def required_degree(mu: Partition) -> int:
    """Largest series coefficient that a Jacobi-Trudy or Giambelli
    determinant for mu reads."""
    if mu.size == 0:
        return 0
    return mu.length + mu.parts[0] - 1


def h_form_is_smaller(mu: Partition) -> bool:
    """Whether s_mu is cheaper as the h-form, of order l(mu), than as the
    e-form, of order mu_1.  Ties keep the e-form."""
    return mu.length < mu.part(1)


def schur_of_series(mu: Partition, series: TruncatedSeries) -> RingElem:
    """Jacobi-Trudy determinant det(e_{mu'_i + j - i}) of the coefficients.

    The matrix has order mu_1; coefficients with negative index are zero and
    an index beyond the truncation degree raises rather than truncating.
    Read on elementary coefficients e_k it is s_mu (the e-form).  Given the
    complete coefficients h_k of H(t) = 1 / E(-t) and the conjugate mu'
    instead, the same matrix det(h_{mu_i + j - i}) is s_mu at order l(mu)
    (the h-form; Macdonald I.3 (3.4) and (3.5)).  Both forms read up to
    degree l(mu) + mu_1 - 1, so ``required_degree`` serves either.  The
    value is over the brackets of the row-cleared matrix; none cancels.
    """
    if mu.size == 0:
        return RingElem(LaurentPoly.one(series.coeffs[0].num.nvars))
    conj = mu.conjugate()
    r = mu.parts[0]
    needed = required_degree(mu)
    if needed > series.degree:
        raise ValueError(
            f"Schur extraction for {mu} needs degree {needed}, series has {series.degree}"
        )
    matrix = [
        [series.coeff(conj.part(i) + j - i) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]
    return det_fractions(matrix)


def schur_by_giambelli(mu: Partition, e: TruncatedSeries, h: TruncatedSeries) -> RingElem:
    """Giambelli determinant det(s_(alpha_i | beta_j)) of order d(mu), where
    (alpha | beta) = ``mu.frobenius()`` (Macdonald I.3 Ex. 9).

    e holds the elementary coefficients e_k and h the complete ones h_k of
    H(t) = 1 / E(-t).  Each hook value s_(a|b) is the shorter of two
    alternating sums, added up by ``sum_of_products``:

        b <= a:  sum_(k=0..b) (-1)**k h_(a+1+k) e_(b-k)
        b > a:   sum_(k=0..a) (-1)**k e_(b+1+k) h_(a-k)

    Both read at most coefficient a + b + 1 <= ``required_degree(mu)``.
    """
    nvars = e.coeffs[0].num.nvars
    if mu.size == 0:
        return RingElem(LaurentPoly.one(nvars))
    needed = required_degree(mu)
    if needed > min(e.degree, h.degree):
        raise ValueError(
            f"Giambelli extraction for {mu} needs degree {needed}, "
            f"series have {e.degree} and {h.degree}"
        )
    e, h = e.coeffs, h.coeffs

    def hook(a: int, b: int) -> RingElem:
        if b <= a:
            pairs = [(h[a + 1 + k], e[b - k]) for k in range(b + 1)]
        else:
            pairs = [(e[b + 1 + k], h[a - k]) for k in range(a + 1)]
        return sum_of_products(((x, -y if k % 2 else y) for k, (x, y) in enumerate(pairs)), nvars)

    arms, legs = mu.frobenius()
    return det_fractions([[hook(a, b) for b in legs] for a in arms])
