"""sl(N) specialisations of the Hopf pairing.

Two independent routes produce the same one-variable value:

* substitution: apply v -> s**-N to the two-variable pairing;
* minors: s**((1-N)(|lam|+|mu|)) * P(lam,mu) / P(empty,empty), where
  P(lam,mu) is the N x N minor of the Vandermonde matrix (q**(i*j)) with
  rows picked by the index set of mu and columns by the index set of lam.

Values are reported in s; a q = s**2 form exists only when every exponent
is even (the minor prefactor can contribute odd powers of s).  The quantum
group normalisation differs from the pairing by s raised to
-2|lam||mu|/N, which is carried as a symbolic exponent rather than by
extending the coefficient ring to fractional powers.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .ring import ConsistencyError, LaurentPoly, RingElem, determinant
from .partitions import EMPTY, Partition
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


def vandermonde_minor(lam: Partition, mu: Partition, n: int) -> LaurentPoly:
    """The N x N minor of (q**(i*j)) on rows index_set(mu), columns
    index_set(lam), both taken in decreasing order (q = s**2)."""
    if n < lam.length or n < mu.length:
        raise ValueError(
            f"need n >= both lengths: n={n}, lam={lam}, mu={mu}"
        )
    rows = mu.index_set(n)
    cols = lam.index_set(n)
    matrix = [[LaurentPoly.monomial(1, s=2 * i * j, nvars=1) for j in cols] for i in rows]
    return determinant(matrix)


def hopf_sln_minor(lam: Partition, mu: Partition, n: int) -> SlNResult:
    """Minor-quotient route; the division is exact by construction and a
    failure is a hard internal error."""
    minor = vandermonde_minor(lam, mu, n)
    reference = vandermonde_minor(EMPTY, EMPTY, n)
    shifted = minor * LaurentPoly.monomial(1, s=(1 - n) * (lam.size + mu.size), nvars=1)
    quo = shifted.exact_div(reference)
    if quo is None:
        raise ConsistencyError(
            f"minor quotient failed to be exact at ({lam}, {mu}, N={n})"
        )
    return SlNResult(lam, mu, n, RingElem(quo), _correction(lam, mu, n))


def hopf_sln_substitution(lam: Partition, mu: Partition, n: int) -> SlNResult:
    """Substitution route v -> s**-n; zero exactly when either diagram has
    more than n parts."""
    value = hopf_invariant(lam, mu).value.substitute_v(n)
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
    denom = LaurentPoly({2 * a * b: 1, 0: -1}, nvars=1) * value.den_poly()
    quo = numer.exact_div(denom)
    if quo is None or not quo.is_unit_monomial():
        return Sl2Check(False)
    (exponent, _), = quo.items()
    return Sl2Check(True, exponent)


def sln_elementary_factors(lam: Partition, n: int) -> tuple[RingElem, ...]:
    """Linear-factor parameters s**(n + 2*lam_j - 2j + 1), j = 1..n, whose
    product expansion equals the specialised column series of lam."""
    if n < lam.length:
        raise ValueError(f"need n >= number of parts: n={n}, lam={lam}")
    return tuple(
        RingElem(LaurentPoly.monomial(1, s=n + 2 * lam.part(j) - 2 * j + 1, nvars=1))
        for j in range(1, n + 1)
    )
