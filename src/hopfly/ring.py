"""Exact arithmetic underlying the decorated Hopf link invariants.

Two value types live here:

* ``LaurentPoly``: integer Laurent polynomials.  Each value carries its ring
  as ``nvars``: 2 for polynomials in the framing variable ``v`` and the
  quantum parameter ``s``, 1 for polynomials in ``s`` alone, the target of
  the ``v = s**-N`` specialisation.  Only the multiplication and
  exact-division kernels depend on the arity; a one-variable value whose
  exponents are all even can be displayed in ``q = s**2``.
* ``RingElem``: a quotient ``num / prod_k (s**k - s**-k)`` whose numerator is
  a ``LaurentPoly`` of either arity.  Denominators are stored structurally as
  a multiset of bracket indices ``k``; cancellation is therefore a sequence
  of exact division trials rather than a two-variable gcd.  Equality never
  depends on normalisation: two elements are equal iff they agree after
  cross multiplication.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence, Union


class ConsistencyError(RuntimeError):
    """An internal identity that must hold exactly failed to hold."""


# ---------------------------------------------------------------------------
# raw term-dict kernels, one per arity


def _div_terms_1var(num: dict, den: dict) -> Optional[dict]:
    """Exact single-variable Laurent division of term dicts, or None.

    Works top down by leading exponents; aborts as soon as either a
    coefficient fails to divide or the candidate quotient exponent drops
    below the only value it can take for an exact quotient.
    """
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


def _div_terms_2var(num: dict, den: dict) -> Optional[dict]:
    """Exact two-variable Laurent division of term dicts, or None.

    Both operands are shifted so all exponents are non-negative (monomials
    are units, so this does not change divisibility), then divided greedily
    by graded-lex leading terms.  For an exact quotient every greedy step
    succeeds, so any failed step proves non-divisibility.
    """
    if not num:
        return {}
    av = min(e[0] for e in num)
    asx = min(e[1] for e in num)
    bv = min(e[0] for e in den)
    bs = min(e[1] for e in den)
    rem = {(e[0] - av, e[1] - asx): c for e, c in num.items()}
    dshift = {(e[0] - bv, e[1] - bs): c for e, c in den.items()}

    def grlex(e):
        return (e[0] + e[1], e)

    lead = max(dshift, key=grlex)
    lc = dshift[lead]
    quo: dict = {}
    while rem:
        rmax = max(rem, key=grlex)
        rc = rem[rmax]
        qe = (rmax[0] - lead[0], rmax[1] - lead[1])
        if qe[0] < 0 or qe[1] < 0 or rc % lc:
            return None
        qc = rc // lc
        quo[qe] = qc
        for e, c in dshift.items():
            k = (qe[0] + e[0], qe[1] + e[1])
            nc = rem.get(k, 0) - qc * c
            if nc:
                rem[k] = nc
            elif k in rem:
                del rem[k]
    shift_v = av - bv
    shift_s = asx - bs
    return {(e[0] + shift_v, e[1] + shift_s): c for e, c in quo.items()}


# ---------------------------------------------------------------------------


def _from_terms(data: dict, nvars: int) -> "LaurentPoly":
    """Wrap an already normalised term dict without copying it."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = data
    out.nvars = nvars
    return out


class LaurentPoly:
    """Integer Laurent polynomial in ``v`` and ``s`` or in ``s`` alone.

    ``nvars`` is the ring: 2 for ``Z[v, v^-1, s, s^-1]``, whose terms map
    exponent pairs ``(e_v, e_s)`` to coefficients, and 1 for ``Z[s, s^-1]``,
    the target of the ``v = s**-N`` specialisation, whose terms map plain
    int exponents.  Coefficients are nonzero; the zero polynomial has an
    empty term map.  Values of different arity never mix: the operators
    return ``NotImplemented``.
    """

    __slots__ = ("_terms", "nvars")

    def __init__(self, terms: Union[Mapping, Iterable[tuple]] = (), nvars: int = 2):
        if nvars not in (1, 2):
            raise ValueError(f"nvars must be 1 or 2, got {nvars!r}")
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, c in items:
            if c:
                k = key if nvars == 1 else (key[0], key[1])
                nc = data.get(k, 0) + c
                if nc:
                    data[k] = nc
                elif k in data:
                    del data[k]
        self._terms = data
        self.nvars = nvars

    @classmethod
    def monomial(cls, coeff: int = 1, v: int = 0, s: int = 0, nvars: int = 2) -> "LaurentPoly":
        """coeff * v**v * s**s; a one-variable monomial has ``v == 0``."""
        if nvars == 1 and v:
            raise ValueError("a one-variable monomial has no v exponent")
        return cls({(v, s) if nvars == 2 else s: coeff}, nvars)

    @classmethod
    def constant(cls, c: int, nvars: int = 2) -> "LaurentPoly":
        return cls.monomial(c, nvars=nvars)

    @classmethod
    def zero(cls, nvars: int = 2) -> "LaurentPoly":
        return cls((), nvars)

    @classmethod
    def one(cls, nvars: int = 2) -> "LaurentPoly":
        return cls.constant(1, nvars)

    @classmethod
    def quantum_bracket(cls, k: int, nvars: int = 2) -> "LaurentPoly":
        """The factor s**k - s**-k admitted in denominators."""
        if k < 1:
            raise ValueError(f"quantum bracket index must be >= 1, got {k}")
        return cls.monomial(1, s=k, nvars=nvars) - cls.monomial(1, s=-k, nvars=nvars)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_unit_monomial(self) -> bool:
        return len(self._terms) == 1 and next(iter(self._terms.values())) == 1

    def all_even(self) -> bool:
        """Whether every s-exponent of a one-variable value is even."""
        return all(e % 2 == 0 for e in self._terms)

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.nvars)
        if isinstance(other, LaurentPoly) and other.nvars == self.nvars:
            return other
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()}, self.nvars)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            nc = data.get(e, 0) + c
            if nc:
                data[e] = nc
            elif e in data:
                del data[e]
        return _from_terms(data, self.nvars)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly({e: c * other for e, c in self._terms.items()}, self.nvars)
        if not isinstance(other, LaurentPoly) or other.nvars != self.nvars:
            return NotImplemented
        # Dict convolution, one loop per key shape.
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        data: dict = {}
        if self.nvars == 1:
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    k = e1 + e2
                    nc = data.get(k, 0) + c1 * c2
                    if nc:
                        data[k] = nc
                    elif k in data:
                        del data[k]
        else:
            for (v2, s2), c2 in b.items():
                for (v1, s1), c1 in a.items():
                    k = (v1 + v2, s1 + s2)
                    nc = data.get(k, 0) + c1 * c2
                    if nc:
                        data[k] = nc
                    elif k in data:
                        del data[k]
        return _from_terms(data, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_v(self, n: int) -> "LaurentPoly":
        """Apply the ring map v -> s**-n, sending v**a s**b to s**(b - n*a)."""
        if self.nvars != 2:
            raise TypeError("substitute_v needs a two-variable polynomial")
        if n < 1:
            raise ValueError(f"specialisation index must be >= 1, got {n}")
        data: dict[int, int] = {}
        for (ev, es), c in self._terms.items():
            e = es - n * ev
            nc = data.get(e, 0) + c
            if nc:
                data[e] = nc
            elif e in data:
                del data[e]
        return _from_terms(data, 1)

    def exact_div(self, other: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Return q with self == other * q, or None when no such q exists."""
        if other.nvars != self.nvars:
            raise TypeError("exact division mixes one- and two-variable polynomials")
        if not other._terms:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.nvars == 1:
            quo = _div_terms_1var(self._terms, other._terms)
            return None if quo is None else LaurentPoly(quo, 1)
        if all(e[0] == 0 for e in other._terms):
            # Divisor involves only s: divide every v-slice separately.
            den1 = {e[1]: c for e, c in other._terms.items()}
            slices: dict[int, dict[int, int]] = {}
            for (ev, es), c in self._terms.items():
                slices.setdefault(ev, {})[es] = c
            data: dict[tuple[int, int], int] = {}
            for ev, sl in slices.items():
                q = _div_terms_1var(sl, den1)
                if q is None:
                    return None
                for es, c in q.items():
                    data[(ev, es)] = c
            return LaurentPoly(data)
        quo = _div_terms_2var(self._terms, other._terms)
        return None if quo is None else LaurentPoly(quo)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r}, nvars={self.nvars})"


# ---------------------------------------------------------------------------
# fractions with structural quantum-bracket denominators

_DEN_POLY_CACHE: dict = {}


def _den_poly(nvars: int, den: tuple[int, ...]) -> LaurentPoly:
    key = (nvars, den)
    cached = _DEN_POLY_CACHE.get(key)
    if cached is None:
        cached = LaurentPoly.one(nvars)
        for k in den:
            cached = cached * LaurentPoly.quantum_bracket(k, nvars)
        _DEN_POLY_CACHE[key] = cached
    return cached


@dataclasses.dataclass(frozen=True, eq=False)
class RingElem:
    """num / prod(s**k - s**-k), with num a one- or two-variable Laurent poly.

    ``den`` is the multiset of bracket indices, stored sorted.  Two elements
    are equal iff cross multiplication agrees, so any representative is as
    good as any other; ``reduced`` only tidies the representative.
    """

    num: LaurentPoly
    den: tuple[int, ...] = ()

    def __post_init__(self):
        if any(k < 1 for k in self.den):
            raise ValueError(f"bracket indices must be >= 1, got {self.den}")
        den = () if self.num.is_zero() else tuple(sorted(self.den))
        object.__setattr__(self, "den", den)

    __hash__ = None  # value equality is cross-multiplicative; not hashable

    def _coerce(self, other):
        if isinstance(other, int):
            return RingElem(LaurentPoly.constant(other, self.num.nvars))
        if isinstance(other, RingElem):
            return other
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def den_poly(self):
        return _den_poly(self.num.nvars, self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        ca, cb = Counter(self.den), Counter(other.den)
        common = ca & cb
        ea = tuple(sorted((ca - common).elements()))
        eb = tuple(sorted((cb - common).elements()))
        nvars = self.num.nvars
        return self.num * _den_poly(nvars, eb) == other.num * _den_poly(nvars, ea)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.num, self.den)

    def __add__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RingElem(self.num + other.num, self.den)
        ca, cb = Counter(self.den), Counter(other.den)
        union = ca | cb
        ea = tuple(sorted((union - ca).elements()))
        eb = tuple(sorted((union - cb).elements()))
        nvars = self.num.nvars
        num = self.num * _den_poly(nvars, ea) + other.num * _den_poly(nvars, eb)
        return RingElem(num, tuple(sorted(union.elements())))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.num * other.num, tuple(sorted(self.den + other.den)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElem":
        if n < 0:
            raise ValueError("negative powers are not defined for RingElem")
        result = RingElem(LaurentPoly.one(self.num.nvars))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reduced(self) -> "RingElem":
        """Cancel bracket factors out of the denominator, largest index first.

        Best effort only; the value is unchanged.
        """
        num = self.num
        if num.is_zero() or not self.den:
            return self
        remaining = list(self.den)
        for k in sorted(set(remaining), reverse=True):
            bracket = LaurentPoly.quantum_bracket(k, num.nvars)
            while k in remaining:
                quo = num.exact_div(bracket)
                if quo is None:
                    break
                num = quo
                remaining.remove(k)
        return RingElem(num, tuple(remaining))

    def substitute_v(self, n: int) -> "RingElem":
        """Image under v -> s**-n; denominators map factor by factor."""
        return RingElem(self.num.substitute_v(n), self.den).reduced()

    def __str__(self) -> str:
        return format_ring_elem(self)

    def __repr__(self) -> str:
        return f"RingElem({format_ring_elem(self)!r})"


# ---------------------------------------------------------------------------
# determinants of exact matrices


def determinant(matrix: Sequence[Sequence], bareiss_threshold: int = 12):
    """Determinant of a square matrix of Laurent polynomials.

    Minor expansion with memoisation on the column set for small orders,
    fraction-free Bareiss elimination above; both are exact.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no well-defined entry type")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n <= bareiss_threshold:
        return _det_expansion(matrix)
    return _det_bareiss(matrix)


def _det_expansion(matrix):
    n = len(matrix)
    nvars = matrix[0][0].nvars
    memo = {0: LaurentPoly.one(nvars)}

    def minor(mask: int):
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        total = LaurentPoly.zero(nvars)
        sign = 1
        m = mask
        while m:
            bit = m & (-m)
            col = bit.bit_length() - 1
            entry = matrix[row][col]
            if entry:
                term = entry * minor(mask & ~bit)
                total = total + term if sign > 0 else total - term
            sign = -sign
            m &= m - 1
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


def _det_bareiss(matrix):
    n = len(matrix)
    nvars = matrix[0][0].nvars
    m = [list(row) for row in matrix]
    sign = 1
    prev = LaurentPoly.one(nvars)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(nvars)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                quo = num.exact_div(prev)
                if quo is None:
                    raise ConsistencyError("Bareiss division failed to be exact")
                m[i][j] = quo
            m[i][k] = LaurentPoly.zero(nvars)
        prev = m[k][k]
    result = m[n - 1][n - 1]
    return result if sign > 0 else -result


def det_fractions(matrix: Sequence[Sequence[RingElem]]) -> RingElem:
    """Determinant of a square RingElem matrix.

    Each row is cleared to a common bracket denominator first, so the actual
    determinant runs over plain polynomials.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].num.nvars
    cleared = []
    total_den: list[int] = []
    for row in matrix:
        union = Counter()
        for entry in row:
            union |= Counter(entry.den)
        total_den.extend(union.elements())
        new_row = []
        for entry in row:
            extra = tuple(sorted((union - Counter(entry.den)).elements()))
            new_row.append(entry.num * _den_poly(nvars, extra))
        cleared.append(new_row)
    det = determinant(cleared)
    return RingElem(det, tuple(sorted(total_den)))


# ---------------------------------------------------------------------------
# canonical text and JSON forms


def format_poly(p: LaurentPoly, variable: str = "s") -> str:
    """Sum of ``c*v^a*s^b`` (two variables) or ``c*s^b`` (one variable)
    terms, sorted by exponent descending.

    ``variable='q'`` rewrites the s-exponents in q = s**2 and requires them
    all even.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for e, c in sorted(p.items(), reverse=True):
        ev, es = e if p.nvars == 2 else (None, e)
        if variable == "q":
            if es % 2:
                raise ValueError("odd s-exponent has no q form")
            es //= 2
        v_part = "" if ev is None else f"v^{ev}*"
        body = f"{abs(c)}*{v_part}{variable}^{es}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def format_ring_elem(x: RingElem) -> str:
    num = format_poly(x.num)
    if not x.den:
        return num
    brackets = "".join(f"[{k}]" for k in x.den)
    return f"({num}) / {brackets}"


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+)?\s*\*?\s*(?:v\^(?P<ev>-?\d+))?\s*\*?\s*"
    r"(?:(?P<var>[sq])\^(?P<es>-?\d+))?\s*$"
)


def _split_sum(text: str) -> list[tuple[int, str]]:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].lstrip()
    elif text.startswith("+"):
        text = text[1:].lstrip()
    tokens = re.split(r"\s+([+-])\s+", text)
    out = [(sign, tokens[0])]
    for op, chunk in zip(tokens[1::2], tokens[2::2]):
        out.append((1 if op == "+" else -1, chunk))
    return out


def _parse_term(chunk: str, univariate: bool):
    m = _TERM_RE.match(chunk)
    if not m or not chunk.strip():
        raise ValueError(f"cannot parse term {chunk!r}")
    if m.group("coeff") is None and m.group("ev") is None and m.group("es") is None:
        raise ValueError(f"cannot parse term {chunk!r}")
    coeff = 1 if m.group("coeff") is None else int(m.group("coeff"))
    ev = 0 if m.group("ev") is None else int(m.group("ev"))
    es = 0 if m.group("es") is None else int(m.group("es"))
    if m.group("var") == "q":
        es *= 2
    if univariate and ev:
        raise ValueError(f"unexpected v in single-variable term {chunk!r}")
    return coeff, ev, es


def parse_poly(text: str, univariate: bool = False) -> LaurentPoly:
    """Parse a sum of terms; ``univariate`` reads a polynomial in s alone."""
    terms = []
    for sign, chunk in _split_sum(text):
        coeff, ev, es = _parse_term(chunk, univariate)
        terms.append((es if univariate else (ev, es), sign * coeff))
    return LaurentPoly(terms, 1 if univariate else 2)


_BRACKETS_RE = re.compile(r"(?:\s*\[\d+\])+\s*")


def parse_ring_elem(text: str, univariate: bool = False) -> RingElem:
    """Parse the canonical ``(num) / [k1][k2]...`` serialisation."""
    text = text.strip()
    den: tuple[int, ...] = ()
    if "/" in text:
        num_part, den_part = text.rsplit("/", 1)
        if not _BRACKETS_RE.fullmatch(den_part):
            raise ValueError(f"expected bracket factors [k] after '/', got {den_part.strip()!r}")
        den = tuple(sorted(int(k) for k in re.findall(r"\[(\d+)\]", den_part)))
        text = num_part.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    return RingElem(parse_poly(text, univariate), den)


def ring_elem_to_json(x: RingElem) -> dict:
    """JSON object mirroring the term map, plus the canonical text form."""
    terms = sorted(x.num.items(), reverse=True)
    if x.num.nvars == 2:
        num = [[ev, es, c] for (ev, es), c in terms]
    else:
        num = [[e, c] for e, c in terms]
    return {"vars": x.num.nvars, "num": num, "den": list(x.den), "text": format_ring_elem(x)}


def ring_elem_from_json(obj: Mapping) -> RingElem:
    """Inverse of ``ring_elem_to_json``; the ``text`` field is not read.

    Raises ValueError unless ``vars`` is 1 or 2 (it is inferred from the
    term length when absent) and every term holds exactly ``vars + 1``
    integers.
    """
    den = tuple(sorted(int(k) for k in obj.get("den", ())))
    nvars = obj.get("vars")
    num_terms = obj["num"]
    if nvars is None:
        nvars = 2 if any(len(t) == 3 for t in num_terms) else 1
    if nvars not in (1, 2):
        raise ValueError(f"vars must be 1 or 2, got {nvars!r}")
    for t in num_terms:
        if len(t) != nvars + 1 or not all(isinstance(x, int) for x in t):
            raise ValueError(f"a {nvars}-variable term is {nvars + 1} integers, got {t!r}")
    terms = [((t[0], t[1]) if nvars == 2 else t[0], t[-1]) for t in num_terms]
    return RingElem(LaurentPoly(terms, nvars), den)
