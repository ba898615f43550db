"""Exact arithmetic underlying the decorated Hopf link invariants.

Two value types live here:

* ``LaurentPoly``: integer Laurent polynomials.  Each value carries its ring
  as ``nvars``: 2 for polynomials in the framing variable ``v`` and the
  quantum parameter ``s``, 1 for polynomials in ``s`` alone, the target of
  the ``v = s**-N`` specialisation.  A one-variable value whose exponents
  are all even can be displayed in ``q = s**2``.
* ``RingElem``: a quotient ``num / prod_k (s**k - s**-k)`` whose numerator is
  a ``LaurentPoly`` of either arity.  Denominators are stored structurally as
  a multiset of bracket indices ``k``, never found by a two-variable gcd.
  Equality never depends on normalisation: two elements are equal iff they
  agree after cross multiplication.

Kernels: one term loop, one division sweep and one slot layout, for both
arities.  Almost every value is a sum of products (a Cauchy coefficient
of a series product or inverse, a Giambelli hook value, a minor of the
determinant expansion), and a product is a sum of one.  Two-variable
terms are keyed ``(e_v, e_s)``; inside a kernel they become slots
(``_slot_keys``): rows of a stride K above the s-span, counted from the
least corner, which is Kronecker substitution v = X**K, s = X.  A sum
with at least ``_PACKED_MIN_PRODUCTS_PER_SLOT`` term products per slot
of the union of its products' exponent boxes goes to ``_mul_packed``:
every operand is packed into one Python int over that shared layout,
each pair's integer product is shifted onto it, the signed products are
added, and the sum is decoded once.  Each exponent axis whose exponents
have one parity within each operand, and one parity of min a + min b
across the pairs, is packed at step 2, and when every pair's products
then land on slots of one parity of the packed e_v + e_s, only every
other slot can be occupied, and the kernel packs those alone.  Every
Jacobi-Trudy entry and Giambelli hook value lies on a coset of 2Z x 2Z,
so those products pack a quarter of their exponent box; a checkerboard
of e_v + e_s, and a one-variable product of one parity, pack half.  A
product with a one-term operand shifts the other operand's keys and
scales its coefficients.  The products of a sparser sum each go to the
term loop ``_addmul`` (acc += a * b), or alone to ``_mul_packed`` when
dense enough by themselves, and are added term by term; a two-variable
product runs the term loop on its operands' slots at K = span_s(a) +
span_s(b) + 1.  Exact division is ``_div_terms_1var``, one sweep down
the dividend's exponents over a dense remainder list; a two-variable
quotient is that of the slots at K = span_s(num) + 1, accepted only when
every quotient slot keeps its s-offset within span_s(num) - span_s(den).
Values are stored as term dicts either way; slots live only inside one
kernel call.

Denominators: bracket multisets are sorted tuples, and ``_bracket_plan``
works out, once per pair of them, their union and the brackets each one
lacks.  ``_lift`` rewrites a numerator over a bracket multiset whose
product the numerator's own bracket product divides.  Over a multiset
that contains its own, which is all that equality, addition, ``den_poly``
and ``det_fractions`` need, it multiplies by one bracket s**k - s**-k at a
time, as a shift up minus a shift down.  Otherwise ``RingElem.over``
writes it over the multiset, which multiplies it by a quotient of bracket
products such as the q-binomial [1]...[k] / ([1]...[i] [1]...[k-i]);
``_divides`` decides divisibility from the cyclotomic factors of the
brackets.  ``sum_of_products``, the coefficient sum of a series product,
uses that branch to sum over one term's brackets instead of their union.
``RingElem.over`` is the one place that divides by brackets: it writes a
value over a given multiset, shifting in the brackets the value lacks and
dividing out the excess ones exactly.  It forms those lifts, the closed
forms of the sl(N) minor route, whose factors q**k - 1 are s**k [k], and
every printed value, whose denominator a theorem fixes: a pairing is over
hooks(lam) + hooks(mu), an sl(N) value over no bracket.  It packs the
numerator into one integer (``_over_packed``): each missing bracket is a
shift-subtract, and one integer ``divmod`` divides by all the excess
ones, at a slot width that doubles until the quotient fits its slots.  A
bracket that does not divide exactly raises ``ConsistencyError``.

Determinants: memoised minor expansion on the column set, for every matrix
the library builds; each minor is one signed sum of products.
Fraction-free Bareiss elimination (``_det_bareiss``) is kept only as the
independent oracle of the ``bialternant`` verify check.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import itertools
import operator
import re
import sys
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence, Union


class ConsistencyError(RuntimeError):
    """An internal identity that must hold exactly failed to hold."""


# ---------------------------------------------------------------------------
# raw term-dict kernels over int exponents; two-variable values run through
# them on a slot layout (see ``_slot_keys``)


def _addmul(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b for int-keyed term dicts, dropping cancelled terms."""
    if len(a) < len(b):
        a, b = b, a
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            k = e1 + e2
            nc = acc.get(k, 0) + c1 * c2
            if nc:
                acc[k] = nc
            elif k in acc:
                del acc[k]


def _div_terms_1var(num: dict, den: dict) -> Optional[dict]:
    """Exact single-variable Laurent division of term dicts, or None.

    One sweep down the exponents of num, from its top to the lowest place
    where a quotient term can still lead: each nonzero remainder
    coefficient there gives one quotient term, or proves non-divisibility
    when the divisor's leading coefficient does not divide it.  Whatever
    remains below the sweep is a remainder, so the division is not exact.
    The remainder lives in a list over num's span, so the cost is
    O(span + #quotient * #den).
    """
    if not num:
        return {}
    dmax = max(den)
    dc = den[dmax]
    low = min(num)
    # The quotient's lowest exponent is min(num) - min(den), so the lowest
    # remainder place that can lead a quotient term is that plus dmax.
    stop = dmax - min(den)
    rem = [0] * (max(num) - low + 1)
    for e, c in num.items():
        rem[e - low] = c
    # A place the sweep has passed is never read again, so subtracting the
    # divisor's leading term, which only clears that place, is skipped.
    tail = [(e - dmax, c) for e, c in den.items() if e != dmax]
    qshift = low - dmax
    quo: dict = {}
    for i in range(len(rem) - 1, stop - 1, -1):
        rc = rem[i]
        if rc:
            qc, r = divmod(rc, dc)
            if r:
                return None
            quo[i + qshift] = qc
            for j, c in tail:
                rem[i + j] -= qc * c
    return None if any(rem[:stop]) else quo


# ---------------------------------------------------------------------------
# the packed (Kronecker substitution) multiply-accumulate for dense sums of
# products


# Least number of term products per slot of a packed sum of products
# (counting the slots of its compressed, possibly halved layout of the
# union box) at which ``_mul_packed`` replaces the term loop.  Replaying
# every sum of the three default-seed benchmark workloads (best of 7, four
# rounds), thresholds 1, 1.5, 2, 3 and 4 stayed within the host's noise
# of each other, about 10 %: verify's sums took 0.32-0.47 s, against
# 1.08-1.37 s on the term loop alone; ladder's 0.040-0.068 s against
# 0.93-1.08 s; sln's 0.005-0.009 s against 0.009-0.014 s.  So the value
# chosen for single products stands: each product of two operands of
# at least two terms, in each default-seed benchmark workload, was timed on
# both kernels (replayed operands, best of 5 per product, Python 3.11.7,
# shared 2-vCPU host), and each threshold charged the kernel it picks.
# Against the term loop alone, thresholds 1, 1.5, 2, 3 and 4 saved 1.499,
# 1.500, 1.500, 1.499 and 1.498 s of ladder's 1.605 s; 0.010 s of sln's
# 0.016 s at each; and 0.851, 0.875, 0.890, 0.883 and 0.851 s of verify's
# 1.413 s.  Below 2, verify's products of under about 100 term products
# get packed, and there the packing's fixed cost exceeds the term loop.
_PACKED_MIN_PRODUCTS_PER_SLOT = 2

# Translation table from the top byte of a two's-complement slot to the
# byte that sign-extends it.
_SIGN_BYTE = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _pack(keys: list, coeffs, w: int) -> int:
    """Sum of c * 2**(8*w*k) over the distinct slot indices k and the
    coefficients c, each strictly between -2**(8*w-1) and 2**(8*w-1).

    For w <= 8 each slot holds c + 2**(8*w-1), a nonnegative digit, in one
    array of eight-byte words, narrowed to w bytes a byte plane at a time;
    one subtraction of the bias from the whole integer undoes the shift.
    Wider slots are written one ``to_bytes`` slice per term.  Writing every
    width that way made the (6,5,4,3,2,1) self-pairing about 7 % slower
    (34 of 40 alternating in-process runs) and a verify pass about 0.13 s
    slower."""
    n = max(keys) + 1
    if w > 8:
        pos = bytearray(n * w)
        neg = bytearray(n * w)
        for k, c in zip(keys, coeffs):
            o = k * w
            if c > 0:
                pos[o:o + w] = c.to_bytes(w, "little")
            else:
                neg[o:o + w] = (-c).to_bytes(w, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    half = 1 << (8 * w - 1)
    slots = array.array("Q", (half,)) * n
    for k, c in zip(keys, coeffs):
        slots[k] = c + half
    if sys.byteorder == "big":
        slots.byteswap()
    raw = slots.tobytes()
    if w < 8:
        buf = bytearray(n * w)
        for j in range(w):
            buf[j::w] = raw[j::8]
        raw = buf
    return int.from_bytes(raw, "little") - int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _unpack(p: int, w: int, n: int) -> list:
    """The n signed w-byte slots of p, lowest first; each must lie strictly
    between -2**(8*w-1) and 2**(8*w-1)."""
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    # Biasing makes every slot a nonnegative digit, so the slots no longer
    # borrow from each other; flipping each top bit back leaves each slot
    # in two's complement.
    buf = ((p + bias) ^ bias).to_bytes(n * w, "little")
    if w > 8:
        return [int.from_bytes(buf[i:i + w], "little", signed=True)
                for i in range(0, n * w, w)]
    # Widen each slot to eight bytes, one byte plane at a time.
    wide = bytearray(8 * n)
    for j in range(w):
        wide[j::8] = buf[j::w]
    sign = buf[w - 1::w].translate(_SIGN_BYTE)
    for j in range(w, 8):
        wide[j::8] = sign
    slots = array.array("q", wide)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _one_parity(keys: list) -> bool:
    """Whether every key has the parity of the first."""
    return not (functools.reduce(operator.or_, keys) ^ functools.reduce(operator.and_, keys)) & 1


def _box(x: dict, nvars: int) -> list:
    """Per exponent axis of the nonempty term dict x, v then s, with v = 0
    throughout in one variable: its least and greatest exponent, and their
    common parity, or None when they take both."""
    out = [] if nvars == 2 else [(0, 0, 0)]
    for keys in ((x,) if nvars == 1 else zip(*x)):
        lo = min(keys)
        out.append((lo, max(keys), lo & 1 if _one_parity(keys) else None))
    return out


def _slot_keys(x: dict, nvars: int, v0: int, s0: int, hv: int, hs: int, stride: int) -> list:
    """The slot of each exponent of the term dict x, in order, on the one
    layout of every two-variable kernel: rows of ``stride`` slots, s
    varying fastest, counted from the corner (v0, s0) at steps 2**hv and
    2**hs, so (e_v, e_s) sits at

        (e_v - v0 >> hv) * stride + (e_s - s0 >> hs).

    A one-variable value is its single row.  This is Kronecker substitution
    v = X**stride, s = X: while every s-offset of a value lies in [0,
    stride), its slots are one-to-one with its exponents, and a product of
    values is the product of their slots placed at the sum of their
    corners.  So a product or exact quotient whose s-offsets stay inside a
    row is the one-variable product or quotient of the slots."""
    if nvars == 1:
        return [e - s0 >> hs for e in x]
    return [(ev - v0 >> hv) * stride + (es - s0 >> hs) for ev, es in x]


def _slotted(x: dict, v0: int, s0: int, stride: int) -> dict:
    """The two-variable term dict x keyed by its slots at step 1."""
    return dict(zip(_slot_keys(x, 2, v0, s0, 0, 0, stride), x.values()))


def _unslotted(x: dict, v0: int, s0: int, stride: int) -> dict:
    """Inverse of ``_slotted``: slot i is (v0 + i // stride, s0 + i % stride)."""
    return {(v0 + i // stride, s0 + i % stride): c for i, c in x.items()}


def _s_window(x: dict) -> tuple:
    """(least e_v, least e_s, s-span) of a nonempty two-variable term dict,
    from one min/max pass per axis: ``_box``'s parity scans cost the term
    loop's small products too much."""
    vs, ss = zip(*x)
    lo = min(ss)
    return min(vs), lo, max(ss) - lo


def _decode_slots(coeffs: list, nvars: int, v0: int, s0: int, hv: int, hs: int, rows: int,
                  stride: int, par: Optional[int] = None) -> dict:
    """Term dict of the nonzero slots of a packed layout that ``_slot_keys``
    keyed: rows of ``stride`` slots, from the corner (v0, s0) at steps 2**hv
    and 2**hs.  A halved layout holds only the slots of parity par, so its
    slot i is slot 2i + par of the full one."""
    keys = range(s0, s0 + (stride << hs), 1 << hs)
    if nvars == 2:
        keys = itertools.product(range(v0, v0 + (rows << hv), 1 << hv), keys)
    if par is not None:
        keys = itertools.islice(keys, par, None, 2)
    return dict(zip(itertools.compress(keys, coeffs), itertools.compress(coeffs, coeffs)))


def _mul_packed(pairs: list, nvars: int) -> Optional[dict]:
    """The sum of sign * a * b over (sign, a, b) triples of nonempty term
    dicts of either arity, by Kronecker substitution, or None when the
    products are too sparse for it to pay.

    Every pair is packed into one layout over the union of the products'
    exponent boxes: a slot of w bytes per exponent (per (e_v, e_s) pair, s
    varying fastest with an odd stride above the union's s-span).  a is
    packed from the least corner of its own exponent box, b from that of
    its own, and their integer product is shifted to the slot of the sum of
    the two corners, so every product lands on the shared slots; the signed
    products are added as integers and the sum is decoded once.  Each axis
    is first compressed by its step: 2 when every operand's exponents on it
    have one parity and every pair's sum of corners has one parity on it,
    so that all the products' exponents on it do too, else 1.  Then, when
    each operand's slot indices share one parity and every pair's products
    land on slots of one parity P, which the odd stride makes true whenever
    e_v + e_s has one parity on the compressed lattice, slot k is packed at
    k >> 1: the integers and the decode are halved, and decoded slot i is
    index 2i + P.  So products on a coset of 2Z x 2Z, as every Jacobi-Trudy
    entry and Giambelli hook value is, pack a quarter of their exponent
    box, and those of one parity of e_v + e_s alone (a checkerboard) or in
    one variable half of it.  The coefficient of a product sums at most
    min(#a, #b) term products, so a coefficient of the sum is at most the
    sum over the pairs of max|a| * max|b| * min(#a, #b), which fixes w.
    """
    per_slot = _PACKED_MIN_PRODUCTS_PER_SLOT
    products = sum(len(a) * len(b) for _, a, b in pairs)
    # A product has at least #a + #b - 1 slots, even halved: skip the layout
    # when even the largest such count would be too sparse.  Then reject on
    # the (n + 1) // 2 slots of a halved layout of the union box, before any
    # key list or parity scan of the operands' slots.
    if products < per_slot * max(len(a) + len(b) - 1 for _, a, b in pairs):
        return None
    boxes = [(_box(a, nvars), _box(b, nvars)) for _, a, b in pairs]
    # per axis, v then s: the products' least exponent, log2 of the step,
    # and the number of slots
    layout = []
    for axis in (0, 1):
        los, his, parities = [], [], set()
        for box_a, box_b in boxes:
            (alo, ahi, apar), (blo, bhi, bpar) = box_a[axis], box_b[axis]
            los.append(alo + blo)
            his.append(ahi + bhi)
            parities.add(None if apar is None or bpar is None else apar ^ bpar)
        h = int(len(parities) == 1 and None not in parities)
        layout.append((min(los), h, (max(his) - min(los) >> h) + 1))
    (lv, hv, rows), (ls, hs, cols) = layout
    stride = cols | 1 if nvars == 2 else cols
    n = rows * stride
    if products < per_slot * ((n + 1) // 2):
        return None
    keyed = []
    for (sign, a, b), (((va, _, _), (sa, _, _)), ((vb, _, _), (sb, _, _))) in zip(pairs, boxes):
        keyed.append((sign, a, b, _slot_keys(a, nvars, va, sa, hv, hs, stride),
                      _slot_keys(b, nvars, vb, sb, hv, hs, stride),
                      (va + vb - lv >> hv) * stride + (sa + sb - ls >> hs)))
    # the parity of the slots every pair's products land on, when each
    # operand's slots have one parity
    parities = {(off + ka[0] + kb[0]) & 1 if _one_parity(ka) and _one_parity(kb) else None
                for _, _, _, ka, kb, off in keyed}
    par = parities.pop() if len(parities) == 1 else None
    if par is not None:
        keyed = [(sign, a, b, [k >> 1 for k in ka], [k >> 1 for k in kb],
                  off + (ka[0] & 1) + (kb[0] & 1) - par >> 1)
                 for sign, a, b, ka, kb, off in keyed]
        n = (n - par + 1) // 2
    elif products < per_slot * n:
        return None
    bound = sum(max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
                for _, a, b in pairs)
    w = bound.bit_length() // 8 + 1
    bits = 8 * w
    total = 0
    for sign, a, b, ka, kb, off in keyed:
        p = _pack(ka, a.values(), w) * _pack(kb, b.values(), w) << bits * off
        total = total + p if sign > 0 else total - p
    return _decode_slots(_unpack(total, w, n), nvars, lv, ls, hv, hs, rows, stride, par)


def _mul_terms(a: dict, b: dict, nvars: int) -> dict:
    """Terms of a * b for nonempty term dicts: a one-term operand shifts the
    other's keys and scales its coefficients; a dense pair goes to
    ``_mul_packed``, and the rest to the term loop."""
    if len(a) == 1 or len(b) == 1:
        big, mono = (a, b) if len(b) == 1 else (b, a)
        ((e0, c0),) = mono.items()
        if nvars == 1:
            return {e + e0: c * c0 for e, c in big.items()}
        v0, s0 = e0
        return {(ev + v0, es + s0): c * c0 for (ev, es), c in big.items()}
    data = _mul_packed([(1, a, b)], nvars)
    if data is None and nvars == 1:
        data = {}
        _addmul(data, a, b)
    elif data is None:
        (va, sa, span_a), (vb, sb, span_b) = _s_window(a), _s_window(b)
        k = span_a + span_b + 1
        acc: dict = {}
        _addmul(acc, _slotted(a, va, sa, k), _slotted(b, vb, sb, k))
        data = _unslotted(acc, va + vb, sa + sb, k)
    return data


def _sum_terms(pairs: list, nvars: int) -> dict:
    """Terms of the sum of sign * a * b over (sign, a, b) triples of nonempty
    term dicts: one ``_mul_packed`` call for the whole sum when it is dense
    enough, else each product by ``_mul_terms``, added term by term."""
    if len(pairs) > 1:
        data = _mul_packed(pairs, nvars)
        if data is not None:
            return data
    elif pairs and pairs[0][0] > 0:
        return _mul_terms(pairs[0][1], pairs[0][2], nvars)
    acc: dict = {}
    get = acc.get
    for sign, a, b in pairs:
        for e, c in _mul_terms(a, b, nvars).items():
            acc[e] = get(e, 0) + c if sign > 0 else get(e, 0) - c
    return {e: c for e, c in acc.items() if c}


def _check_exponent(key, nvars: int) -> None:
    """Raise ValueError unless key is an int (one variable) or a pair of
    ints (two variables); bools are not ints here.  The slot layouts
    compute with exponents as ints."""
    exps = (key,) if nvars == 1 else key
    if type(exps) is not tuple or tuple(map(type, exps)) != (int,) * nvars:
        raise ValueError(f"a {nvars}-variable exponent is {nvars} int(s), got {key!r}")


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
        for k, c in items:
            _check_exponent(k, nvars)
            if c:
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
        if nvars not in (1, 2):
            raise ValueError(f"nvars must be 1 or 2, got {nvars!r}")
        if nvars == 1 and v:
            raise ValueError("a one-variable monomial has no v exponent")
        _check_exponent((v, s) if nvars == 2 else s, nvars)
        return _from_terms({(v, s) if nvars == 2 else s: coeff} if coeff else {}, nvars)

    @classmethod
    def constant(cls, c: int, nvars: int = 2) -> "LaurentPoly":
        return cls.monomial(c, nvars=nvars)

    @classmethod
    def zero(cls, nvars: int = 2) -> "LaurentPoly":
        return cls.monomial(0, nvars=nvars)

    @classmethod
    def one(cls, nvars: int = 2) -> "LaurentPoly":
        return cls.monomial(1, nvars=nvars)

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

    __hash__ = None  # equal to ints, whose hashes it cannot match; not hashable

    def __neg__(self) -> "LaurentPoly":
        return _from_terms({e: -c for e, c in self._terms.items()}, self.nvars)

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
            return _from_terms({e: c * other for e, c in self._terms.items()}, self.nvars)
        if not isinstance(other, LaurentPoly) or other.nvars != self.nvars:
            return NotImplemented
        if not (self._terms and other._terms):
            return LaurentPoly.zero(self.nvars)
        return _from_terms(_mul_terms(self._terms, other._terms, self.nvars), self.nvars)

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
        data: dict = {}
        get = data.get
        for (ev, es), c in self._terms.items():
            e = es - n * ev
            data[e] = get(e, 0) + c
        return _from_terms({e: c for e, c in data.items() if c}, 1)

    def exact_div(self, other: "LaurentPoly") -> Optional["LaurentPoly"]:
        """Return q with self == other * q, or None when no such q exists.

        Two-variable terms are divided as slots (``_slot_keys``) on the
        dividend's layout, k = span_s(self) + 1 slots per row, the divisor
        from its own least corner.  A true quotient has s-offsets in [0,
        room], room = span_s(self) - span_s(other), so the one-variable
        quotient of the slots is its image.  Conversely, when every slot
        of that quotient has its offset i % k in [0, room], the decoded Q
        times other keeps every s-offset inside a row, where slots are
        one-to-one with exponents, so other * Q = self.  A slot outside
        that window wrapped across rows, and there is no quotient.
        """
        if other.nvars != self.nvars:
            raise TypeError("exact division mixes one- and two-variable polynomials")
        if not other._terms:
            raise ZeroDivisionError("exact division by the zero polynomial")
        num, den = self._terms, other._terms
        if self.nvars == 1 or not num:
            quo = _div_terms_1var(num, den)
            return None if quo is None else _from_terms(quo, self.nvars)
        (vn, sn, span_n), (vd, sd, span_d) = _s_window(num), _s_window(den)
        room = span_n - span_d
        if room < 0:
            return None
        k = span_n + 1
        quo = _div_terms_1var(_slotted(num, vn, sn, k), _slotted(den, vd, sd, k))
        if quo is None or any(i % k > room for i in quo):
            return None
        return _from_terms(_unslotted(quo, vn - vd, sn - sd, k), 2)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r}, nvars={self.nvars})"


# ---------------------------------------------------------------------------
# fractions with structural quantum-bracket denominators


def _times_bracket(terms: dict, k: int, nvars: int) -> dict:
    """terms * (s**k - s**-k), by one shift up and one shift down."""
    # One loop per arity: a shared generator of shifted keys made the lifts
    # of a verify pass about 15 % slower.  Lifts stay on term dicts rather
    # than packed ``RingElem.over``, whose fixed cost dominates small
    # numerators: a default verify pass makes 15,187 of them, median 8
    # terms and 99 % of at most 256, and replayed in one process (Python
    # 3.11.7, shared 2-vCPU host) they took 0.17 s by this function
    # against 0.40 s packed.
    items = terms.items()
    if nvars == 1:
        out = {e + k: c for e, c in items}
        for e, c in items:
            e -= k
            nc = out.get(e, 0) - c
            if nc:
                out[e] = nc
            else:
                del out[e]
    else:
        out = {(ev, es + k): c for (ev, es), c in items}
        for (ev, es), c in items:
            e = (ev, es - k)
            nc = out.get(e, 0) - c
            if nc:
                out[e] = nc
            else:
                del out[e]
    return out


def _over_packed(terms: dict, nvars: int, missing: list, excess: list, den: tuple) -> dict:
    """Terms of terms * prod [k] over missing / prod [k] over excess, on one
    packed integer; raises ``ConsistencyError`` when the excess brackets do
    not divide.

    The numerator is packed once, on the slots of its exponent box
    (``_box``) as in ``_mul_packed``: a row of ``stride`` slots per
    v-exponent, each axis compressed by its step (g on the s-axis: 2 when
    every s-exponent has one parity, else 1), and room in each row for the
    lifts.  [k] is s**-k times (s**g)**(2k/g) - 1, so
    with B = 2**(8*w) the packed numerator is P(B) for a polynomial P in
    one variable X, each missing bracket is the shift-subtract
    p = p * B**(2k/g) - p, and the excess brackets are one ``divmod`` by
    D(B), D = prod (X**(2k/g) - 1).  A nonzero remainder proves that D
    does not divide P, and so that the brackets do not divide.  With a
    zero remainder the decoded quotient Q is checked digit by digit:
    when max|Q| * 2**#excess < B/2, Q * D has coefficients inside +-B/2,
    as P has, and the same value at B, so Q * D = P.  Then Q is the exact
    quotient, and the brackets divide the numerator iff each row's top
    sum(2k/g) slots of Q (the whole row, if it has fewer) are zero, so
    that no row of Q * D reaches the next.  A decode that fails the digit
    check may have wrapped, and is repeated with w doubled.

    That loop ends.  If D divides P, Q is fixed and its coefficients are
    bounded, so the digit check passes once B is large enough.  If not,
    P = Q * D + R with a fixed R != 0 of lower degree than the monic D, so
    0 < |R(B)| < D(B) once B is large enough, and the remainder is nonzero.
    """
    (v0, v1, vpar), (s0, s1, spar) = _box(terms, nvars)
    hv, hs = int(vpar is not None), int(spar is not None)
    ups = [2 * k >> hs for k in missing]
    downs = [2 * k >> hs for k in excess]
    stride = (s1 - s0 >> hs) + 1 + sum(ups)
    rows = (v1 - v0 >> hv) + 1
    n = rows * stride
    keys = _slot_keys(terms, nvars, v0, s0, hv, hs, stride)
    # w leaves the quotient 2 bits per excess bracket to outgrow the
    # numerator by, plus the 1 bit per bracket that the digit check needs.
    # That covers every pairing of the benchmark's ladder pairs and their
    # sl(N) values up to N = 13.  The growth rises with N, to about 3 bits
    # per bracket at N = 60, where some quotients need one doubling.
    w = (max(map(abs, terms.values())) << len(ups) + 3 * len(downs)).bit_length() // 8 + 1
    while True:
        bits = 8 * w
        p = _pack(keys, terms.values(), w)
        for m in ups:
            p = (p << bits * m) - p
        if downs:
            d = 1
            for m in downs:
                d = (d << bits * m) - d
            p, r = divmod(p, d)
            if r:
                break
        # the lifted p fits n signed slots, and d >= B - 1 makes |q| far
        # smaller, so q does
        slots = _unpack(p, w, n)
        if max(max(slots), -min(slots)) << len(downs) < 1 << bits - 1:
            # brackets spanning a whole row or more leave no room for any of q
            top = min(sum(downs), stride)
            if top and any(any(slots[i - top:i]) for i in range(stride, n + 1, stride)):
                break
            return _decode_slots(slots, nvars, v0, s0 - sum(missing) + sum(excess), hv, hs, rows, stride)
        w *= 2
    brackets = "".join(f"[{k}]" for k in excess)
    raise ConsistencyError(f"{brackets} does not divide the numerator over {den}")


@functools.lru_cache(maxsize=None)
def _divides(small: tuple, big: tuple) -> bool:
    """Whether the bracket product over ``small`` divides the one over ``big``.

    [k] = s**-k * (s**2k - 1) = s**-k * prod_{d | 2k} Phi_d(s), and the
    cyclotomic polynomials Phi_d are distinct, monic and irreducible, so one
    product divides the other iff no Phi_d occurs more often in it.
    """
    def phi_counts(den):
        return Counter(d for k in den for d in range(1, 2 * k + 1) if 2 * k % d == 0)

    return phi_counts(small) <= phi_counts(big)


@functools.lru_cache(maxsize=None)
def _bracket_plan(have: tuple, want: tuple) -> tuple:
    """(union, missing, excess) for the sorted bracket tuples have and want:
    their multiset union, sorted, the brackets of want that have lacks, in
    ascending order, and those of have that want lacks, in descending order.
    have is contained in want iff excess is empty.  Bracket multisets repeat
    across a computation, so each pair is worked out once."""
    h, w = Counter(have), Counter(want)
    return (tuple(sorted((h | w).elements())), tuple(sorted((w - h).elements())),
            tuple(sorted((h - w).elements(), reverse=True)))


def _union(dens: Iterable[tuple]) -> tuple:
    """The multiset union of sorted bracket tuples, sorted."""
    return functools.reduce(lambda a, b: _bracket_plan(a, b)[0], dens, ())


def _lift(x: "RingElem", den: tuple) -> LaurentPoly:
    """Numerator of x over the sorted bracket tuple den; the bracket product
    of x.den must divide that of den.  When den contains x.den, x.num times
    each extra bracket in turn, O(#num) per bracket; otherwise
    ``RingElem.over`` also divides out the brackets of x.den that den
    lacks."""
    _, missing, excess = _bracket_plan(x.den, den)
    if excess:
        return x.over(den).num
    num = x.num
    for k in missing:
        num = _from_terms(_times_bracket(num._terms, k, num.nvars), num.nvars)
    return num


def sum_of_products(pairs: Iterable[tuple["RingElem", "RingElem"]], nvars: int) -> "RingElem":
    """The sum of x * y over the pairs, written over one bracket multiset.

    That is a term's own multiset when every other term's bracket product
    divides it (``_divides``), as [1]...[k] does each e_i h_(k-i) of a
    Cauchy product of decoration series; otherwise the union of all of
    them.  Each term lifts its factor with fewer terms to that multiset,
    and ``_sum_terms`` adds the numerator products, on one packed integer
    when they are dense enough.
    """
    terms = [(x, y, tuple(sorted(x.den + y.den))) for x, y in pairs if x and y]
    if not terms:
        return RingElem(LaurentPoly.zero(nvars))
    dens = {d for _, _, d in terms}
    den = max(dens, key=sum)
    if not all(_divides(d, den) for d in dens):
        den = _union(dens)
    products = []
    for x, y, d in terms:
        if len(x.num._terms) > len(y.num._terms):
            x, y = y, x
        lifted = x.num if d == den else _lift(RingElem(x.num, d), den)
        products.append((1, lifted._terms, y.num._terms))
    return RingElem(_from_terms(_sum_terms(products, nvars), nvars), den)


@dataclasses.dataclass(frozen=True, eq=False)
class RingElem:
    """num / prod(s**k - s**-k), with num a one- or two-variable Laurent poly.

    ``den`` is the multiset of bracket indices, stored sorted.  Two elements
    are equal iff cross multiplication agrees, so any representative is as
    good as any other; ``over`` picks the one over a given multiset.
    """

    num: LaurentPoly
    den: tuple[int, ...] = ()

    def __post_init__(self):
        den = tuple(sorted(self.den))
        if den and den[0] < 1:
            raise ValueError(f"bracket indices must be >= 1, got {self.den}")
        object.__setattr__(self, "den", () if self.num.is_zero() else den)

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

    def den_poly(self) -> LaurentPoly:
        """The denominator prod(s**k - s**-k) as a Laurent polynomial."""
        return _lift(RingElem(LaurentPoly.one(self.num.nvars)), self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = _bracket_plan(self.den, other.den)[0]
        return _lift(self, den) == _lift(other, den)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.num, self.den)

    def __add__(self, other) -> "RingElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RingElem(self.num + other.num, self.den)
        den = _bracket_plan(self.den, other.den)[0]
        return RingElem(_lift(self, den) + _lift(other, den), den)

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
        return RingElem(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingElem":
        return RingElem(self.num ** n, self.den * n)

    def over(self, brackets: Iterable[int]) -> "RingElem":
        """The same value over exactly the bracket multiset ``brackets``: the
        brackets it lacks are multiplied in and the excess ones divided out.
        Raises ``ConsistencyError`` if they do not divide.

        A nonzero numerator is rewritten on one packed integer by
        ``_over_packed``: a shift-subtract per missing bracket and one
        integer division by the excess ones, at a slot width that doubles
        until the quotient fits its slots.  Replaying every ``over`` call
        of the three default-seed benchmark workloads and of ``hopfly minor``
        at N = 40, packing was faster than dividing one bracket at a time
        at every numerator size from 1 term up, so no size threshold gates
        it.
        """
        want = tuple(sorted(brackets))
        _, missing, excess = _bracket_plan(self.den, want)
        num = self.num
        if num and (missing or excess):
            num = _from_terms(_over_packed(num._terms, num.nvars, missing, excess, self.den), num.nvars)
        return RingElem(num, want)

    def substitute_v(self, n: int) -> "RingElem":
        """Image under the ring map v -> s**-n; the brackets stay as they are."""
        return RingElem(self.num.substitute_v(n), self.den)

    def __str__(self) -> str:
        return format_ring_elem(self)

    def __repr__(self) -> str:
        return f"RingElem({format_ring_elem(self)!r})"


# ---------------------------------------------------------------------------
# determinants of exact matrices


def determinant(matrix: Sequence[Sequence]):
    """Determinant of a square matrix of Laurent polynomials.

    Minor expansion with memoisation on the column set.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no well-defined entry type")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return _det_expansion(matrix)


def _det_expansion(matrix):
    """Laplace expansion along the rows, memoised on the set of columns
    left: the minor on the last rows and a column set is the signed sum,
    over its columns, of the entry in its first row times the minor on the
    other columns, which ``_sum_terms`` adds as one sum of products."""
    n = len(matrix)
    nvars = matrix[0][0].nvars
    memo = {0: LaurentPoly.one(nvars)}

    def minor(mask: int):
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        products = []
        sign = 1
        m = mask
        while m:
            bit = m & (-m)
            entry = matrix[row][bit.bit_length() - 1]
            if entry:
                sub = minor(mask & ~bit)
                if sub:
                    products.append((sign, entry._terms, sub._terms))
            sign = -sign
            m &= m - 1
        total = _from_terms(_sum_terms(products, nvars), nvars)
        memo[mask] = total
        return total

    det = minor((1 << n) - 1)
    # minor's closure holds minor itself; clearing that cell frees the memo
    # and the matrix now rather than at the next cyclic garbage collection.
    del minor
    return det


def _det_bareiss(matrix):
    """Fraction-free Bareiss elimination: the reference determinant that
    the ``bialternant`` verify check and the tests compare against."""
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
    cleared = []
    total_den: list[int] = []
    for row in matrix:
        den = _union(entry.den for entry in row)
        total_den.extend(den)
        cleared.append([_lift(entry, den) for entry in row])
    return RingElem(determinant(cleared), tuple(total_den))


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

    Raises ValueError unless ``num`` is a list of term lists, ``vars`` is
    the int 1 or 2 (it is inferred from the term length when absent), every
    term holds exactly ``vars + 1`` ints and ``den`` is a list of ints >= 1
    (bools and floats are not).
    """
    den = obj.get("den", [])
    if type(den) is not list or not all(type(k) is int for k in den):
        raise ValueError(f"brackets are a list of integers >= 1, got {den!r}")
    nvars = obj.get("vars")
    num_terms = obj.get("num")
    if type(num_terms) is not list or not all(type(t) is list for t in num_terms):
        raise ValueError(f"num is a list of term lists, got {num_terms!r}")
    if nvars is None:
        nvars = 2 if any(len(t) == 3 for t in num_terms) else 1
    if type(nvars) is not int or nvars not in (1, 2):
        raise ValueError(f"vars must be 1 or 2, got {nvars!r}")
    for t in num_terms:
        if len(t) != nvars + 1 or not all(type(x) is int for x in t):
            raise ValueError(f"a {nvars}-variable term is {nvars + 1} integers, got {t!r}")
    terms = [((t[0], t[1]) if nvars == 2 else t[0], t[-1]) for t in num_terms]
    return RingElem(LaurentPoly(terms, nvars), den)
