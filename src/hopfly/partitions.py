"""Partitions, Young diagram combinatorics, and the vertical-strip Pieri rule."""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator


@functools.total_ordering
@dataclasses.dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty diagram."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(type(p) is not int or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        """Build a partition, ignoring trailing zero parts."""
        trimmed = list(parts)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return cls(tuple(trimmed))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse comma-separated parts; '' or '0' denotes the empty diagram."""
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"invalid partition text {text!r}") from None
        return cls(parts)

    # -- basic data ---------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the diagram."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    # -- diagram combinatorics ----------------------------------------------

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells (row, column), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def hooks(self) -> list[int]:
        conj = self.conjugate()
        return [
            (self.part(i) - j) + (conj.part(j) - i) + 1
            for (i, j) in self.cells()
        ]

    def contents(self) -> list[int]:
        return [j - i for (i, j) in self.cells()]

    def content_sum(self) -> int:
        return sum(self.contents())

    @property
    def diagonal_length(self) -> int:
        return sum(1 for i, p in enumerate(self.parts, start=1) if p >= i)

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arm and leg lengths (a_1,...,a_d | b_1,...,b_d) from the diagonal."""
        d = self.diagonal_length
        conj = self.conjugate()
        arms = tuple(self.parts[i - 1] - i for i in range(1, d + 1))
        legs = tuple(conj.parts[i - 1] - i for i in range(1, d + 1))
        return arms, legs

    def index_set(self, n: int) -> tuple[int, ...]:
        """{part_i + n - i : 1 <= i <= n}, returned strictly decreasing."""
        if n < self.length:
            raise ValueError(f"need n >= number of parts: n={n}, parts={self.parts}")
        return tuple(self.part(i) + n - i for i in range(1, n + 1))


EMPTY = Partition(())


def hook_partition(a: int, b: int) -> Partition:
    """The hook with a cells in the first column and b in the first row."""
    if a < 1 or b < 1:
        raise ValueError(f"hook needs a >= 1 and b >= 1, got a={a}, b={b}")
    return Partition((b,) + (1,) * (a - 1))


def column_partition(i: int) -> Partition:
    if i < 0:
        raise ValueError("column height must be >= 0")
    return Partition((1,) * i)


def row_partition(j: int) -> Partition:
    if j < 0:
        raise ValueError("row width must be >= 0")
    return Partition((j,) if j else ())


def pieri_column(lam: Partition, cells: int) -> list[Partition]:
    """All diagrams obtained by adding a vertical strip of the given size.

    At most one cell is added per row; each result occurs exactly once.
    Sorted descending for deterministic output.
    """
    if cells < 0:
        raise ValueError("strip size must be >= 0")
    if cells == 0:
        return [lam]
    parts = lam.parts
    out: list[Partition] = []

    def extend(idx: int, prev: int, acc: list[int], remaining: int):
        if idx == len(parts):
            # Any leftover cells become new one-cell rows.
            out.append(Partition(tuple(acc) + (1,) * remaining))
            return
        p = parts[idx]
        for inc in (0, 1):
            if inc <= remaining and p + inc <= prev:
                acc.append(p + inc)
                extend(idx + 1, p + inc, acc, remaining - inc)
                acc.pop()

    extend(0, parts[0] + 1 if parts else cells, [], cells)
    return sorted(out, reverse=True)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, descending lexicographic."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return out


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of size 0..n, smaller sizes first."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out
