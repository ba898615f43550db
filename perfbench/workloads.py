"""Seeded inputs for the benchmark workloads.

Each workload is a list of ops; an op is one ``hopfly`` command line run
through ``hopfly.cli.main``, plus the data the output gate needs to check
it.  Inputs depend only on the workload name and the seed, and partitions
are enumerated here rather than by the program under test, so a change to
``hopfly.partitions`` cannot change what is measured.
"""

from __future__ import annotations

import functools
import random

DEFAULT_SEED = 0

# The default ladder, smallest to largest: (lambda, mu).
LADDER = (
    ((3, 1), (2, 2)),
    ((4, 3, 2, 1), (4, 2, 1)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
    ((5, 3, 2, 1), (4, 3, 1)),
    ((8, 6, 4, 2), (7, 5, 3, 1)),
    ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1)),
)

# For the two large rungs, the pairs that satisfy the draw constraints of
# ladder_ops and whose pairing needs within 3 % of the default rung's
# polynomial term products (8.23 M and 14.80 M), among 28 and 41 pairs
# counted with the package at commit caa59f2.
MATCHED = {
    4: (((8, 6, 4, 2), (7, 5, 3, 1)), ((8, 6, 5, 1), (7, 4, 4, 1)),
        ((8, 7, 4, 1), (7, 5, 3, 1)), ((8, 6, 3, 3), (7, 5, 2, 2)),
        ((8, 5, 5, 2), (7, 5, 2, 2)), ((8, 6, 5, 1), (7, 5, 3, 1)),
        ((8, 6, 3, 3), (7, 4, 4, 1)), ((8, 5, 4, 3), (7, 4, 4, 1)),
        ((8, 5, 4, 3), (7, 4, 3, 2)), ((8, 7, 4, 1), (7, 5, 2, 2)),
        ((8, 7, 3, 2), (7, 4, 3, 2)), ((8, 5, 4, 3), (7, 6, 2, 1)),
        ((8, 6, 5, 1), (7, 4, 3, 2)), ((8, 6, 4, 2), (7, 4, 3, 2)),
        ((8, 7, 4, 1), (7, 4, 3, 2))),
    5: (((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1)), ((6, 4, 3, 3, 3, 2), (6, 5, 5, 3, 1, 1)),
        ((6, 4, 4, 3, 2, 2), (6, 4, 4, 3, 3, 1)), ((6, 4, 4, 3, 2, 2), (6, 5, 3, 3, 2, 2)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 3, 3, 2, 2)), ((6, 4, 3, 3, 3, 2), (6, 5, 5, 2, 2, 1)),
        ((6, 6, 3, 2, 2, 2), (6, 5, 3, 3, 3, 1)), ((6, 6, 3, 2, 2, 2), (6, 6, 4, 3, 1, 1)),
        ((6, 4, 3, 3, 3, 2), (6, 4, 4, 3, 2, 2)), ((6, 5, 3, 3, 2, 2), (6, 6, 4, 2, 2, 1)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 4, 2, 2, 2)), ((6, 5, 4, 2, 2, 2), (6, 4, 3, 3, 3, 2))),
}

SLN_SIZE = 6
SLN_RANKS = (9, 10, 11, 12, 13)

VERIFY_ARGV = ["verify", "--max-size", "5", "--max-n", "4", "--degree", "10", "--format", "json"]


@functools.lru_cache(maxsize=None)
def partitions_of(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts <= cap, in reverse lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, cap), 0, -1)
                 for rest in partitions_of(n - first, first))


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in p if x > j) for j in range(p[0])) if p else ()


def frobenius_rank(p: tuple[int, ...]) -> int:
    return sum(1 for i, x in enumerate(p, start=1) if x >= i)


def _text(p: tuple[int, ...]) -> str:
    return ",".join(map(str, p)) if p else "0"


def hopf_op(lam, mu) -> dict:
    argv = ["hopf", "--lambda", _text(lam), "--mu", _text(mu), "--format", "json"]
    return {"kind": "hopf", "lam": lam, "mu": mu, "argv": argv}


def sln_op(lam, mu, n) -> dict:
    argv = ["sln", "--lambda", _text(lam), "--mu", _text(mu), "--N", str(n), "--format", "json"]
    return {"kind": "sln", "lam": lam, "mu": mu, "n": n, "argv": argv}


def ladder_ops(seed: int) -> list[dict]:
    """The six ladder rungs.  Other seeds redraw each pair, keeping |lambda|,
    lambda_1, l(lambda) and the Frobenius rank of lambda, and |mu|, mu_1 and
    l(mu); the two large rungs are drawn from MATCHED."""
    if seed == DEFAULT_SEED:
        return [hopf_op(lam, mu) for lam, mu in LADDER]
    rng = random.Random(f"ladder:{seed}")
    ops = []
    for rung, (lam0, mu0) in enumerate(LADDER):
        if rung in MATCHED:
            ops.append(hopf_op(*rng.choice(MATCHED[rung])))
            continue
        lams = [p for p in partitions_of(sum(lam0))
                if p[0] == lam0[0] and len(p) == len(lam0)
                and frobenius_rank(p) == frobenius_rank(lam0)]
        mus = [p for p in partitions_of(sum(mu0))
               if p[0] == mu0[0] and len(p) == len(mu0)]
        ops.append(hopf_op(rng.choice(lams), rng.choice(mus)))
    return ops


def sln_ops(seed: int) -> list[dict]:
    """Two triples per rank N = 9..13: (lam, lam', N) and (lam', lam, N),
    lam a partition of 6 other than the single row and column.  Pairing a
    diagram with its conjugate, and leaving out (6) and (1^6), keeps the
    multiply work of the N = 13 minors within 12.6-13.4 M term products
    across draws; free pairs of size 6 range over 8.4-17.8 M."""
    rng = random.Random(f"sln:{seed}")
    shapes = [p for p in partitions_of(SLN_SIZE) if 1 < len(p) < SLN_SIZE]
    ops = []
    for n in SLN_RANKS:
        lam = rng.choice(shapes)
        ops.append(sln_op(lam, conjugate(lam), n))
        ops.append(sln_op(conjugate(lam), lam, n))
    return ops


def verify_ops(seed: int) -> list[dict]:
    """The verify suite at its default bounds; the seed does not change it."""
    return [{"kind": "verify", "argv": list(VERIFY_ARGV)}]


def selftest_ops(seed: int) -> list[dict]:
    """A cheap mix of every op kind, for the benchmark's own self-test."""
    return [hopf_op((3, 1), (2, 2)), hopf_op((4, 3, 2, 1), (4, 2, 1)),
            sln_op((2, 1), (2, 1), 4), sln_op((3, 1), (2, 1, 1), 5),
            {"kind": "verify",
             "argv": ["verify", "--max-size", "2", "--max-n", "2", "--degree", "4",
                      "--format", "json"]}]


WORKLOADS = {"ladder": ladder_ops, "verify": verify_ops, "sln": sln_ops}
EXTRA = {"selftest": selftest_ops}


def make_ops(workload: str, seed: int) -> list[dict]:
    table = {**WORKLOADS, **EXTRA}
    if workload not in table:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return table[workload](seed)
