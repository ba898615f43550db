#!/usr/bin/env python3
"""End-to-end walkthrough of one decorated Hopf link computation.

Computes the two-variable invariant for a pair of diagrams, then its sl(N)
specialisation by both routes, and shows the Vandermonde minor that drives
the minor route.  Both come from one pipeline: the minor is
P(0, 0) * s_mu(1, q, ..., q^(N-1)) * s_lambda(q^a), and the sl(N) value by
minors is the same product without the reference minor P(0, 0), times
s^((1-N)(|lambda|+|mu|)).
"""

import argparse

from hopfly import (
    Partition,
    elementary_series,
    eval_unknot,
    format_poly,
    hopf_invariant,
    hopf_sln_minor,
    hopf_sln_substitution,
    required_degree,
    vandermonde_minor,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda", dest="lam", default="3,1", type=Partition.from_text)
    parser.add_argument("--mu", dest="mu", default="2,2", type=Partition.from_text)
    parser.add_argument("--N", dest="n", default=3, type=int)
    args = parser.parse_args()
    lam, mu, n = args.lam, args.mu, args.n

    print(f"decorations: lambda = {lam}, mu = {mu}")
    print(f"unknot value of lambda: {eval_unknot(lam)}")

    degree = required_degree(mu)
    series = elementary_series(lam, degree)
    print(f"\ncolumn series of lambda to degree {degree}:")
    for k in range(degree + 1):
        print(f"  t^{k}: {series.coeff(k)}")

    pairing = hopf_invariant(lam, mu)
    print(f"\ntwo-variable invariant:\n  {pairing}")

    if n >= max(lam.length, mu.length):
        minor = vandermonde_minor(lam, mu, n)
        print(f"\nVandermonde minor at N={n} (q = s^2): {format_poly(minor, 'q')}")
        by_minor = hopf_sln_minor(lam, mu, n)
        by_subst = hopf_sln_substitution(lam, mu, n)
        print(f"sl({n}) by minors:       {by_minor.value}")
        print(f"sl({n}) by substitution: {by_subst.value}")
        print(f"routes agree: {by_minor.value == by_subst.value}")
    else:
        value = hopf_sln_substitution(lam, mu, n).value
        print(f"\nsl({n}) specialisation (a diagram has more than N parts): {value}")


if __name__ == "__main__":
    main()
