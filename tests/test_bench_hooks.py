"""The benchmark's layer wrappers still find every layer they time.

``perfbench/tracing.py`` wraps package entry points by name; a refactor that
renames or bypasses one leaves its metric at 0 without any error.  This runs
a small pairing, a small sl(N) pair and a small verify, whose bialternant
check reaches Bareiss, under the tracer and requires every layer to have
been seen.
"""

import os
import sys

import hopfly.hopf as hopf
import hopfly.ring as ring
from hopfly.cli import main

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
import tracing  # noqa: E402

COUNTED = (
    "ring.poly_mul.calls",
    "ring.exact_div.calls",
    "ring.substitute_v.calls",
    "ring.elem_add.calls",
    "ring.det_fractions.calls",
    "ring.determinant.expansion_calls",
    "ring.determinant.bareiss_calls",
    "series.mul.calls",
    "series.invert.calls",
    "series.schur_of_series.calls",
    "hopf.hopf_invariant.calls",
    "sln.vandermonde_minor.calls",
)

SPANS = (
    "ring.determinant",
    "series.linear_factor",
    "hopf.elementary_series",
    "sln.hopf_sln_minor",
    "sln.hopf_sln_substitution",
    "verify.run_all",
    "cli.emit",
    *[f"verify.check.{name}" for name in tracing.CHECK_NAMES],
)


def test_tracer_sees_every_layer(capsys):
    for _, attr in tracing.CACHES:
        getattr(hopf, attr).cache_clear()
    tracer = tracing.Tracer().install()
    try:
        assert main(["hopf", "--lambda", "3,1", "--mu", "2,1", "--format", "json"]) == 0
        assert main(["sln", "--lambda", "2,1", "--mu", "1,1", "--N", "3"]) == 0
        assert main(["verify", "--max-size", "1", "--max-n", "2", "--degree", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = tracer.layer_metrics()
    for key in COUNTED:
        assert metrics[key] > 0, key
    for key, _ in tracing.CACHES:
        assert metrics[f"hopf.cache.{key}.hits"] + metrics[f"hopf.cache.{key}.misses"] > 0, key
    _, _, calls = tracer.totals()
    for name in SPANS:
        assert calls.get(name, 0) > 0, name


def test_packed_product_is_counted():
    # 900 term products over 59 slots: far above the packed kernel's
    # threshold, so the product bypasses the term loop but not the tracer.
    dense = ring.LaurentPoly({e: e * e + 1 for e in range(-10, 20)}, nvars=1)
    terms = dict(dense.items())
    assert ring._mul_packed([(1, terms, terms)], 1) is not None
    tracer = tracing.Tracer().install()
    try:
        dense * dense
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["ring.poly_mul.calls"] == 1
    assert metrics["ring.poly_mul.term_products"] == 30 * 30


def test_lattice_product_and_sweep_division_are_counted(monkeypatch):
    # Even exponents only: the packed product steps by 2 through its
    # 117-exponent box, so it decodes 59 slots, and divisions run the sweep.
    dense = ring.LaurentPoly({2 * e: e * e + 1 for e in range(-10, 20)}, nvars=1)
    slots = []
    real = ring._unpack

    def spy(p, w, n):
        slots.append(n)
        return real(p, w, n)

    monkeypatch.setattr(ring, "_unpack", spy)
    square = dense * dense
    assert slots == [59]
    bumped = square + 1
    tracer = tracing.Tracer().install()
    try:
        product = dense * dense
        quotient = square.exact_div(dense)
        failed = bumped.exact_div(dense)
    finally:
        tracer.uninstall()
    assert product == square and quotient == dense and failed is None
    metrics = tracer.layer_metrics()
    assert metrics["ring.poly_mul.calls"] == 1
    assert metrics["ring.poly_mul.term_products"] == 30 * 30
    assert metrics["ring.exact_div.calls"] == 2
    assert metrics["ring.exact_div.failed"] == 1
