"""Planted faults: an identity check of ``hopfly.verify`` reports FAIL,
and names the bad case, when one route it compares is wrong in one case."""

from hopfly import verify
from hopfly.partitions import Partition
from hopfly.ring import LaurentPoly, RingElem
from hopfly.series import TruncatedSeries

BAD = Partition((2, 1))
ONE = RingElem(LaurentPoly.one())


def test_symmetry_check_fails_on_one_asymmetric_pairing(monkeypatch):
    # one monomial off on (2,1) x (1) alone: that ordered pair and its
    # mirror both compare unequal
    real = verify._hopf_value

    def faulty(lam, mu):
        value = real(lam, mu)
        return value + ONE if (lam, mu) == (BAD, Partition((1,))) else value

    monkeypatch.setattr(verify, "_hopf_value", faulty)
    result = verify.check_hopf_symmetry(max_size=3)
    assert not result.passed
    assert result.detail == "49 ordered pairs with |parts| <= 3, 2 asymmetric"


def test_series_forms_check_fails_on_one_faulty_row_product(monkeypatch):
    # one monomial off in the top coefficient of the row-by-row series of
    # (2,1) alone
    real = verify.elementary_series_by_rows

    def faulty(lam, degree):
        series = real(lam, degree)
        if lam != BAD:
            return series
        return TruncatedSeries(series.coeffs[:-1] + (series.coeffs[-1] + ONE,))

    monkeypatch.setattr(verify, "elementary_series_by_rows", faulty)
    result = verify.check_series_product_forms(max_size=3, degree=4)
    assert not result.passed
    assert result.detail == "|parts| <= 3 at degree 4, failures: [Partition(parts=(2, 1))]"
