import math

import numpy as np
import pytest

from fcmcodec import RdCurve, bd_rate, psnr
from fcmcodec.errors import DomainError


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.arange(16).reshape(4, 4)
        assert psnr(a, a.copy(), 1023) == math.inf

    def test_constant_difference_one(self):
        a = np.zeros((8, 8))
        b = np.ones((8, 8))
        assert psnr(a, b, 1023) == pytest.approx(20 * math.log10(1023), abs=1e-6)
        assert psnr(a, b, 1023) == pytest.approx(60.20, abs=0.01)

    def test_worst_case_zero_db(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 255.0)
        assert psnr(a, b, 255) == pytest.approx(0.0, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            psnr(np.zeros((2, 2)), np.zeros((2, 3)), 255)


def curve(rates, qualities):
    return RdCurve(tuple(rates), tuple(qualities))


ANCHOR = curve([100, 200, 400, 800, 1600], [30.0, 33.0, 36.0, 39.0, 41.0])


class TestBdRate:
    def test_identical_curves_zero(self):
        assert abs(bd_rate(ANCHOR, ANCHOR)) < 1e-9

    @pytest.mark.parametrize("scale,expected", [(2.0, 100.0), (0.5, -50.0), (4.0, 300.0)])
    def test_scaled_rates_analytic(self, scale, expected):
        test = curve([r * scale for r in ANCHOR.rates], ANCHOR.qualities)
        assert bd_rate(ANCHOR, test) == pytest.approx(expected, abs=1e-6)

    def test_cheaper_curve_is_negative(self):
        test = curve([r * 0.8 for r in ANCHOR.rates], ANCHOR.qualities)
        assert bd_rate(ANCHOR, test) < 0

    def test_quality_relabeling_invariant(self):
        test = curve([90, 180, 360, 720, 1500], [30.5, 33.2, 36.4, 38.7, 41.2])
        base = bd_rate(ANCHOR, test)
        # a shift, and scales at which a cubic fit in the raw qualities
        # underflows or overflows
        for relabel in (lambda q: q + 7.5, lambda q: q * 1e-200, lambda q: q * 1e100, lambda q: q * 1e300):
            relabeled = bd_rate(
                curve(ANCHOR.rates, [relabel(q) for q in ANCHOR.qualities]),
                curve(test.rates, [relabel(q) for q in test.qualities]),
            )
            assert relabeled == pytest.approx(base, abs=1e-9)

    def test_no_overlap_rejected(self):
        low = curve([1, 2, 4, 8], [10, 11, 12, 13])
        high = curve([1, 2, 4, 8], [20, 21, 22, 23])
        with pytest.raises(DomainError):
            bd_rate(low, high)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            curve([1, 2, 4], [1, 2, 3])

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, rate):
        with pytest.raises(DomainError, match="rates must be positive and finite"):
            curve([1, 2, 4, rate], [1, 2, 3, 4])

    def test_non_increasing_rates_rejected(self):
        with pytest.raises(DomainError):
            curve([1, 2, 2, 4], [1, 2, 3, 4])
