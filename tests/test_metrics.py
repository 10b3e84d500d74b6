import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvtomo import (
    ErrorCurve,
    Image,
    l2_error,
    min_error,
    profile,
)
from gtvtomo.metrics import l2_norm

SCALES = [1e-160, 1e-200, 1e-300, 1e200]


class TestL2Error:
    def test_identical_images(self):
        img = Image(4, np.arange(16.0))
        assert l2_error(img, img) == 0.0

    def test_single_pixel_change(self):
        a = Image(4, np.zeros(16))
        pix = np.zeros(16)
        pix[5] = 3.0
        assert l2_error(Image(4, pix), a) == 3.0

    def test_matches_elementwise_computation(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(25), rng.random(25)
        brute = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert l2_error(Image(5, a), Image(5, b)) == pytest.approx(brute, rel=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y, z = (Image(3, rng.random(9)) for _ in range(3))
            assert l2_error(x, y) == pytest.approx(l2_error(y, x), abs=1e-9)
            assert l2_error(x, z) <= l2_error(x, y) + l2_error(y, z) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l2_error(Image(4, np.zeros(16)), Image(5, np.zeros(25)))

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_past_1e154(self):
        # the squared norm of this difference overflows float64; the norm itself does not
        assert l2_error(np.full(16, 1e200), np.zeros(16)) == 4e200
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.standard_normal(40), rng.standard_normal(40)
            assert l2_error(a, b) == float(np.linalg.norm(a - b))


class TestL2Norm:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", SCALES)
    def test_exact_at_extreme_scales(self, scale):
        # the plain norm squares these entries into underflow (0 or subnormal) or overflow (inf)
        v = np.full(16, scale)
        assert l2_norm(v) == pytest.approx(4 * scale, rel=1e-15, abs=0)
        assert l2_error(v, np.zeros(16)) == pytest.approx(4 * scale, rel=1e-15, abs=0)
        w = scale * np.random.default_rng(5).standard_normal(8)
        exact = math.hypot(*w)
        assert l2_norm(w) == pytest.approx(exact, rel=1e-15, abs=0)
        assert l2_error(w, np.zeros(8)) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_zero_empty_and_non_finite(self):
        assert l2_norm(np.zeros(5)) == 0.0
        assert l2_norm(np.array([])) == 0.0
        assert l2_norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(l2_norm(np.array([1.0, np.nan])))

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
        st.sampled_from([1.0, *SCALES]),
    )
    def test_plain_norm_bits_wherever_in_range(self, values, scale):
        with np.errstate(over="ignore"):
            v = np.array(values) * scale
            v = v[np.isfinite(v)]
            plain = float(np.linalg.norm(v))
        if 2.0**-511 <= plain < np.inf:
            assert l2_norm(v) == plain
            assert l2_error(v, np.zeros(v.size)) == plain
        elif math.hypot(*v) >= np.finfo(np.float64).tiny:  # below it the result itself is subnormal
            assert l2_norm(v) == pytest.approx(math.hypot(*v), rel=1e-14, abs=0)


class TestProfile:
    def test_constant_image(self):
        np.testing.assert_array_equal(profile(Image(5, np.full(25, 2.5))), np.full(5, 2.5))

    def test_shepp_logan_symmetric_row(self, shepp64):
        # the classic ellipse table pairs the two off-center ventricles with
        # different semi-axes, so rows crossing them are not mirror images;
        # row 16 (y ~ 0.49) crosses only centered ellipses and is symmetric
        values = shepp64.grid[16]
        np.testing.assert_allclose(values, values[::-1], atol=1e-9)

    def test_shepp_logan_center_row_asymmetry_is_real(self, shepp64):
        values = profile(shepp64)
        np.testing.assert_array_equal(values, shepp64.grid[32])
        assert np.abs(values - values[::-1]).max() > 0.1

    def test_matches_direct_indexing(self):
        rng = np.random.default_rng(2)
        for n in (5, 6):
            img = Image(n, rng.random(n * n))
            values = profile(img)
            np.testing.assert_array_equal(values, img.grid[n // 2])
            values[:] = -1.0  # a copy, not a view of the image
            assert np.all(img.pixels >= 0)


class TestMinError:
    def test_simple(self):
        assert min_error(ErrorCurve(np.array([5.0, 3.0, 4.0]))) == (1, 3.0)

    def test_tie_breaks_to_earliest(self):
        assert min_error(ErrorCurve(np.array([2.0, 2.0]))) == (0, 2.0)

    def test_bounds_every_element(self):
        rng = np.random.default_rng(3)
        curve = ErrorCurve(rng.random(50))
        _, value = min_error(curve)
        assert np.all(curve.values >= value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_error(ErrorCurve(np.array([])))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            ErrorCurve(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            ErrorCurve(np.array([1.0, np.inf]))


class TestErrorCurve:
    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 2)), "values must be a flat vector of length 4, got shape (2, 2)"),
            ([1.0, np.nan], "curve values must be finite"),
            ([1.0, -2.0], "curve values must be nonnegative"),
        ],
    )
    def test_curve_messages(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ErrorCurve(values)
