import numpy as np
import pytest

from gtvtomo import (
    ErrorCurve,
    Image,
    l2_error,
    min_error,
    profile,
)


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
