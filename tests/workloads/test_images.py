"""Image-processing primitives used by Pyramid and Face Detection."""

import hashlib

import numpy as np
import pytest

from repro.workloads import images


class TestSyntheticImages:
    def test_deterministic(self):
        a = images.synthetic_rgb_image(3, 64, 48)
        b = images.synthetic_rgb_image(3, 64, 48)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = images.synthetic_rgb_image(3, 64, 48)
        b = images.synthetic_rgb_image(4, 64, 48)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        ("seed", "width", "height", "digest"),
        [
            (50, 1280, 720, "bbaa3414a2f18a830c5a96debff0d73ded873869b566bec256d073284c17bce5"),
            (2017, 1280, 720, "8e7b9cfdc96372181d16ccc71e0c6ca3e190169cb1001d970a790809f91e9541"),
            (0, 320, 240, "4be68360ed97b3cdb7d95f31fba8abdb95f7862a31a1bc0748657437ab246b3e"),
            (3, 64, 48, "04f6d91211bf5fc2a1db43f93b010f78b975f1d3f3c3f537a395d95abd87bb51"),
            (1, 1281, 719, "a0dc88f1e0c7b226b322e13176e61a570585e8ee874b6bd63babb3f792ad8868"),
            # Shorter than one noise chunk.
            (2, 1280, 7, "1044caec73c929ffac49f6c89a00fa5652c83990f240189f06c5e1657b30ffba"),
        ],
    )
    def test_bytes_are_pinned(self, seed, width, height, digest):
        """Frame bytes are pinned to those of the one-shot full-frame
        synthesis (float64 ``rng.normal`` over the whole frame), which the
        chunked form must reproduce exactly."""
        image = images.synthetic_rgb_image(seed, width, height)
        assert image.shape == (height, width, 3)
        assert hashlib.sha256(image.tobytes()).hexdigest() == digest

    def test_shape_and_dtype(self):
        img = images.synthetic_rgb_image(0, 100, 80)
        assert img.shape == (80, 100, 3)
        assert img.dtype == np.uint8

    def test_plant_faces_brightens_center(self):
        canvas = np.full((64, 64), 100, dtype=np.uint8)
        out = images.plant_faces(canvas, [(16, 16, 32)])
        center = out[28:36, 28:36]
        assert center.mean() > 180
        # eye region darker than face
        assert out[16 + 10, 16 + 10] < 100 or out.min() < 60

    def test_plant_faces_out_of_bounds_raises(self):
        canvas = np.full((32, 32), 100, dtype=np.uint8)
        with pytest.raises(ValueError):
            images.plant_faces(canvas, [(20, 20, 24)])


class TestGrayscale:
    def test_preserves_shape(self):
        img = images.synthetic_rgb_image(1, 40, 30)
        gray = images.to_grayscale(img)
        assert gray.shape == (30, 40)
        assert gray.dtype == np.uint8

    def test_pure_colors(self):
        red = np.zeros((2, 2, 3), dtype=np.uint8)
        red[..., 0] = 255
        assert abs(int(images.to_grayscale(red)[0, 0]) - 76) <= 1

    def test_gray_input_passthrough(self):
        gray = np.full((4, 4), 77, dtype=np.uint8)
        np.testing.assert_array_equal(images.to_grayscale(gray), gray)


class TestHistogramEqualization:
    def test_flat_image_unchanged_value_range(self):
        flat = np.full((16, 16), 100, dtype=np.uint8)
        out = images.equalize_histogram(flat)
        assert out.shape == flat.shape
        assert len(np.unique(out)) == 1

    def test_spreads_narrow_histogram(self):
        rng = np.random.default_rng(0)
        narrow = rng.integers(100, 120, size=(64, 64)).astype(np.uint8)
        out = images.equalize_histogram(narrow)
        assert out.max() - out.min() > narrow.max() - narrow.min()

    def test_monotone_mapping(self):
        """Equalisation must preserve pixel ordering."""
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        out = images.equalize_histogram(img)
        flat_in = img.ravel()
        flat_out = out.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order].astype(int)) >= 0)


class TestDownsample:
    def test_halves_dimensions(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        out = images.downsample2x(img)
        assert out.shape == (4, 4)

    def test_box_filter_average(self):
        img = np.array([[0, 4], [8, 12]], dtype=np.uint8)
        out = images.downsample2x(img)
        assert out[0, 0] == 6  # (0+4+8+12+2)//4

    def test_odd_dimensions_cropped(self):
        img = np.zeros((5, 7), dtype=np.uint8)
        assert images.downsample2x(img).shape == (2, 3)


class TestLBP:
    def test_codes_shape(self):
        img = np.zeros((10, 12), dtype=np.uint8)
        assert images.lbp_codes(img).shape == (8, 10)

    def test_uniform_region_gives_all_ones_code(self):
        img = np.full((8, 8), 50, dtype=np.uint8)
        codes = images.lbp_codes(img)
        assert np.all(codes == 255)  # neighbours >= centre everywhere

    def test_bright_center_pixel_gives_zero(self):
        img = np.full((5, 5), 50, dtype=np.uint8)
        img[2, 2] = 200
        assert images.lbp_codes(img)[1, 1] == 0

    def test_histogram_normalised(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 256, size=(30, 30)).astype(np.uint8)
        hist = images.lbp_histogram(codes, bins=16)
        assert hist.shape == (16,)
        assert hist.sum() == pytest.approx(1.0)
