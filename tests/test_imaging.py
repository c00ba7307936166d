import numpy as np
import pytest

from littleyolo.boxes import BBox
from littleyolo.imaging import (ImageError, annotate, decode_ppm, encode_ppm,
                                read_image, to_chw_float)
from littleyolo.pipeline import Detection


def checker(h=8, w=10):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[::2, ::2] = (255, 0, 0)
    img[1::2, 1::2] = (0, 128, 255)
    return img


class TestPPM:
    def test_round_trip_bit_exact(self):
        img = checker()
        assert (decode_ppm(encode_ppm(img)) == img).all()

    def test_random_round_trip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (33, 17, 3), dtype=np.uint8)
        np.testing.assert_array_equal(decode_ppm(encode_ppm(img)), img)

    def test_header_comments_skipped(self):
        img = np.array([[[1, 2, 3]]], dtype=np.uint8)
        data = b"P6\n# a comment\n1 # cols\n1\n255\n" + bytes([1, 2, 3])
        np.testing.assert_array_equal(decode_ppm(data), img)

    def test_wrong_magic(self):
        with pytest.raises(ImageError, match="P6"):
            decode_ppm(b"P5\n1 1\n255\n\x00")

    def test_wrong_maxval(self):
        with pytest.raises(ImageError, match="255"):
            decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_truncated_pixels(self):
        data = encode_ppm(checker())
        with pytest.raises(ImageError, match="bytes"):
            decode_ppm(data[:-1])

    @pytest.mark.parametrize("cut,got", [(1, 239), (240, 0), (241, 0)])
    def test_truncated_pixels_count_the_bytes(self, cut, got):
        # a cut of 241 also drops the whitespace byte after maxval
        data = encode_ppm(checker())
        with pytest.raises(ImageError) as ei:
            decode_ppm(data[:-cut])
        assert str(ei.value) == f"PPM pixel data truncated: expected 240 bytes, got {got}"

    def test_decode_returns_a_writable_copy(self):
        data = bytearray(encode_ppm(checker()) + b"trailing")
        img = decode_ppm(data)
        assert img.flags.writeable and img.flags.owndata
        data[-248:] = bytes(248)
        np.testing.assert_array_equal(img, checker())

    def test_encode_requires_hw3_uint8(self):
        with pytest.raises(ImageError):
            encode_ppm(np.zeros((4, 4), dtype=np.uint8))

    def test_file_io(self, tmp_path):
        img = checker()
        path = tmp_path / "img.ppm"
        path.write_bytes(encode_ppm(img))
        np.testing.assert_array_equal(read_image(path), img)

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0"])
    def test_zero_size_rejected(self, size):
        with pytest.raises(ImageError, match="no pixels"):
            decode_ppm(b"P6\n" + size + b"\n255\n")

    @pytest.mark.parametrize("data", [b"\x89PNG\r\n\x1a\n" + bytes(20), b""],
                             ids=["png", "empty"])
    def test_read_names_the_file(self, tmp_path, data):
        # read by magic bytes, whatever the suffix; there is no other decoder
        path = tmp_path / "photo.png"
        path.write_bytes(data)
        with pytest.raises(ImageError) as ei:
            read_image(path)
        assert str(ei.value).startswith(f"{path}: ")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_image(tmp_path / "missing.ppm")


class TestTensorConversion:
    def test_to_chw_float(self):
        img = checker(4, 6)
        t = to_chw_float(img)
        assert t.shape == (3, 4, 6) and t.dtype == np.float32
        assert t.max() <= 1.0 and t.min() >= 0.0
        assert t[0, 0, 0] == pytest.approx(1.0)   # red 255
        assert t[2, 1, 1] == pytest.approx(1.0)   # blue 255


class TestAnnotate:
    def det(self, box, conf=0.87, name="car"):
        return Detection(bbox=BBox(*box), class_id=0, class_name=name,
                         objectness=conf, class_prob=1.0, confidence=conf)

    def test_draws_without_mutating(self):
        img = np.zeros((64, 64, 3), dtype=np.uint8)
        out = annotate(img, [self.det((10, 20, 40, 50))])
        assert (img == 0).all()            # input untouched
        assert out.shape == img.shape and out.dtype == np.uint8
        assert (out != 0).any()            # something was drawn
        assert (out[20:22, 10:41] != 0).any()  # top edge of the box

    def test_out_of_bounds_boxes_clamped(self):
        img = np.zeros((16, 16, 3), dtype=np.uint8)
        out = annotate(img, [self.det((-10, -10, 100, 100))])
        assert out.shape == img.shape

    def test_no_detections_is_copy(self):
        img = checker(16, 16)
        out = annotate(img, [])
        np.testing.assert_array_equal(out, img)
        assert out is not img
