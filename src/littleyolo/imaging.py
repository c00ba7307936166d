"""Image I/O and annotation.

Binary PPM (P6, maxval 255) is the one image format: it is decoded and
encoded here directly so image ingestion is bit-exact and dependency-free.
Images are uint8 arrays of shape (H, W, 3).
"""

from __future__ import annotations

import numpy as np


class ImageError(ValueError):
    pass


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    while pos < len(data):
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageError("unexpected end of PPM header")
    return data[start:pos], pos


def decode_ppm(data: bytes) -> np.ndarray:
    if data[:2] != b"P6":
        raise ImageError("not a binary PPM (P6) stream")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(data, pos)
        if not tok.isdigit():
            raise ImageError(f"bad PPM header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise ImageError(f"PPM has no pixels: {width}x{height}")
    if maxval != 255:
        raise ImageError(f"only maxval 255 PPMs are supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    need = width * height * 3
    if len(data) - pos < need:
        raise ImageError(f"PPM pixel data truncated: expected {need} bytes, "
                         f"got {max(len(data) - pos, 0)}")
    # one copy, straight out of data: a writable array the caller owns
    return np.frombuffer(data, np.uint8, need, pos).reshape(height, width, 3).copy()


def encode_ppm(image: np.ndarray) -> bytes:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ImageError(f"expected (H, W, 3) uint8 image, got {image.shape} "
                         f"{image.dtype}")
    h, w, _ = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + image.tobytes()


def read_image(path) -> np.ndarray:
    """Load a binary PPM file as (H, W, 3) uint8, whatever its suffix; a file
    that is not one raises ImageError naming the file."""
    with open(str(path), "rb") as fh:
        data = fh.read()
    try:
        return decode_ppm(data)
    except ValueError as exc:
        raise ImageError(f"{path}: {exc}") from None


def to_chw_float(image: np.ndarray) -> np.ndarray:
    """uint8 (H, W, 3) -> float32 (3, H, W) scaled to [0, 1]."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ImageError(f"expected (H, W, 3) image, got {image.shape}")
    return (image.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)


# ------------------------------------------------------------------ annotate

_PALETTE = ((220, 60, 50), (60, 160, 70), (60, 90, 220), (230, 170, 40),
            (170, 60, 200), (40, 190, 190))

# 5x7 glyphs for box labels
_GLYPHS = {
    "A": ("01110", "10001", "10001", "11111", "10001", "10001", "10001"),
    "B": ("11110", "10001", "10001", "11110", "10001", "10001", "11110"),
    "C": ("01110", "10001", "10000", "10000", "10000", "10001", "01110"),
    "D": ("11100", "10010", "10001", "10001", "10001", "10010", "11100"),
    "E": ("11111", "10000", "10000", "11110", "10000", "10000", "11111"),
    "F": ("11111", "10000", "10000", "11110", "10000", "10000", "10000"),
    "G": ("01110", "10001", "10000", "10111", "10001", "10001", "01111"),
    "H": ("10001", "10001", "10001", "11111", "10001", "10001", "10001"),
    "I": ("01110", "00100", "00100", "00100", "00100", "00100", "01110"),
    "J": ("00111", "00010", "00010", "00010", "00010", "10010", "01100"),
    "K": ("10001", "10010", "10100", "11000", "10100", "10010", "10001"),
    "L": ("10000", "10000", "10000", "10000", "10000", "10000", "11111"),
    "M": ("10001", "11011", "10101", "10101", "10001", "10001", "10001"),
    "N": ("10001", "11001", "10101", "10011", "10001", "10001", "10001"),
    "O": ("01110", "10001", "10001", "10001", "10001", "10001", "01110"),
    "P": ("11110", "10001", "10001", "11110", "10000", "10000", "10000"),
    "Q": ("01110", "10001", "10001", "10001", "10101", "10010", "01101"),
    "R": ("11110", "10001", "10001", "11110", "10100", "10010", "10001"),
    "S": ("01111", "10000", "10000", "01110", "00001", "00001", "11110"),
    "T": ("11111", "00100", "00100", "00100", "00100", "00100", "00100"),
    "U": ("10001", "10001", "10001", "10001", "10001", "10001", "01110"),
    "V": ("10001", "10001", "10001", "10001", "10001", "01010", "00100"),
    "W": ("10001", "10001", "10001", "10101", "10101", "10101", "01010"),
    "X": ("10001", "10001", "01010", "00100", "01010", "10001", "10001"),
    "Y": ("10001", "10001", "01010", "00100", "00100", "00100", "00100"),
    "Z": ("11111", "00001", "00010", "00100", "01000", "10000", "11111"),
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    "3": ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
    ".": ("00000", "00000", "00000", "00000", "00000", "01100", "01100"),
    "-": ("00000", "00000", "00000", "01110", "00000", "00000", "00000"),
    ":": ("00000", "01100", "01100", "00000", "01100", "01100", "00000"),
    "_": ("00000", "00000", "00000", "00000", "00000", "00000", "11111"),
    " ": ("00000", "00000", "00000", "00000", "00000", "00000", "00000"),
}


def _draw_text(image, text, x, y, color, scale=2):
    h, w = image.shape[:2]
    for ch in text.upper():
        glyph = _GLYPHS.get(ch, _GLYPHS[" "])
        for gy, row in enumerate(glyph):
            for gx, bit in enumerate(row):
                if bit == "1":
                    y0, x0 = y + gy * scale, x + gx * scale
                    image[max(0, y0):max(0, min(h, y0 + scale)),
                          max(0, x0):max(0, min(w, x0 + scale))] = color
        x += 6 * scale


def _draw_rect(image, x1, y1, x2, y2, color, thickness=2):
    h, w = image.shape[:2]
    x1, y1 = max(0, x1), max(0, y1)
    x2, y2 = min(w, x2), min(h, y2)
    if x2 <= x1 or y2 <= y1:
        return
    t = thickness
    image[y1:min(y1 + t, y2), x1:x2] = color
    image[max(y2 - t, y1):y2, x1:x2] = color
    image[y1:y2, x1:min(x1 + t, x2)] = color
    image[y1:y2, max(x2 - t, x1):x2] = color


def annotate(image: np.ndarray, detections) -> np.ndarray:
    """Burn detection boxes and labels into a copy of the image."""
    out = np.array(image, dtype=np.uint8, copy=True)
    for det in detections:
        color = _PALETTE[det.class_id % len(_PALETTE)]
        x1, y1, x2, y2 = (int(round(v)) for v in det.bbox)
        _draw_rect(out, x1, y1, x2, y2, color)
        label = f"{det.class_name} {det.confidence:.2f}"
        ty = y1 - 16 if y1 >= 16 else y1 + 3
        _draw_text(out, label, x1 + 3, ty, color)
    return out
