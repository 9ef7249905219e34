"""IDX image/label files and a synthetic digit corpus.

File layout (big endian):

  images:  i32 magic = 2051 | i32 count | i32 rows | i32 cols | u8 pixels...
  labels:  i32 magic = 2049 | i32 count | u8 labels...

Pixels are stored as bytes 0..255 and loaded scaled to [0, 1].

``synthetic_digits`` renders seven-segment glyphs for the ten digit
classes with random shifts, intensity jitter and pixel noise.  It exists
because the experiments need an image corpus in this format that can be
regenerated deterministically offline; it is a stand-in, not MNIST.
"""

from __future__ import annotations

import os
import struct

import numpy as np

__all__ = [
    "IDX_IMAGE_MAGIC",
    "IDX_LABEL_MAGIC",
    "IdxFormatError",
    "load_idx_images",
    "load_idx_labels",
    "load_mnist_idx",
    "save_idx_images",
    "save_idx_labels",
    "synthetic_digits",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


class IdxFormatError(ValueError):
    """Malformed IDX content: bad magic, truncation, trailing bytes or count mismatch."""


def _read_exact(fh, count: int, path, what: str) -> bytes:
    # checked before reading: a header may claim more than any buffer holds
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise IdxFormatError(f"{path}: truncated file while reading {what}")
    return fh.read(count)


def load_idx_images(path) -> np.ndarray:
    """Images as (N, rows, cols) float64 scaled to [0, 1]."""
    with open(path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, path, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{path}: image magic {magic} != {IDX_IMAGE_MAGIC}")
        raw = _read_exact(fh, count * rows * cols, path, "pixel data")
        if fh.read(1):
            raise IdxFormatError(f"{path}: trailing bytes after the pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic, count = struct.unpack(">II", _read_exact(fh, 8, path, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{path}: label magic {magic} != {IDX_LABEL_MAGIC}")
        raw = _read_exact(fh, count, path, "label data")
        if fh.read(1):
            raise IdxFormatError(f"{path}: trailing bytes after the label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_mnist_idx(images_path, labels_path):
    """Paired image/label arrays; counts must agree."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    return images, labels


def save_idx_images(path, images) -> None:
    """Write (N, rows, cols) images given as uint8 or as floats in [0, 1]."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError(f"images must be an (N, rows, cols) array, got shape {images.shape}")
    if images.dtype != np.uint8:
        inside = (images >= 0.0) & (images <= 1.0)  # False for NaN
        if not inside.all():
            raise ValueError(f"pixels that are not uint8 must be finite and in [0, 1], "
                             f"got {images[~inside][0]}")
        images = np.round(images * 255.0).astype(np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(images.tobytes())


def save_idx_labels(path, labels) -> None:
    """Write labels given as integers in 0..255."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-D array, got shape {labels.shape}")
    valid = (labels >= 0) & (labels <= 255) & (labels == np.floor(labels))
    if not valid.all():
        raise ValueError(f"labels must be integers in 0..255, got {labels[~valid][0]}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic digits

# Seven-segment encodings; segments are (row0, row1, col0, col1) slices of a
# 16 x 10 glyph box with 2-pixel strokes.
_SEGMENTS = {
    "A": (0, 2, 0, 10),
    "B": (0, 8, 8, 10),
    "C": (8, 16, 8, 10),
    "D": (14, 16, 0, 10),
    "E": (8, 16, 0, 2),
    "F": (0, 8, 0, 2),
    "G": (7, 9, 0, 10),
}

_DIGIT_SEGMENTS = [
    "ABCDEF",   # 0
    "BC",       # 1
    "ABGED",    # 2
    "ABGCD",    # 3
    "FGBC",     # 4
    "AFGCD",    # 5
    "AFGECD",   # 6
    "ABC",      # 7
    "ABCDEFG",  # 8
    "ABCDFG",   # 9
]

_GLYPH_H, _GLYPH_W = 16, 10
_SIZE, _NOISE_SD = 28, 0.08  # image edge; standard deviation of the pixel noise


def _glyph(digit: int) -> np.ndarray:
    out = np.zeros((_GLYPH_H, _GLYPH_W))
    for name in _DIGIT_SEGMENTS[digit]:
        r0, r1, c0, c1 = _SEGMENTS[name]
        out[r0:r1, c0:c1] = 1.0
    return out


def synthetic_digits(num: int, seed: int = 0):
    """Digit-like images (N, 28, 28) uint8 with labels cycling 0..9.

    Each sample places its class glyph at a random offset (+-2 pixels
    around center), scales the stroke intensity, and adds clipped pixel
    noise.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    glyphs = [_glyph(d) for d in range(10)]
    base_r = (_SIZE - _GLYPH_H) // 2
    base_c = (_SIZE - _GLYPH_W) // 2
    images = np.zeros((num, _SIZE, _SIZE))
    labels = np.arange(num, dtype=np.int64) % 10
    for i in range(num):
        dr, dc = rng.integers(-2, 3, size=2)
        intensity = rng.uniform(0.7, 1.0)
        canvas = images[i]
        r0, c0 = base_r + dr, base_c + dc
        canvas[r0 : r0 + _GLYPH_H, c0 : c0 + _GLYPH_W] = intensity * glyphs[labels[i]]
    images += rng.normal(scale=_NOISE_SD, size=images.shape)
    images = np.clip(images, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels
