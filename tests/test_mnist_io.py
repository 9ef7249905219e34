import struct
import warnings

import numpy as np
import pytest

from ttnets.mnist import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    IdxFormatError,
    load_idx_images,
    load_idx_labels,
    load_mnist_idx,
    save_idx_images,
    save_idx_labels,
    synthetic_digits,
)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
    labels = (np.arange(7) % 10).astype(np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx_images(ip, images)
    save_idx_labels(lp, labels)
    return ip, lp, images, labels


class TestIdxFiles:
    def test_header_layout(self, idx_pair):
        ip, lp, images, _ = idx_pair
        with open(ip, "rb") as fh:
            magic, count, rows, cols = struct.unpack(">IIII", fh.read(16))
        assert (magic, count, rows, cols) == (IDX_IMAGE_MAGIC, 7, 28, 28)
        with open(lp, "rb") as fh:
            magic, count = struct.unpack(">II", fh.read(8))
        assert (magic, count) == (IDX_LABEL_MAGIC, 7)

    def test_roundtrip_and_scaling(self, idx_pair):
        ip, lp, images, labels = idx_pair
        got_images, got_labels = load_mnist_idx(ip, lp)
        assert got_images.shape == (7, 28, 28)
        assert got_images.min() >= 0.0 and got_images.max() <= 1.0
        np.testing.assert_allclose(got_images * 255.0, images, atol=1e-12)
        np.testing.assert_array_equal(got_labels, labels)

    def test_bad_image_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_images(path)

    def test_bad_label_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", IDX_IMAGE_MAGIC, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_labels(path)

    def test_empty_file_is_truncation(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 4, 4) + bytes(10))
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(path)

    @pytest.mark.parametrize("load, header", [
        (load_idx_images, struct.pack(">IIII", IDX_IMAGE_MAGIC, 2**32 - 1, 2**32 - 1, 2**32 - 1)),
        (load_idx_images, struct.pack(">IIII", IDX_IMAGE_MAGIC, 3, 100000, 100000)),
        (load_idx_labels, struct.pack(">II", IDX_LABEL_MAGIC, 2**32 - 1)),
    ], ids=["images-max", "images-30-gb", "labels-max"])
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, load, header):
        # refused before the claimed size is read, not as an overflow or
        # an allocation failure
        path = tmp_path / "tiny.idx"
        path.write_bytes(header + bytes(10))
        with pytest.raises(IdxFormatError, match="tiny.idx: truncated file"):
            load(path)

    @pytest.mark.parametrize("load, name, extra", [
        (load_idx_images, "img.idx", 1000), (load_idx_images, "img.idx", 1),
        (load_idx_labels, "lab.idx", 3),
    ], ids=["images-1000", "images-1", "labels-3"])
    def test_trailing_bytes_rejected(self, tmp_path, idx_pair, load, name, extra):
        with open(tmp_path / name, "ab") as fh:
            fh.write(bytes(extra))
        with pytest.raises(IdxFormatError, match=f"{name}: trailing bytes after the"):
            load(tmp_path / name)

    def test_count_mismatch(self, tmp_path, idx_pair):
        ip, _, _, _ = idx_pair
        lp = tmp_path / "short_labels.idx"
        save_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_mnist_idx(ip, lp)

    def test_float_images_scaled_on_save(self, tmp_path):
        path = tmp_path / "float.idx"
        save_idx_images(path, np.full((1, 2, 2), 0.5))
        back = load_idx_images(path)
        np.testing.assert_allclose(back, 128 / 255, atol=1e-12)


    @pytest.mark.parametrize("labels", [[0, 9, 256], [0, -1], [0, 3.7], [float("nan")],
                                        np.zeros((2, 2), dtype=np.uint8)],
                             ids=["256", "negative", "fraction", "nan", "2-D"])
    def test_labels_that_do_not_fit_a_byte_rejected(self, tmp_path, labels):
        path = tmp_path / "lab.idx"
        with pytest.raises(ValueError, match="labels must be"):
            save_idx_labels(path, labels)
        assert not path.exists()

    def test_integral_labels_of_any_dtype_saved(self, tmp_path):
        path = tmp_path / "lab.idx"
        save_idx_labels(path, [0.0, 9.0, 255])
        np.testing.assert_array_equal(load_idx_labels(path), [0, 9, 255])

    @pytest.mark.parametrize("images, match", [
        (np.full((1, 2, 2), np.nan), "finite and in \\[0, 1\\]"),
        (np.full((1, 2, 2), np.inf), "finite and in \\[0, 1\\]"),
        (np.full((1, 2, 2), 1.5), "finite and in \\[0, 1\\]"),
        (np.full((1, 2, 2), -0.5), "finite and in \\[0, 1\\]"),
        (np.full((1, 2, 2), 3, dtype=np.int64), "finite and in \\[0, 1\\]"),
        (np.zeros((2, 2)), "\\(N, rows, cols\\)"),
        (np.zeros((1, 2, 2, 1), dtype=np.uint8), "\\(N, rows, cols\\)"),
    ], ids=["nan", "inf", "above-one", "negative", "int-above-one", "2-D", "4-D"])
    def test_images_that_do_not_fit_a_byte_rejected(self, tmp_path, images, match):
        path = tmp_path / "img.idx"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                save_idx_images(path, images)
        assert not path.exists()

    def test_empty_arrays_saved(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        save_idx_images(ip, np.zeros((0, 28, 28)))
        save_idx_labels(lp, [])
        assert load_idx_images(ip).shape == (0, 28, 28)
        assert load_idx_labels(lp).shape == (0,)


class TestSyntheticDigits:
    def test_deterministic(self):
        a_img, a_lab = synthetic_digits(50, seed=5)
        b_img, b_lab = synthetic_digits(50, seed=5)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lab, b_lab)

    def test_labels_cycle_all_classes(self):
        _, labels = synthetic_digits(25, seed=0)
        np.testing.assert_array_equal(labels[:10], np.arange(10))

    def test_image_range_and_shape(self):
        images, _ = synthetic_digits(30, seed=1)
        assert images.shape == (30, 28, 28)
        assert images.dtype == np.uint8

    def test_classes_are_distinguishable(self):
        # same-class images correlate much more than cross-class ones
        images, labels = synthetic_digits(200, seed=2)
        flat = images.reshape(200, -1).astype(float)
        flat -= flat.mean(axis=1, keepdims=True)
        flat /= np.linalg.norm(flat, axis=1, keepdims=True)
        sims = flat @ flat.T
        same = sims[labels[:, None] == labels[None, :]]
        diff = sims[labels[:, None] != labels[None, :]]
        assert same.mean() > diff.mean() + 0.05
