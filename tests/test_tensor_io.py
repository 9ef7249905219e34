import hashlib
import re

import numpy as np
import pytest

from ttnets import tensor_io
from ttnets.decompositions import TTTensor, cp_random, ht_random, tt_delta_example, tt_random
from ttnets.networks import build_similarity_network, make_score_network, stack_networks


class TestDenseFiles:
    def test_roundtrip_exact(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(2, 3, 4))
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, x)
        np.testing.assert_array_equal(tensor_io.load_dense(path), x)

    def test_header(self, tmp_path):
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, np.zeros((2, 5)))
        assert path.read_text().splitlines()[0] == "shape: 2 5"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("shope: 2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError, match="shape"):
            tensor_io.load_dense(path)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("shape: 2 2\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="end of file"):
            tensor_io.load_dense(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("shape: 2\n1.0\nbanana\n")
        with pytest.raises(ValueError, match="number"):
            tensor_io.load_dense(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("shape: 2\n1.0\n2.0\n3.0\n")
        with pytest.raises(ValueError, match="trailing"):
            tensor_io.load_dense(path)

    # sha256 recorded with the writer that formatted one value per write:
    # signed zero, the smallest subnormal and a huge value keep their bytes.
    def test_recorded_digest(self, tmp_path):
        x = np.concatenate([[-0.0, 5e-324, 1e308, 3.0, 0.1],
                            np.random.default_rng(22).normal(size=7)]).reshape(3, 4)
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, x)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "4491d7bc2eed7cef7e6b393f3911acf2e9219de271b0436fcda5fc91e7d19625"
        back = tensor_io.load_dense(path)
        np.testing.assert_array_equal(back, x)
        assert np.signbit(back[0, 0])


class TestChunkedWrites:
    """Values are formatted a chunk at a time, in the bytes of one format
    per value."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_boundary(self, tmp_path, extra):
        x = np.random.default_rng(extra + 1).normal(size=tensor_io.WRITE_CHUNK + extra)
        x[::97] *= 1e-300
        x[1::89] = -0.0
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, x)
        ref = f"shape: {x.size}\n" + "".join(f"{v:.17g}\n" for v in x)
        assert path.read_bytes() == ref.encode()


class TestWritersRefuse:
    """A writer refuses what its reader would refuse, before the file is
    opened."""

    def test_dense_non_finite(self, tmp_path):
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match="x.txt: 'shape' block holds nan, not a finite"):
            tensor_io.save_dense(path, [[1.0, np.nan], [np.inf, 2.0]])
        assert not path.exists()

    @pytest.mark.parametrize("x", [np.float64(5.0), np.zeros((0, 3)), np.zeros((2, 0))],
                             ids=["0-d", "empty-first", "empty-last"])
    def test_dense_without_values(self, tmp_path, x):
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match=re.escape(f"x.txt: a dense tensor needs at least "
                                                       f"one axis and no empty axis, got "
                                                       f"shape {x.shape}")):
            tensor_io.save_dense(path, x)
        assert not path.exists()

    def test_factor_file_non_finite(self, tmp_path):
        t = cp_random((2, 3), 2, seed=0)
        t.factors[0][1, 0] = -np.inf
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match="t.txt: 'factor' block holds -inf"):
            tensor_io.save_tensor(path, t)
        assert not path.exists()

    @pytest.mark.parametrize("kind, tag", [("tt", "core"), ("cp", "factor3"), ("ht", "node")])
    def test_checkpoint_non_finite_weight(self, tmp_path, kind, tag):
        net = make_score_network(kind, 4, 2, 3, 2, 2, seed=0)
        net.weights.parameters()[-1][..., 0] = np.nan
        path = tmp_path / "net.txt"
        with pytest.raises(ValueError, match=f"net.txt: '{tag}' block holds nan"):
            tensor_io.save_checkpoint(path, net)
        assert not path.exists()

    def test_checkpoint_non_finite_feature_map(self, tmp_path):
        net = make_score_network("tt", 2, 1, 2, 2, 2, seed=0)
        net.feature_map.A[0, 0] = np.inf
        path = tmp_path / "net.txt"
        with pytest.raises(ValueError, match="net.txt: 'A' block holds inf"):
            tensor_io.save_checkpoint(path, net)
        assert not path.exists()


    @pytest.mark.parametrize("kind, classes", [("tt", 2), ("cp", 2), ("ht", 2), ("cp", 1)],
                             ids=["tt", "cp", "ht", "cp-unit-leg"])
    def test_a_stack_refused(self, tmp_path, kind, classes):
        net = make_score_network(kind, 3, 2, 3, 2, classes, seed=0)
        stack = stack_networks([net, net])
        path = tmp_path / "t.txt"
        message = re.escape("t.txt: cannot save a stack with leading axes (2,): a file "
                            "holds one tensor or network")
        with pytest.raises(ValueError, match=message):
            tensor_io.save_checkpoint(path, stack)
        with pytest.raises(ValueError, match=message):
            tensor_io.save_tensor(path, stack.weights)
        assert not path.exists()


class TestBlockDimensions:
    """A block dimension below 1 is refused by the reader, naming the line
    and the tag, and an empty axis by the writer, before the file opens."""

    @pytest.mark.parametrize("text, line, tag, dims", [
        ("tt: 2\ncore: 1 0 2\ncore: 2 0 1\n", 2, "core", [1, 0, 2]),
        ("tt: 1\ncore: 1 -3 1\n1\n2\n3\n", 2, "core", [1, -3, 1]),
        ("cp: 2 2\nfactor: 2 2\n1\n2\n3\n4\n\nfactor: 0 2\n", 8, "factor", [0, 2]),
        ("\nshape: 2 0 3\n", 2, "shape", [2, 0, 3]),
        ("shape:\n1\n", 1, "shape", []),
    ], ids=["tt-zero", "tt-negative", "cp-zero-after-blank", "dense-zero", "dense-no-axis"])
    def test_factor_and_dense_files(self, tmp_path, text, line, tag, dims):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            (tensor_io.load_dense if tag == "shape" else tensor_io.load_tensor)(path)
        assert str(err.value) == (f"{path}: line {line}: '{tag}' block needs dimensions "
                                  f"of at least 1, got {dims}")

    @pytest.mark.parametrize("line, edited", [("A: 2 1", "A: -1 1"), ("b: 2", "b: 0"),
                                              ("core: 2 2 2", "core: 2 2 0")])
    def test_checkpoint(self, tmp_path, line, edited):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 2, seed=0))
        lines = path.read_text().splitlines()
        number = lines.index(line) + 1
        lines[number - 1] = edited
        path.write_text("\n".join(lines) + "\n")
        tag, *dims = edited.split()
        with pytest.raises(ValueError) as err:
            tensor_io.load_checkpoint(path)
        assert str(err.value) == (f"{path}: line {number}: '{tag[:-1]}' block needs "
                                  f"dimensions of at least 1, got {[int(n) for n in dims]}")

    def test_writers_refuse_an_empty_axis(self, tmp_path):
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=re.escape(
                "t.txt: 'core' block has an empty axis, shape (1, 0, 2)")):
            tensor_io.save_tensor(path, TTTensor([np.zeros((1, 0, 2)), np.zeros((2, 0, 1))]))
        with pytest.raises(ValueError, match=re.escape(
                "t.txt: 'core' block has an empty axis, shape (2, 2, 0)")):
            tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 0, seed=0))
        assert not path.exists()


def _replace_line(path, number, token):
    lines = path.read_text().splitlines()
    lines[number - 1] = token
    path.write_text("\n".join(lines) + "\n")


def _dense_file(path):
    tensor_io.save_dense(path, np.arange(12.0).reshape(3, 4))
    return 3  # the line of the second of the twelve values


def _checkpoint_file(path):
    tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 2, seed=0))
    return path.read_text().splitlines().index("core: 2 2 2") + 3


_DENSE_AND_CHECKPOINT = pytest.mark.parametrize(
    "write, load", [(_dense_file, tensor_io.load_dense),
                    (_checkpoint_file, tensor_io.load_checkpoint)], ids=["dense", "checkpoint"])


class TestMalformedValues:
    """A block's values are converted at once; the messages name the first
    bad token, or the end of the file inside a block."""

    @_DENSE_AND_CHECKPOINT
    def test_non_number_mid_block_named(self, tmp_path, write, load):
        path = tmp_path / "f.txt"
        line = write(path)
        _replace_line(path, line, "0.5x")
        _replace_line(path, line + 2, "banana")
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: expected a number, got '0.5x'"

    @_DENSE_AND_CHECKPOINT
    def test_block_cut_short_is_end_of_file(self, tmp_path, write, load):
        path = tmp_path / "f.txt"
        line = write(path)
        path.write_text("\n".join(path.read_text().splitlines()[:line]) + "\n")
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: unexpected end of file, expected a value"

    @pytest.mark.parametrize("dims", ["4294967296 4294967296", "3037000500 3037000500"])
    @_DENSE_AND_CHECKPOINT
    def test_block_too_large_for_int64_is_end_of_file(self, tmp_path, write, load, dims):
        # the value count of either header overflows int64 (2**64 would
        # wrap to 0, 3037000500**2 to a negative count); the file's first
        # block, followed only by its own values, must read as cut short
        path = tmp_path / "f.txt"
        write(path)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(("shape:", "A:")))
        tag, *shape = lines[at].split()
        lines = lines[:at + 1 + int(np.prod([int(n) for n in shape]))]
        lines[at] = f"{tag} {dims}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: unexpected end of file, expected a value"


class TestNonFiniteValues:
    """Every loader names the file and line of a value that is not finite."""

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_dense(self, tmp_path, token):
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, np.ones((2, 2)))
        _replace_line(path, 4, token)
        with pytest.raises(ValueError, match=f"x.txt: line 4: value '{token}' is not a finite number"):
            tensor_io.load_dense(path)

    @pytest.mark.parametrize("save, load, tensor", [
        (tensor_io.save_tensor, tensor_io.load_tensor, tt_random((2, 3, 2), (2, 2), seed=0)),
        (tensor_io.save_tensor, tensor_io.load_tensor, cp_random((2, 3), 2, seed=0)),
        (tensor_io.save_tensor, tensor_io.load_tensor, ht_random((2, 2, 2, 2), 2, seed=0)),
    ])
    def test_factor_files(self, tmp_path, save, load, tensor):
        path = tmp_path / "t.txt"
        save(path, tensor)
        last = len(path.read_text().splitlines())
        _replace_line(path, last, "nan")
        with pytest.raises(ValueError, match=f"t.txt: line {last}: value 'nan'"):
            load(path)

    def test_checkpoint_feature_map(self, tmp_path):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 2, seed=0))
        lines = path.read_text().splitlines()
        line = lines.index("A: 2 1") + 2
        _replace_line(path, line, "inf")
        with pytest.raises(ValueError, match=f"net.txt: line {line}: value 'inf'"):
            tensor_io.load_checkpoint(path)

    def test_blank_lines_do_not_shift_the_line_number(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("shape: 2\n\n1.0\n\nnan\n")
        with pytest.raises(ValueError, match="line 5"):
            tensor_io.load_dense(path)


class TestFilesThatAreNotText:
    @pytest.mark.parametrize("load", [tensor_io.load_dense, tensor_io.load_tensor,
                                      tensor_io.load_checkpoint],
                             ids=["dense", "tensor", "checkpoint"])
    def test_refused_naming_the_file(self, tmp_path, load):
        path = tmp_path / "x.txt"
        path.write_bytes(b"shape: 2\n1\n\xff\n")
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: not a text file (invalid start byte)"

    def test_crlf_and_cr_line_ends_keep_line_numbers(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"shape: 3\r\n1\r\r\n2\rnan\n")
        with pytest.raises(ValueError, match="line 5: value 'nan' is not a finite number"):
            tensor_io.load_dense(path)


class TestFactorFiles:
    def test_tt_roundtrip(self, tmp_path):
        tt = tt_random((2, 3, 2), (2, 4), seed=0)
        path = tmp_path / "tt.txt"
        tensor_io.save_tensor(path, tt)
        back = tensor_io.load_tensor(path)
        for a, b in zip(tt.cores, back.cores):
            np.testing.assert_array_equal(a, b)

    def test_cp_roundtrip(self, tmp_path):
        cp = cp_random((4, 2, 3), 3, seed=1)
        path = tmp_path / "cp.txt"
        tensor_io.save_tensor(path, cp)
        back = tensor_io.load_tensor(path)
        for a, b in zip(cp.factors, back.factors):
            np.testing.assert_array_equal(a, b)

    def test_ht_roundtrip(self, tmp_path):
        for ht in (ht_random((2, 3, 2, 3), [2, 2, 2, 2, 3, 2], seed=2),
                   ht_random((2, 3, 4, 5, 6) * 5, 2, seed=2)):
            path, again = tmp_path / "ht.txt", tmp_path / "again.txt"
            tensor_io.save_tensor(path, ht)
            back = tensor_io.load_tensor(path)
            assert back.shape == ht.shape
            for a, b in zip(ht.nodes, back.nodes):
                np.testing.assert_array_equal(a, b)
            tensor_io.save_tensor(again, back)
            assert again.read_bytes() == path.read_bytes()

    def test_rank_mismatch_names_the_file(self, tmp_path):
        path = tmp_path / "bad_tt.txt"
        path.write_text("tt: 2\ncore: 1 2 1\n1\n2\ncore: 2 2 1\n1\n2\n3\n4\n")
        with pytest.raises(ValueError, match="bad_tt.txt: rank mismatch between cores 1 and 2"):
            tensor_io.load_tensor(path)

    def test_cp_rank_consistency_checked(self, tmp_path):
        path = tmp_path / "bad_cp.txt"
        path.write_text("cp: 1 2\nfactor: 2 3\n1\n2\n3\n4\n5\n6\n")
        with pytest.raises(ValueError, match="rank"):
            tensor_io.load_tensor(path)

    # sha256 of factor files recorded with the earlier per-format writers
    # (save_tt, save_cp, save_ht): the one writer must keep the same bytes.
    @pytest.mark.parametrize("build,digest", [
        (lambda: tt_random((2, 3, 2), (2, 3), seed=1),
         "f5d79be770333ef29fd97313caf8b5c936847a3da75a3fe5409465dd110a5957"),
        (lambda: cp_random((2, 3, 4), 3, seed=2),
         "01e8411797c9ab43931f2d712ce0135a4e0ef9df6d8f378437a0cd14e425cc4f"),
        (lambda: ht_random((2, 3, 2, 3), 2, seed=3),
         "267aefc52a0ee6df503fdccd6a1c34061d3838f697b24f392d4ccbe7387283b0"),
        (lambda: ht_random((2,) * 8, [1, 2, 3, 2, 1, 2, 3, 2, 2, 3, 1, 2, 3, 2], seed=4),
         "e93344502b1932747c4f307b2604f4c378c6d0328e14b7f98e20d5263735bf4a"),
        (lambda: tt_delta_example(6, 3, 3),
         "1278142b649eda48a1515470b13e474af3f2c2284e59e25746946087db936812"),
    ], ids=["tt", "cp", "ht", "ht-d8", "tt-delta"])
    def test_recorded_digest(self, tmp_path, build, digest):
        path = tmp_path / "t.txt"
        t = build()
        tensor_io.save_tensor(path, t)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back = tensor_io.load_tensor(path)
        assert back.kind == t.kind
        for a, b in zip(t.parameters(), back.parameters()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("save", [
        lambda path: tensor_io.save_dense(path, np.ones((2, 2))),
        lambda path: tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 2,
                                                                        seed=0)),
    ], ids=["dense", "checkpoint"])
    def test_other_files_rejected(self, tmp_path, save):
        path = tmp_path / "other.txt"
        save(path)
        with pytest.raises(ValueError, match="other.txt: not a factor file"):
            tensor_io.load_tensor(path)


class TestCheckpoints:
    @pytest.mark.parametrize("kind, d", [("tt", 3), ("cp", 3), ("ht", 25)],
                             ids=["tt", "cp", "ht-d25"])
    def test_roundtrip_preserves_scores(self, tmp_path, kind, d):
        net = make_score_network(kind, d, 2, 4, 3, 2, seed=3, activation="sigmoid")
        path, again = tmp_path / "net.txt", tmp_path / "again.txt"
        tensor_io.save_checkpoint(path, net)
        back = tensor_io.load_checkpoint(path)
        x = np.random.default_rng(4).normal(size=(6, d, 2))
        np.testing.assert_array_equal(back.scores_batch(x), net.scores_batch(x))
        tensor_io.save_checkpoint(again, back)
        assert again.read_bytes() == path.read_bytes()

    # sha256 recorded with the writer that formatted one value per write.
    @pytest.mark.parametrize("build,digest", [
        (lambda: make_score_network("tt", 3, 2, 4, 3, 2, seed=3, activation="sigmoid"),
         "df8010dcfc25b37b1d1a4551d70fa11fcf166a3a2da13456db7ddbaf53a5dbbf"),
        (lambda: make_score_network("cp", 3, 2, 4, 3, 2, seed=3, activation="sigmoid"),
         "5311464f1a2380c152e3dc8d076cb18d9ddc36b2af75144c10adba2cfc07914b"),
        (lambda: make_score_network("ht", 5, 2, 4, 3, 2, seed=3, activation="sigmoid"),
         "48550dd8c9b496d249499f629a7311743a50428086efbf5826c3be413bfe0d58"),
        (lambda: build_similarity_network(4, 3),
         "603055d12c570b0f4d49c6d84347bb0fb2859106ce5f0c9265b0ba29eee5bda0"),
    ], ids=["tt", "cp", "ht-d5", "similarity"])
    def test_recorded_digest(self, tmp_path, build, digest):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, build())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_versioned_header(self, tmp_path):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        assert path.read_text().splitlines()[0] == "ttnets-checkpoint v1"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="checkpoint"):
            tensor_io.load_checkpoint(path)

    def test_tree_network_roundtrip(self, tmp_path):
        net = make_score_network("ht", 4, 2, 3, 2, 3, seed=1, activation="sigmoid")
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        back = tensor_io.load_checkpoint(path)
        assert back.kind == "ht" and back.num_classes == 3
        x = np.random.default_rng(5).normal(size=(6, 4, 2))
        np.testing.assert_array_equal(back.scores_batch(x), net.scores_batch(x))

    def test_similarity_network_roundtrip_keeps_input_order(self, tmp_path):
        net = build_similarity_network(4, 3)
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        assert "order: 0 2 1 3" in path.read_text().splitlines()
        back = tensor_io.load_checkpoint(path)
        assert back.input_order == net.input_order
        x = np.random.default_rng(6).normal(size=(8, 4, 3))
        np.testing.assert_array_equal(back.scores_batch(x), net.scores_batch(x))

    def test_order_line_must_be_a_permutation(self, tmp_path):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, build_similarity_network(4, 3))
        path.write_text(path.read_text().replace("order: 0 2 1 3\n", "order: 0 2 2 3\n"))
        with pytest.raises(ValueError, match="permutation"):
            tensor_io.load_checkpoint(path)

    def test_no_order_line_without_input_order(self, tmp_path):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        assert not any(line.startswith("order:") for line in path.read_text().splitlines())

    @pytest.mark.parametrize("edited", ["input: 2 5", "input: 3 1", "input: 1 1"])
    def test_hand_edited_input_header_rejected(self, tmp_path, edited):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        text = path.read_text()
        assert "input: 2 1\n" in text
        path.write_text(text.replace("input: 2 1\n", edited + "\n"))
        with pytest.raises(ValueError):
            tensor_io.load_checkpoint(path)

    @pytest.mark.parametrize("line,edited", [
        ("kind: tt", "kind: tt cp"), ("classes: 2", "classes: 2 3"),
        ("input: 2 1", "input: 2"), ("activation: relu", "activation: relu sigmoid")])
    def test_header_field_count_checked(self, tmp_path, line, edited):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 4, 2, 2, seed=0))
        text = path.read_text()
        assert line + "\n" in text
        path.write_text(text.replace(line + "\n", edited + "\n"))
        tag = line.split()[0]
        with pytest.raises(ValueError, match=f"net.txt: '{tag}' header needs "
                                             f"{len(line.split()) - 1} fields, got"):
            tensor_io.load_checkpoint(path)

    def test_class_count_checked(self, tmp_path):
        net = make_score_network("cp", 2, 1, 4, 2, 2, seed=0)
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, net)
        path.write_text(path.read_text().replace("classes: 2\n", "classes: 3\n"))
        with pytest.raises(ValueError, match="classes"):
            tensor_io.load_checkpoint(path)


# A d=4 tree as a tensor file and as a network checkpoint: (save, load).
TREE_FILES = {
    "ht": (lambda path: tensor_io.save_tensor(path, ht_random((2, 3, 2, 3), 2, seed=0)),
           tensor_io.load_tensor),
    "checkpoint": (lambda path: tensor_io.save_checkpoint(
        path, make_score_network("ht", 4, 2, 3, 2, 2, seed=0)), tensor_io.load_checkpoint),
}


def _tree_blocks(path):
    """The file's text before its first leaf block, and its 7 tree blocks."""
    head, *blocks = re.split(r"(?m)^(?=(?:leaf|node):)", path.read_text())
    assert len(blocks) == 7
    return head, blocks


class TestTreeBlocks:
    @pytest.mark.parametrize("which", list(TREE_FILES))
    def test_node_block_where_a_leaf_belongs(self, tmp_path, which):
        save, load = TREE_FILES[which]
        path = tmp_path / "tree.txt"
        save(path)
        head, blocks = _tree_blocks(path)
        blocks[1], blocks[6] = blocks[6], blocks[1]
        path.write_text(head + "".join(blocks))
        with pytest.raises(ValueError, match="tree.txt: node 1 is a leaf and must be 2-way"):
            load(path)

    @pytest.mark.parametrize("which", list(TREE_FILES))
    @pytest.mark.parametrize("missing", [1, 5])
    def test_missing_block(self, tmp_path, which, missing):
        save, load = TREE_FILES[which]
        path = tmp_path / "tree.txt"
        save(path)
        head, blocks = _tree_blocks(path)
        path.write_text(head + "".join(blocks[:missing] + blocks[missing + 1:]))
        with pytest.raises(ValueError, match="end of file"):
            load(path)
