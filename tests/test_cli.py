import hashlib
import json
import struct
import warnings

import numpy as np
import pytest

from ttnets import cli, tensor_io
from ttnets.cli import main
from ttnets.decompositions import tt_delta_example, tt_to_dense
from ttnets.mnist import IDX_IMAGE_MAGIC, save_idx_images, save_idx_labels, synthetic_digits
from ttnets.networks import make_score_network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_theorem1_pass_line_and_exit(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--d", "4", "--n", "2",
                           "--r", "2", "--samples", "6", "--seed", "3",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "PASS 6/6" in out
        lines = (tmp_path / "theorem1_report.csv").read_text().splitlines()
        assert lines[0] == "sample,seed,d,n,r,q,threshold,observed_rank,pass"
        assert len(lines) == 7

    def test_odd_d_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "--d", "5",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "even" in err

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "theorem2", "--out-dir", str(tmp_path))
        assert code == 2

    def test_ht_bounds_reports_max(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "ht-bounds", "--direction", "tt2ht",
                           "--d", "4", "--n", "3", "--r", "2", "--samples", "5",
                           "--seed", "2", "--out-dir", str(tmp_path))
        assert code == 0
        max_line = [ln for ln in out.splitlines() if ln.startswith("max_observed")][0]
        assert int(max_line.split()[1]) <= 4

    def test_hypothesis1_cells(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "hypothesis1", "--d", "4",
                           "--n-range", "2", "--r-range", "2,3", "--samples", "4",
                           "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert "PASS 8/8" in out

    @pytest.mark.parametrize("kind,flags", [
        ("theorem1", ["--samples", "0"]),
        ("theorem1", ["--samples", "-3"]),
        ("ht-bounds", ["--d", "4", "--samples", "0"]),
        ("hypothesis1", ["--samples", "0"]),
        ("hypothesis1", ["--n-range", ""]),
    ])
    def test_nothing_to_check_is_usage_error(self, tmp_path, capsys, kind, flags):
        code, out, err = run(capsys, "verify", kind, *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert "PASS" not in out and "error" in err

    @pytest.mark.parametrize("kind,flags,value", [
        ("theorem1", ["--n", "0"], "n=0"),
        ("hypothesis1", ["--n-range", "0", "--r-range", "2"], "n=0"),
        ("hypothesis1", ["--r-range", "0"], "r=0"),
        ("hypothesis1", ["--r-range", "-1"], "r=-1"),
        ("ht-bounds", ["--d", "4", "--n", "0"], "n=0"),
    ])
    def test_mode_size_or_rank_below_one_is_usage_error(self, tmp_path, capsys, kind,
                                                        flags, value):
        code, out, err = run(capsys, "verify", kind, *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert out == "" and err.startswith("error: ") and value in err

    def test_csv_bit_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(capsys, "verify", "theorem1", "--d", "4", "--n", "2",
                             "--r", "2", "--samples", "5", "--seed", "11",
                             "--out-dir", str(out_dir))
            assert code == 0
        assert (a / "theorem1_report.csv").read_bytes() == \
               (b / "theorem1_report.csv").read_bytes()


class TestRankCommand:
    def test_delta_chain_file(self, tmp_path, capsys):
        path = tmp_path / "delta.txt"
        tensor_io.save_dense(path, tt_to_dense(tt_delta_example(4, 2, 2)))
        code, out, _ = run(capsys, "rank", str(path), "--split", "1,3")
        assert code == 0
        assert "lower bound: 4" in out

    def test_delta_chain_with_repeated_columns(self, tmp_path, capsys):
        path = tmp_path / "delta6.txt"
        tensor_io.save_dense(path, tt_to_dense(tt_delta_example(6, 3, 3)))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "cp-rank lower bound: 27"

    @pytest.mark.parametrize("split,message", [
        ("9", "axis 9 outside the valid range 1..8"),
        ("0,2", "axis 0 outside the valid range 1..8"),
        ("2,4,2", "axis 2 listed twice"),
        ("1,2,3,4,5,6,7,8", "at least one row axis and one column axis"),
        ("", "at least one row axis and one column axis"),
    ])
    def test_bad_split_is_usage_error(self, tmp_path, capsys, split, message):
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, np.ones((2,) * 8))
        code, out, err = run(capsys, "rank", str(path), "--split", "1,3", "--split", split)
        assert code == 2
        assert out == "" and err.startswith("error: ") and message in err

    def test_runtime_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def diverge(args):
            raise RuntimeError("did not converge")

        monkeypatch.setitem(cli._COMMANDS, "rank", diverge)
        code, _, err = run(capsys, "rank", str(tmp_path / "x.txt"))
        assert code == 1
        assert err.strip() == "error: did not converge"

    def test_rank_one_file(self, tmp_path, capsys):
        path = tmp_path / "r1.txt"
        tensor_io.save_dense(path, np.multiply.outer([1.0, 2.0], [3.0, 4.0]))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert "lower bound: 1" in out

    def test_one_mode_file(self, tmp_path, capsys):
        path = tmp_path / "vector.txt"
        tensor_io.save_dense(path, np.array([1.0, 2.0, 3.0]))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "cp-rank lower bound: 1"

    @pytest.mark.parametrize("rel_tol", ["5", "nan", "0", "1"])
    def test_one_mode_file_checks_the_tolerance(self, tmp_path, capsys, rel_tol):
        path = tmp_path / "vector.txt"
        tensor_io.save_dense(path, np.array([1.0, 2.0, 3.0]))
        code, out, err = run(capsys, "rank", str(path), "--rel-tol", rel_tol)
        assert (code, out) == (2, "")
        assert err == f"error: rel_tol must lie in (0, 1), got {float(rel_tol)}\n"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("shape: 2 2\n1\n2\n")
        code, _, err = run(capsys, "rank", str(path))
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "rank", str(tmp_path / "nope.txt"))
        assert code == 1


class TestTrainCommand:
    def test_moons_quick_run(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--dataset", "moons", "--points", "60",
                           "--epochs", "3", "--lr", "0.004", "--seed", "1",
                           "--out-dir", str(tmp_path))
        assert code == 0
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"
        assert len(history) == 4
        assert (tmp_path / "checkpoint.txt").exists()

    # a diverging run's stderr is its one error line: no numpy warnings
    @pytest.mark.filterwarnings("error")
    def test_diverged_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        code, out, err = run(capsys, "train", "--dataset", "moons", "--lr", "1e200",
                             "--epochs", "3", "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == ("error: the run diverged (non-finite final loss) at learning "
                       "rate 1e+200\n")
        assert not (tmp_path / "history.csv").exists()
        assert not (tmp_path / "checkpoint.txt").exists()

    @pytest.mark.filterwarnings("error")
    def test_sweep_whose_every_rate_diverges(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_LR_SWEEP", (1e200, 1e150))
        code, out, err = run(capsys, "train", "--dataset", "moons", "--epochs", "3",
                             "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == ("error: every run diverged (non-finite final loss) at learning "
                       "rates 1e+200, 1e+150\n")
        assert not (tmp_path / "history.csv").exists()

    def test_zero_epochs(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--dataset", "circles", "--points", "40",
                           "--epochs", "0", "--lr", "0.001", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "history.csv").read_text().splitlines() == ["epoch,loss,accuracy"]

    def test_missing_mnist_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--dataset", "mnist",
                         "--images", str(tmp_path / "none.idx"),
                         "--labels", str(tmp_path / "none2.idx"),
                         "--out-dir", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--lr", "0"],
        ["--rank", "0"],
        ["--m", "0"],
        ["--noise", "nan"],
        ["--noise", "-0.1"],
        ["--lr", "nan"],
        ["--lr", "inf"],
    ])
    def test_bad_option_values_exit_two(self, tmp_path, capsys, flags):
        code, _, err = run(capsys, "train", "--dataset", "moons", "--points", "20",
                           "--epochs", "1", *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert "error" in err
        assert not (tmp_path / "checkpoint.txt").exists()

    @pytest.mark.parametrize("flags", [[], ["--lr", "0.001"]])
    def test_empty_idx_pair_exits_two(self, tmp_path, capsys, flags):
        save_idx_images(tmp_path / "im.idx", np.zeros((0, 28, 28), dtype=np.uint8))
        save_idx_labels(tmp_path / "lb.idx", np.zeros(0, dtype=np.uint8))
        out = tmp_path / "out"
        code, _, err = run(capsys, "train", "--dataset", "mnist",
                           "--images", str(tmp_path / "im.idx"),
                           "--labels", str(tmp_path / "lb.idx"), "--epochs", "1",
                           *flags, "--out-dir", str(out))
        assert code == 2
        assert "empty" in err and "diverged" not in err
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_nonpositive_limit_exits_two(self, tmp_path, capsys, limit):
        images, labels = synthetic_digits(10, seed=1)
        save_idx_images(tmp_path / "im.idx", images)
        save_idx_labels(tmp_path / "lb.idx", labels)
        code, _, err = run(capsys, "train", "--dataset", "mnist",
                           "--images", str(tmp_path / "im.idx"),
                           "--labels", str(tmp_path / "lb.idx"), "--limit", limit,
                           "--epochs", "0", "--lr", "0.001", "--out-dir", str(tmp_path))
        assert code == 2
        assert "limit" in err

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_idx_file_with_trailing_bytes_exits_two(self, tmp_path, capsys, which):
        images, labels = synthetic_digits(4, seed=1)
        save_idx_images(tmp_path / "images.idx", images)
        save_idx_labels(tmp_path / "labels.idx", labels)
        with open(tmp_path / f"{which}.idx", "ab") as fh:
            fh.write(bytes(3))
        code, out, err = run(capsys, "train", "--dataset", "mnist",
                             "--images", str(tmp_path / "images.idx"),
                             "--labels", str(tmp_path / "labels.idx"), "--epochs", "1",
                             "--lr", "0.001", "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path / which}.idx: ")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def digit_pair(tmp_path, size=28):
        images, labels = synthetic_digits(20, seed=1)
        lo = (28 - size) // 2
        save_idx_images(tmp_path / "im.idx", images[:, lo : lo + size, lo : lo + size])
        save_idx_labels(tmp_path / "lb.idx", labels)
        return ["--dataset", "mnist", "--images", str(tmp_path / "im.idx"),
                "--labels", str(tmp_path / "lb.idx")]

    @pytest.mark.parametrize("flags, size, geometry, reason", [
        (["--patch-size", "30"], 28, "30 and --stride 5", "patch larger than image"),
        (["--stride", "0"], 28, "8 and --stride 0", "stride must be positive"),
        (["--patch-size", "0"], 28, "0 and --stride 5", "patch_height must be positive"),
        ([], 20, "8 and --stride 5", "patches of 8x8 with stride 5 do not tile a 20x20 image"),
    ], ids=["patch-size-30", "stride-0", "patch-size-0", "20x20-defaults"])
    def test_patch_geometry_names_its_flags(self, tmp_path, capsys, flags, size, geometry,
                                            reason):
        digits = self.digit_pair(tmp_path, size)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "train", *digits, *flags, "--epochs", "1",
                                "--lr", "0.001", "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert err == (f"error: {tmp_path / 'im.idx'}: --patch-size {geometry} do not fit a "
                       f"{size}x{size} image: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0)])
    def test_idx_images_of_no_rows_or_columns_exit_two(self, tmp_path, capsys, rows, cols):
        digits = self.digit_pair(tmp_path)
        (tmp_path / "im.idx").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 20, rows, cols))
        code, out, err = run(capsys, "train", *digits, "--epochs", "1", "--lr", "0.001",
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'im.idx'}: images of {rows}x{cols} pixels")
        assert not (tmp_path / "out").exists()

    def test_mnist_tiny_run(self, tmp_path, capsys):
        images, labels = synthetic_digits(40, seed=1)
        save_idx_images(tmp_path / "im.idx", images)
        save_idx_labels(tmp_path / "lb.idx", labels)
        code, out, _ = run(capsys, "train", "--dataset", "mnist",
                           "--images", str(tmp_path / "im.idx"),
                           "--labels", str(tmp_path / "lb.idx"),
                           "--epochs", "1", "--lr", "0.001", "--rank", "2",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "checkpoint.txt").exists()


class TestTreeNetwork:
    def test_train_and_boundary(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--dataset", "moons", "--network", "ht",
                           "--epochs", "30", "--out-dir", str(tmp_path))
        assert code == 0
        assert "kind: ht" in (tmp_path / "checkpoint.txt").read_text().splitlines()
        code, _, _ = run(capsys, "boundary", "--checkpoint", str(tmp_path / "checkpoint.txt"),
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 100 * 100


class TestBoundaryCommand:
    @pytest.fixture
    def checkpoint(self, tmp_path, capsys):
        run(capsys, "train", "--dataset", "moons", "--points", "50", "--epochs", "2",
            "--lr", "0.004", "--out-dir", str(tmp_path))
        return tmp_path / "checkpoint.txt"

    def test_grid_csv_rows(self, tmp_path, capsys, checkpoint):
        code, _, _ = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                         "--resolution", "9", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 81

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_network_far_outside_the_data(self, tmp_path, capsys):
        # the sigmoid saturates at +-2000 without an overflow warning
        code, _, _ = run(capsys, "train", "--dataset", "moons", "--points", "40",
                         "--activation", "sigmoid", "--epochs", "2", "--lr", "4e-3",
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert run(capsys, "boundary", "--checkpoint", str(tmp_path / "checkpoint.txt"),
                   "--bounds=-2000,2000,-2000,2000", "--resolution", "5",
                   "--out-dir", str(tmp_path)) == (0, "", "")
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 25

    def test_recorded_digest(self, tmp_path, capsys):
        # sha256 recorded with the csv.writer rows (CRLF line ends); the
        # untrained network's grid holds both labels
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 4, 2, 2, seed=0))
        code, _, _ = run(capsys, "boundary", "--checkpoint", str(path), "--resolution", "7",
                         "--out-dir", str(tmp_path))
        assert code == 0
        data = (tmp_path / "grid.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "b7c26adaadda3bef70dec9f16c3f108bfb2f0c09f2391d169bd9d409c3ca9692"
        assert data.startswith(b"x,y,label\r\n-1.5,-1.25,1\r\n")

    def test_zero_class_checkpoint_exits_two(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 2, 2, 2, seed=0))
        head = path.read_text().split("core: 2 2 2\n")[0].replace("classes: 2", "classes: 0")
        path.write_text(head + "core: 2 2 0\n")
        code, out, err = run(capsys, "boundary", "--checkpoint", str(path),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: line 17: 'core' block needs dimensions of at "
                       f"least 1, got [2, 2, 0]\n")
        assert not (tmp_path / "out").exists()

    def test_recorded_svg_digest(self, tmp_path, capsys):
        # sha256 recorded while the grid was written one f-string per cell;
        # label 11 of the 12 classes wraps round the 10 colors
        path = tmp_path / "net.txt"
        tensor_io.save_checkpoint(path, make_score_network("tt", 2, 1, 4, 2, 12, seed=0))
        code, _, _ = run(capsys, "boundary", "--checkpoint", str(path), "--resolution", "7",
                         "--bounds=-40,40,-40,40", "--emit", "svg", "--out-dir", str(tmp_path))
        assert code == 0
        data = (tmp_path / "grid.svg").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "b9142c6279285806f0151501d63f28a08b4298347854f0bba7e2173cfa100265"
        assert data.count(b'fill="#ee6677"/>') > 0  # label 11, color 1

    def test_svg_has_one_rect_per_cell(self, tmp_path, capsys, checkpoint):
        code, _, _ = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                         "--resolution", "7", "--emit", "svg",
                         "--out-dir", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "grid.svg").read_text()
        assert svg.count("<rect") == 49
        assert svg.startswith("<svg")

    def test_non_finite_bounds_exit_two(self, tmp_path, capsys, checkpoint):
        code, _, err = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                           "--bounds", "nan,1,0,1", "--resolution", "3",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bounds", ["inf,1,0,1", "1,0,0,1", "0,0,0,1", "0,1,1,-1",
                                        "0,1,-1e+308,1e+308"])
    def test_box_that_is_not_finite_or_empty_exits_two(self, tmp_path, capsys, checkpoint,
                                                       bounds):
        # an infinite, reversed or zero-width box, or one whose height
        # overflows, is refused before any grid is laid out: no numpy
        # warning, no mirrored or repeated rows
        code, out, err = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                             "--bounds", bounds, "--resolution", "3",
                             "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: bounds must be finite with xmin < xmax and ymin < ymax, "
            f"got xmin,xmax,ymin,ymax = {bounds}"]
        assert not (tmp_path / "grid.csv").exists()

    def test_non_number_bound_names_the_flag(self, tmp_path, capsys, checkpoint):
        code, _, err = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                           "--bounds", "0,1,a,1", "--out-dir", str(tmp_path))
        assert code == 2
        assert err.strip() == "error: --bounds expects float values separated by commas, got 'a'"

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_checkpoint_exits_two(self, tmp_path, capsys, checkpoint, token):
        lines = checkpoint.read_text().splitlines()
        lines[lines.index("A: 4 1") + 1] = token
        checkpoint.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grid"
        code, _, err = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                           "--resolution", "3", "--out-dir", str(out))
        assert code == 2
        assert "checkpoint.txt: line" in err and "not a finite number" in err
        assert not (out / "grid.csv").exists()

    def test_inconsistent_cores_name_the_checkpoint(self, tmp_path, capsys, checkpoint):
        # the first core's width no longer matches the second core's input rank
        lines = checkpoint.read_text().splitlines()
        lines[lines.index("core: 1 4 8")] = "core: 1 8 4"
        checkpoint.write_text("\n".join(lines) + "\n")
        out = tmp_path / "grid"
        code, _, err = run(capsys, "boundary", "--checkpoint", str(checkpoint),
                           "--resolution", "3", "--out-dir", str(out))
        assert code == 2
        assert f"{checkpoint}: rank mismatch" in err
        assert not (out / "grid.csv").exists()

    def test_non_2d_checkpoint_rejected(self, tmp_path, capsys):
        images, labels = synthetic_digits(30, seed=2)
        save_idx_images(tmp_path / "im.idx", images)
        save_idx_labels(tmp_path / "lb.idx", labels)
        run(capsys, "train", "--dataset", "mnist",
            "--images", str(tmp_path / "im.idx"), "--labels", str(tmp_path / "lb.idx"),
            "--epochs", "0", "--lr", "0.001", "--rank", "2", "--out-dir", str(tmp_path))
        code, _, err = run(capsys, "boundary",
                           "--checkpoint", str(tmp_path / "checkpoint.txt"),
                           "--resolution", "4", "--out-dir", str(tmp_path))
        assert code == 2
        assert "2-D" in err


class TestSweepCommand:
    def test_rank_list_rows_and_param_counts(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--dataset", "moons", "--points", "40",
                         "--epochs", "1", "--lr", "0.001", "--ranks", "1,2",
                         "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "network,rank,core_params,total_params,train_loss,train_accuracy"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:4] == ["tt", "1", "12", "20"]

    @pytest.mark.filterwarnings("error")
    def test_diverged_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--dataset", "moons", "--ranks", "2,4",
                             "--lr", "1e200", "--epochs", "2", "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == ("error: the run diverged (non-finite final loss) at learning "
                       "rate 1e+200\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_rank_list(self, tmp_path, capsys):
        for ranks in ("", ","):
            code, _, err = run(capsys, "sweep", "--dataset", "moons", "--points", "40",
                               "--epochs", "1", "--lr", "0.001", "--ranks", ranks,
                               "--out-dir", str(tmp_path))
            assert code == 2
            assert "--ranks" in err
            assert not (tmp_path / "sweep.csv").exists()

    def test_tree_on_digits_stops_at_the_calibrated_init(self, tmp_path, capsys):
        # 28x28 digits in 8x8 patches at stride 5 are d = 25 patches: a
        # tree is built, but deep trees have no calibrated init yet
        images, labels = synthetic_digits(20, seed=1)
        save_idx_images(tmp_path / "im.idx", images)
        save_idx_labels(tmp_path / "lb.idx", labels)
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", "--dataset", "mnist", "--network", "ht",
                           "--images", str(tmp_path / "im.idx"),
                           "--labels", str(tmp_path / "lb.idx"), "--ranks", "2",
                           "--epochs", "1", "--out-dir", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "calibrated init" in err
        assert not out.exists()

    def test_rank_below_one_rejected_before_training(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--dataset", "moons", "--ranks", "8,0",
                             "--out-dir", str(tmp_path))
        assert code == 2
        assert out == "" and "--ranks" in err
        assert not (tmp_path / "sweep.csv").exists()


class TestPatchesCommand:
    def test_patch_matrix_csv(self, tmp_path, capsys):
        np.savetxt(tmp_path / "img.csv", np.arange(16.0).reshape(4, 4), delimiter=",")
        code, out, _ = run(capsys, "patches", "--image", str(tmp_path / "img.csv"),
                           "--patch-height", "2", "--patch-width", "2", "--stride", "2",
                           "--out-dir", str(tmp_path))
        assert code == 0
        mat = np.loadtxt(tmp_path / "patches.csv", delimiter=",")
        assert mat.shape == (4, 4)
        np.testing.assert_array_equal(mat[:, 0], [0, 1, 4, 5])

    def test_recorded_digest_of_a_4x4_image(self, tmp_path, capsys):
        # sha256 recorded while the command still had its own one-image
        # patch routine
        np.savetxt(tmp_path / "img.csv", np.arange(16.0).reshape(4, 4) / 7, delimiter=",",
                   fmt="%.17g")
        code, out, _ = run(capsys, "patches", "--image", str(tmp_path / "img.csv"),
                           "--patch-height", "2", "--patch-width", "2", "--stride", "1",
                           "--out-dir", str(tmp_path))
        assert code == 0 and out.startswith("4x9 patch matrix -> ")
        assert hashlib.sha256((tmp_path / "patches.csv").read_bytes()).hexdigest() == \
            "9f550aa3ad5feef265b474dff4bb96040483b7bb6fd479a8f6bcd39d34468ea2"

    @pytest.mark.parametrize("text, height, width, matrix", [
        ("1\n2\n3\n4\n", "2", "1", "1,3\n2,4\n"),  # a 4x1 image, not a 1x4 one
        ("1,2,3,4\n", "1", "2", "1,3\n2,4\n"),
        ("5\n", "1", "1", "5\n"),
    ], ids=["one-column", "one-row", "one-value"])
    def test_image_of_one_row_or_column(self, tmp_path, capsys, text, height, width, matrix):
        (tmp_path / "img.csv").write_text(text)
        code, out, _ = run(capsys, "patches", "--image", str(tmp_path / "img.csv"),
                           "--patch-height", height, "--patch-width", width, "--stride", "2",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "patches.csv").read_text() == matrix

    def test_non_tiling_config(self, tmp_path, capsys):
        np.savetxt(tmp_path / "img.csv", np.zeros((5, 5)), delimiter=",")
        code, _, err = run(capsys, "patches", "--image", str(tmp_path / "img.csv"),
                           "--patch-height", "2", "--patch-width", "2", "--stride", "2",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert err == (f"error: {tmp_path / 'img.csv'}: --patch-height 2, --patch-width 2 and "
                       f"--stride 2 do not fit a 5x5 image: patches of 2x2 with stride 2 do "
                       f"not tile a 5x5 image\n")

    @pytest.mark.parametrize("height, width, stride, reason", [
        ("6", "2", "1", "patch larger than image"),
        ("2", "2", "0", "stride must be positive"),
    ], ids=["too-tall", "stride-0"])
    def test_geometry_error_names_flags_and_file(self, tmp_path, capsys, height, width,
                                                 stride, reason):
        path = tmp_path / "img.csv"
        np.savetxt(path, np.zeros((5, 5)), delimiter=",")
        code, out, err = run(capsys, "patches", "--image", str(path), "--patch-height", height,
                             "--patch-width", width, "--stride", stride,
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: --patch-height {height}, --patch-width {width} and "
                       f"--stride {stride} do not fit a 5x5 image: {reason}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, line, fault", [
        ("1,2\n3\n", 2, "expected 2 values like the rows before it, got 1"),
        ("1,2,\n3,4,\n", 1, "expected numbers separated by commas, got '1,2,'"),
        ("# grid\n\n1,2\n3,x\n", 4, "expected numbers separated by commas, got '3,x'"),
    ], ids=["ragged", "trailing-comma", "not-a-number"])
    def test_malformed_csv_names_file_and_line(self, tmp_path, capsys, text, line, fault):
        path = tmp_path / "img.csv"
        path.write_text(text)
        code, out, err = run(capsys, "patches", "--image", str(path), "--patch-height", "1",
                             "--patch-width", "1", "--stride", "1",
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line {line}: {fault}\n"
        assert not (tmp_path / "out").exists()

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        (tmp_path / "img.csv").write_text("# a 2x2 image\n1, 2\n\n3,4  # last row\n")
        code, _, _ = run(capsys, "patches", "--image", str(tmp_path / "img.csv"),
                         "--patch-height", "1", "--patch-width", "2", "--stride", "1",
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "patches.csv").read_text() == "1,3\n2,4\n"


    @pytest.mark.parametrize("content", [b"1,2\nnan,4\n", b"1,inf\n3,4\n", b"", b"1,2\n\xff,3\n"],
                             ids=["nan", "inf", "empty", "not-text"])
    def test_unusable_image_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "img.csv"
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "patches", "--image", str(path),
                                 "--patch-height", "1", "--patch-width", "1", "--stride", "1",
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}:")
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 4, "n": 2, "r": 2, "samples": 99}))
        code, out, _ = run(capsys, "verify", "theorem1", "--config", str(cfg),
                           "--samples", "3", "--out-dir", str(tmp_path))
        assert code == 0
        assert "PASS 3/3" in out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": True}))
        code, _, err = run(capsys, "verify", "theorem1", "--config", str(cfg),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown config key" in err

    def test_config_that_is_not_text_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "verify", "theorem1", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}: not a text file (invalid start byte)\n"
        assert not (tmp_path / "out").exists()

    def test_hyphenated_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out-dir": str(tmp_path), "samples": 2,
                                   "d": 4, "n": 2, "r": 2}))
        code, out, _ = run(capsys, "verify", "theorem1", "--config", str(cfg))
        assert code == 0
        assert (tmp_path / "theorem1_report.csv").exists()

    @pytest.mark.parametrize("command,config", [
        ("train", {"epochs": "3"}),
        ("train", {"epochs": 2.5}),
        ("train", {"epochs": True}),
        ("train", {"seed": "7"}),
        ("train", {"noise": "0.1"}),
        ("train", {"network": 1}),
        ("train", {"epochs": None}),
        ("rank", {"split": "1,3"}),
        ("rank", {"split": [[1, 3]]}),
    ], ids=["int-as-string", "int-as-float", "int-as-bool", "seed-as-string",
            "float-as-string", "str-as-int", "null-without-none-default",
            "split-as-string", "split-as-nested-list"])
    def test_value_of_the_wrong_type_rejected(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        positional = [str(tmp_path / "x.txt")] if command == "rank" else []
        code, out, err = run(capsys, command, *positional, "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert out == "" and f"config key {next(iter(config))!r}" in err
        assert not (tmp_path / "out").exists()

    def test_values_of_the_option_types_accepted(self, tmp_path, capsys):
        path = tmp_path / "delta.txt"
        tensor_io.save_dense(path, tt_to_dense(tt_delta_example(4, 2, 2)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": ["1,3"], "rel_tol": 1e-10, "seed": 3}))
        code, out, _ = run(capsys, "rank", str(path), "--config", str(cfg))
        assert code == 0 and out.strip() == "cp-rank lower bound: 4"
        cfg.write_text(json.dumps({"dataset": "moons", "points": 40, "epochs": 1,
                                   "lr": 0.001, "noise": 0, "limit": None,
                                   "out_dir": str(tmp_path)}))
        code, out, _ = run(capsys, "train", "--config", str(cfg))
        assert code == 0 and out.startswith("final epoch 1:")


class TestCachedParser:
    """The parser is built once per process; no call may leave a value in
    it for the next.  The tensor x[i, j, k, l] = delta(i, k) delta(j, l)
    has rank 1 across the split 1,3 and rank 4 across 1,2, so its
    default-split bound is 4."""

    @pytest.fixture
    def path(self, tmp_path):
        eye = np.eye(2)
        path = tmp_path / "x.txt"
        tensor_io.save_dense(path, np.einsum("ik,jl->ijkl", eye, eye))
        return str(path)

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_split_does_not_carry_over(self, capsys, path):
        assert run(capsys, "rank", path, "--split", "1,3") == (0, "cp-rank lower bound: 1\n", "")
        assert run(capsys, "rank", path) == (0, "cp-rank lower bound: 4\n", "")

    def test_config_does_not_carry_over(self, tmp_path, capsys, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": ["1,3"]}))
        assert run(capsys, "rank", path, "--config", str(cfg)) == \
            (0, "cp-rank lower bound: 1\n", "")
        assert run(capsys, "rank", path) == (0, "cp-rank lower bound: 4\n", "")

    def test_good_call_after_a_usage_error(self, capsys, path):
        code, out, err = run(capsys, "rank", path, "--split", "1,3", "--bogus")
        assert code == 2 and out == "" and "unrecognized arguments: --bogus" in err
        assert run(capsys, "rank", path) == (0, "cp-rank lower bound: 4\n", "")


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem1", "--seed", "-1"],
        ["train", "--dataset", "moons", "--points", "20", "--epochs", "1", "--seed", "-1"],
        ["sweep", "--dataset", "moons", "--points", "20", "--epochs", "1", "--seed", "-1"],
        ["train", "--config", "{dir}/cfg.json"],
    ], ids=["verify", "train", "sweep", "config"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -3}))
        argv = [arg.format(dir=tmp_path) for arg in argv]
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "out"))
        value = "-3" if "--config" in argv else "-1"
        assert code == 2 and out == ""
        assert err.strip() == f"error: --seed must be a non-negative integer, got {value}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["rank", "{path}"], ["boundary", "--checkpoint", "{path}"]],
                             ids=["rank", "boundary"])
    def test_file_that_is_not_text_named(self, tmp_path, capsys, argv):
        path = tmp_path / "images.idx"
        path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + b"\x00\xd8\x01\x02")
        argv = [arg.format(path=path) for arg in argv]
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not a text file (invalid continuation byte)\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    @pytest.mark.parametrize("flag", ["--samp", "--out"])
    def test_abbreviated_flag_rejected(self, tmp_path, capsys, flag):
        # a flag is spelled out in full, as a config-file key must be
        value = {"--samp": "2", "--out": str(tmp_path / "out")}[flag]
        code, _, err = run(capsys, "verify", "theorem1", "--d", "4", "--n", "2", "--r", "2",
                           "--out-dir", str(tmp_path), flag, value)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["rank", "{dir}/x.txt", "--split", "a"],
        ["sweep", "--dataset", "moons", "--ranks", "4,a"],
        ["verify", "hypothesis1", "--n-range", "2,a"],
        ["verify", "hypothesis1", "--r-range", "a"],
    ], ids=["split", "ranks", "n-range", "r-range"])
    def test_non_integer_in_a_list_names_the_flag(self, tmp_path, capsys, argv):
        tensor_io.save_dense(tmp_path / "x.txt", np.ones((2, 2)))
        argv = [arg.format(dir=tmp_path) for arg in argv]
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: {argv[-2]} expects int values separated by commas, got 'a'"

    def test_deterministic_train_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(capsys, "train", "--dataset", "moons", "--points", "50",
                             "--epochs", "2", "--lr", "0.002", "--seed", "9",
                             "--out-dir", str(out_dir))
            assert code == 0
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        assert (a / "checkpoint.txt").read_bytes() == (b / "checkpoint.txt").read_bytes()


class TestCsvDigests:
    """sha256 of each command's CSV, recorded before the CSV writers were
    merged into one: the writer may change, the bytes may not."""

    CASES = {
        "history-trained": (
            ["train", "--dataset", "moons", "--points", "40", "--epochs", "2", "--lr", "0.004",
             "--seed", "1"], "history.csv",
            "332f44aca1a1569ff0db49d42e291547347ce684dfafe89bf4d40fd40e4d0997"),
        "history-no-epochs": (
            ["train", "--dataset", "moons", "--points", "40", "--epochs", "0", "--lr", "0.004"],
            "history.csv", "bdc803604e5beb6fc451a1c6ea397c13c56dbc64ae76c54e6cf949d86265ef2d"),
        "sweep-trained": (
            ["sweep", "--dataset", "moons", "--points", "40", "--epochs", "1", "--lr", "0.001",
             "--ranks", "1,2", "--seed", "2"], "sweep.csv",
            "0747ef8f79a00a8d02ac5c1f549b775b5258d3a51e84596653bbb952f03c7bec"),
        "sweep-no-epochs": (  # empty loss and accuracy fields
            ["sweep", "--dataset", "circles", "--points", "40", "--epochs", "0", "--lr", "0.001",
             "--ranks", "3,1"], "sweep.csv",
            "450f26800f9c2e0deb6ee780cf8fc6ed33717c9e3fb981cd7b627dfd42037c10"),
        "patches": (
            ["patches", "--image", "{dir}/img.csv", "--patch-height", "2", "--patch-width", "3",
             "--stride", "1"], "patches.csv",
            "74777797a45b5aa8adc15b624f1f8c43f153e23237516d3cf9e9c50062b4598f"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_recorded_digest(self, tmp_path, capsys, case):
        argv, name, digest = self.CASES[case]
        image = np.random.default_rng(4).normal(size=(4, 5))
        image[0, :2] = [-0.0, 0.1]
        np.savetxt(tmp_path / "img.csv", image, delimiter=",", fmt="%.17g")
        code, _, _ = run(capsys, *[a.format(dir=tmp_path) for a in argv],
                         "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest
