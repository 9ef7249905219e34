#!/usr/bin/env python3
"""Write a fixed set of ttnets artifacts from one checkout.

    python3 scripts/artifacts.py CHECKOUT OUT_DIR

Runs a fixed, small list of steps against ``CHECKOUT/src`` in this one
interpreter, with BLAS pinned to one thread: the inputs (synthetic digit
IDX files, a copy of the image file with trailing bytes, dense tensors,
an image CSV, a one-column image CSV, a checkpoint whose root core has
no class axis and a factor file whose cores have a mode of size 0), then
``ttnets`` commands (``train`` on the toy sets, by sweep and at one rate,
each followed by ``boundary`` csv and svg; a sigmoid ``train`` followed
by ``boundary`` far outside the data; a digit ``sweep`` and ``train``; a
``train`` and a digit ``sweep`` of no epochs; the three verifiers;
``rank``; ``patches`` of both images), ``save_tensor`` of random TT, CP
and HT tensors, ``load_tensor`` of the zero-size factor file, and
commands that must fail.  Step NAME writes its files
under ``OUT_DIR/NAME/`` next to ``stdout``, ``stderr`` and ``exit`` (its
exit code).  The commands run with OUT_DIR as the working directory and
relative paths, and the checkout's source path reads ``src/`` in the
captured text, so that two checkouts that compute the same bytes give
trees that ``diff -r`` finds equal.  A run takes a few seconds.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a fixed summation order.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

TOYS = [("moons", "tt"), ("moons", "cp"), ("moons", "ht"), ("circles", "tt")]
DIGITS = ["--dataset", "mnist", "--images", "inputs/digits-images.idx",
          "--labels", "inputs/digits-labels.idx", "--epochs", "2"]


def commands() -> list[tuple[str, list[str]]]:
    """(step name, ``ttnets`` argv) for every command step, in run order."""
    steps = []
    for dataset, network in TOYS:
        for how, rate in [("sweep", []), ("lr", ["--lr", "0.004"])]:
            name = f"train-{dataset}-{network}-{how}"
            steps.append((name, ["train", "--dataset", dataset, "--network", network,
                                 "--points", "120", "--epochs", "15", "--seed", "3",
                                 *rate]))
            for emit in ("csv", "svg"):
                steps.append((f"{name}-boundary-{emit}",
                              ["boundary", "--checkpoint", f"{name}/checkpoint.txt",
                               "--resolution", "30", "--emit", emit]))
    sigmoid = "train-moons-sigmoid"
    return steps + [
        (sigmoid, ["train", "--dataset", "moons", "--activation", "sigmoid", "--points",
                   "120", "--epochs", "5", "--lr", "4e-3", "--seed", "3"]),
        (f"{sigmoid}-boundary-far", ["boundary", "--checkpoint", f"{sigmoid}/checkpoint.txt",
                                     "--bounds=-2000,2000,-2000,2000", "--resolution", "30"]),
        ("sweep-digits", ["sweep", *DIGITS, "--network", "tt", "--ranks", "2,4"]),
        ("train-digits", ["train", *DIGITS, "--network", "cp", "--rank", "4",
                          "--lr", "2e-3"]),
        ("train-epochs-0", ["train", "--points", "40", "--epochs", "0", "--lr", "1e-3"]),
        ("sweep-digits-epochs-0", ["sweep", *DIGITS, "--network", "tt", "--ranks", "2,4",
                                   "--epochs", "0"]),
        ("verify-theorem1", ["verify", "theorem1", "--samples", "20"]),
        ("verify-hypothesis1", ["verify", "hypothesis1", "--d", "4", "--samples", "5"]),
        ("verify-ht-bounds-tt2ht", ["verify", "ht-bounds", "--samples", "10"]),
        ("verify-ht-bounds-ht2tt", ["verify", "ht-bounds", "--samples", "10",
                                    "--direction", "ht2tt"]),
        ("rank-delta-chain", ["rank", "inputs/delta8.txt"]),
        ("rank-chain", ["rank", "inputs/chain8.txt"]),
        ("patches", ["patches", "--image", "inputs/digit.csv"]),
        ("patches-one-column", ["patches", "--image", "inputs/column.csv",
                                "--patch-height", "2", "--patch-width", "1", "--stride", "2"]),
        ("train-lr-0", ["train", "--lr", "0", "--epochs", "1"]),
        ("train-lr-1e200", ["train", "--dataset", "moons", "--lr", "1e200",
                            "--epochs", "3"]),
        ("rank-one-mode-rel-tol-5", ["rank", "inputs/vector.txt", "--rel-tol", "5"]),
        ("boundary-zero-classes", ["boundary", "--checkpoint", "inputs/zero-classes.txt"]),
        ("train-digits-trailing-bytes", ["train", "--dataset", "mnist", "--images",
                                         "inputs/digits-images-trailing.idx", "--labels",
                                         "inputs/digits-labels.idx", "--epochs", "2",
                                         "--network", "cp", "--rank", "4", "--lr", "2e-3"]),
    ]


def write_inputs(tt, out: Path) -> int:
    images, labels = tt.mnist.synthetic_digits(300, seed=0)
    tt.mnist.save_idx_images(out / "digits-images.idx", images)
    tt.mnist.save_idx_labels(out / "digits-labels.idx", labels)
    (out / "digits-images-trailing.idx").write_bytes(
        (out / "digits-images.idx").read_bytes() + bytes(1000))
    np.savetxt(out / "digit.csv", images[0], delimiter=",", fmt="%d")
    (out / "column.csv").write_text("1\n2\n3\n4\n")
    dec, save_dense = tt.decompositions, tt.tensor_io.save_dense
    save_dense(out / "delta8.txt", dec.tt_to_dense(dec.tt_delta_example(8, 3, 3)))
    save_dense(out / "chain8.txt", dec.tt_to_dense(dec.tt_random((3,) * 8, (3,) * 7, seed=1)))
    save_dense(out / "vector.txt", np.array([1.0, 2.0, 3.0]))
    # a root core with no class axis, declared as such: (2, 2, 0)
    tt.tensor_io.save_checkpoint(out / "zero-classes.txt",
                                 tt.networks.make_score_network("tt", 2, 1, 2, 2, 2, seed=0))
    head = (out / "zero-classes.txt").read_text().split("core: 2 2 2\n")[0]
    (out / "zero-classes.txt").write_text(head.replace("classes: 2", "classes: 0")
                                          + "core: 2 2 0\n")
    (out / "zero-mode.txt").write_text("tt: 2\ncore: 1 0 2\ncore: 2 0 1\n")
    return 0


def write_tensors(tt, out: Path) -> int:
    dec = tt.decompositions
    for name, tensor in [("tt", dec.tt_random((2, 3, 2), (2, 3), seed=1)),
                         ("cp", dec.cp_random((2, 3, 2), 3, seed=2)),
                         ("ht", dec.ht_random((2, 3, 2, 3), 2, seed=3))]:
        tt.tensor_io.save_tensor(out / f"{name}.txt", tensor)
    return 0


def load_zero_mode(tt) -> int:
    """Print the shape of the factor file whose cores have a mode of size 0,
    or the reader's error."""
    try:
        print(tt.tensor_io.load_tensor("inputs/zero-mode.txt").shape)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_step(name: str, step, src: Path) -> None:
    """Run ``step()`` and record its output and exit code under ``name/``."""
    folder = Path(name)
    folder.mkdir(exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():  # each step warns as a fresh process would
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = step()
            except Exception:  # record it and go on with the next step
                traceback.print_exc()
                code = "raised"
    for stream, text in [("stdout", out.getvalue()), ("stderr", err.getvalue())]:
        (folder / stream).write_text(text.replace(f"{src}{os.sep}", "src/"))
    (folder / "exit").write_text(f"{code}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="ttnets checkout whose src/ runs")
    parser.add_argument("out_dir", type=Path, help="directory for the artifacts")
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import ttnets
    import ttnets.cli

    if Path(ttnets.__file__).resolve().parent != src / "ttnets":
        raise SystemExit(f"imported ttnets from {ttnets.__file__}, not {src}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    run_step("inputs", lambda: write_inputs(ttnets, Path("inputs")), src)
    run_step("save-tensor", lambda: write_tensors(ttnets, Path("save-tensor")), src)
    run_step("load-tensor-zero-mode", lambda: load_zero_mode(ttnets), src)
    for name, command in commands():
        run_step(name, lambda: ttnets.cli.main([*command, "--out-dir", name]), src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
