import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

TRAINED = {"checkpoint.txt", "history.csv"}
FAILING = {"train-lr-0", "train-lr-1e200", "rank-one-mode-rel-tol-5",
           "boundary-zero-classes", "load-tensor-zero-mode", "train-digits-trailing-bytes",
           "patches-ragged", "train-digits-patch-size-30", "train-digits-zero-rows",
           "library-refusals", "rank-not-text", "config-not-text", "boundary-overflowing-box"}


def expected_files() -> dict[str, set[str]]:
    """Files each step writes besides its stdout, stderr and exit."""
    steps = {
        "inputs": {"chain8.txt", "chain8-seed78.txt", "column.csv", "delta8.txt",
                   "digit.csv", "digits-images.idx", "digits-images-trailing.idx",
                   "digits-images-zero-rows.idx", "digits-labels.idx", "ragged.csv",
                   "vector.txt", "zero-classes.txt", "zero-mode.txt"},
        "save-tensor": {"tt.txt", "cp.txt", "ht.txt"},
        "train-stack-stop": {"history-0.csv", "history-1.csv", "checkpoint-0.txt",
                             "checkpoint-1.txt"},
        "sweep-digits": {"sweep.csv"},
        "train-digits": TRAINED,
        "train-digits-ht": TRAINED,
        "train-digits-identity": TRAINED,
        "train-epochs-0": TRAINED,
        "sweep-digits-epochs-0": {"sweep.csv"},
        "verify-theorem1": {"theorem1_report.csv"},
        "verify-hypothesis1": {"hypothesis1_report.csv"},
        "verify-ht-bounds-tt2ht": {"ht_bounds_report.csv"},
        "verify-ht-bounds-ht2tt": {"ht_bounds_report.csv"},
        "rank-delta-chain": set(),
        "rank-chain": set(),
        "rank-chain-fallback": set(),
        "train-moons-sigmoid": TRAINED,
        "train-moons-sigmoid-boundary-far": {"grid.csv"},
        "patches": {"patches.csv"},
        "patches-one-column": {"patches.csv"},
        **{name: set() for name in FAILING},
    }
    for toy in ("moons-tt", "moons-cp", "moons-ht", "circles-tt"):
        for how in ("sweep", "lr"):
            steps[f"train-{toy}-{how}"] = TRAINED
            steps[f"train-{toy}-{how}-boundary-csv"] = {"grid.csv"}
            steps[f"train-{toy}-{how}-boundary-svg"] = {"grid.svg"}
    return steps


def test_artifacts_script_records_every_step(tmp_path):
    out = tmp_path / "out"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "artifacts.py"), str(ROOT),
                    str(out)], check=True, timeout=300)
    written = {}
    for path in out.rglob("*"):
        if path.is_file():
            written.setdefault(path.parent.name, set()).add(path.name)
    steps = expected_files()
    assert written == {name: files | {"stdout", "stderr", "exit"}
                       for name, files in steps.items()}
    exits = {name: (out / name / "exit").read_text() for name in steps}
    assert exits == {name: "2\n" if name in FAILING else "0\n" for name in steps}
    assert (out / "train-lr-1e200" / "stderr").read_text() == (
        "error: the run diverged (non-finite final loss) at learning rate 1e+200\n")
    assert (out / "boundary-zero-classes" / "stderr").read_text() == (
        "error: inputs/zero-classes.txt: line 17: 'core' block needs dimensions of at "
        "least 1, got [2, 2, 0]\n")
    assert (out / "train-digits-trailing-bytes" / "stderr").read_text() == (
        "error: inputs/digits-images-trailing.idx: trailing bytes after the pixel data\n")
    assert (out / "rank-chain-fallback" / "stdout").read_text() == "cp-rank lower bound: 81\n"
    assert (out / "patches-ragged" / "stderr").read_text() == (
        "error: inputs/ragged.csv: line 2: expected 2 values like the rows before it, got 1\n")
    assert (out / "train-digits-patch-size-30" / "stderr").read_text() == (
        "error: inputs/digits-images.idx: --patch-size 30 and --stride 5 do not fit a 28x28 "
        "image: patch larger than image\n")
    assert (out / "train-digits-zero-rows" / "stderr").read_text() == (
        "error: inputs/digits-images-zero-rows.idx: images of 0x28 pixels; an image needs at "
        "least one row and one column\n")
    for name in ("train-moons-sigmoid-boundary-far", "patches-one-column"):
        assert (out / name / "stderr").read_text() == ""
    assert (out / "load-tensor-zero-mode" / "stderr").read_text() == (
        "error: inputs/zero-mode.txt: line 2: 'core' block needs dimensions of at "
        "least 1, got [1, 0, 2]\n")
    assert (out / "library-refusals" / "stdout").read_text() == ""
    assert (out / "library-refusals" / "stderr").read_text() == (
        "error: class_tensor(5): IndexError: class y = 5 is outside 0..C-1 for C = 2\n"
        "error: class_tensor(-1): IndexError: class y = -1 is outside 0..C-1 for C = 2\n"
        "error: tt_random((), 3): ValueError: a TT tensor needs at least one mode\n"
        "error: tt_random((), ()): ValueError: a TT tensor needs at least one mode\n"
        "error: tt_equal_cores_random(4, 3, 0): ValueError: ranks must be positive\n"
        "error: Dataset(labels=(0.5, 1.7)): ValueError: labels must be integers in 0..1, "
        "got 0.5\n")
    for name in ("rank-not-text", "config-not-text"):
        assert (out / name / "stderr").read_text() == (
            "error: inputs/digits-images.idx: not a text file (invalid continuation byte)\n")
    assert (out / "boundary-overflowing-box" / "stderr").read_text() == (
        "error: bounds must be finite with xmin < xmax and ymin < ymax, got xmin,xmax,ymin,ymax "
        "= 0,1,-1e+308,1e+308\n")
    # identity features: a calibrated gain of order one, so the loss stays near log(10)
    assert (out / "train-digits-identity" / "stderr").read_text() == ""
    final_loss = float((out / "train-digits-identity" / "history.csv").read_text()
                       .splitlines()[-1].split(",")[1])
    assert final_loss < 10
    assert (out / "train-digits-ht" / "stderr").read_text() == ""
    # run 0 stops in epoch 1; run 1 trains all 4 epochs
    histories = [(out / "train-stack-stop" / f"history-{k}.csv").read_text().splitlines()
                 for k in range(2)]
    assert [len(rows) for rows in histories] == [2, 5]
    assert histories[0][1].startswith("1,nan,")
