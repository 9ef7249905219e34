import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

TRAINED = {"checkpoint.txt", "history.csv"}
FAILING = {"train-lr-0", "train-lr-1e200", "rank-one-mode-rel-tol-5",
           "boundary-zero-classes", "load-tensor-zero-mode", "train-digits-trailing-bytes"}


def expected_files() -> dict[str, set[str]]:
    """Files each step writes besides its stdout, stderr and exit."""
    steps = {
        "inputs": {"chain8.txt", "column.csv", "delta8.txt", "digit.csv",
                   "digits-images.idx", "digits-images-trailing.idx", "digits-labels.idx",
                   "vector.txt", "zero-classes.txt", "zero-mode.txt"},
        "save-tensor": {"tt.txt", "cp.txt", "ht.txt"},
        "sweep-digits": {"sweep.csv"},
        "train-digits": TRAINED,
        "train-epochs-0": TRAINED,
        "sweep-digits-epochs-0": {"sweep.csv"},
        "verify-theorem1": {"theorem1_report.csv"},
        "verify-hypothesis1": {"hypothesis1_report.csv"},
        "verify-ht-bounds-tt2ht": {"ht_bounds_report.csv"},
        "verify-ht-bounds-ht2tt": {"ht_bounds_report.csv"},
        "rank-delta-chain": set(),
        "rank-chain": set(),
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
    for name in ("train-moons-sigmoid-boundary-far", "patches-one-column"):
        assert (out / name / "stderr").read_text() == ""
    assert (out / "load-tensor-zero-mode" / "stderr").read_text() == (
        "error: inputs/zero-mode.txt: line 2: 'core' block needs dimensions of at "
        "least 1, got [1, 0, 2]\n")
