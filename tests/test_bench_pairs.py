"""The summary of ``scripts/bench_pairs.py`` on canned result lines; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def line(setup_s, samples_per_s, correct=True, failed=0):
    """A result line as ``bench/run.py`` prints it last."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "samples_per_s": {"value": samples_per_s, "unit": "1/s"}}})


PAIRS = [(line(0.50, 400), line(0.35, 410)),
         (line(0.52, 420), line(0.36, 400)),
         (line(0.55, 380), line(0.40, 390)),
         (line(0.48, 410), line(0.50, 415))]


def test_medians_quartiles_and_wins():
    lines, ok = bench_pairs.summarize(PAIRS, METRICS)
    assert ok
    assert lines[0] == "4 pairs; every run correct with no failed operation: yes"
    # parent setup_s 0.48 0.50 0.52 0.55: quartiles 0.495 and 0.5275
    assert lines[1].split() == [
        "setup_s", "parent", "0.51", "[0.495,", "0.5275]", "change", "0.38", "[0.3575,",
        "0.425]", "wins", "3/4", "median", "gain", "beyond", "parent", "IQR:", "yes"]
    # samples_per_s is better higher: 410 > 400, 390 > 380 and 415 > 410
    assert lines[2].split()[9:11] == ["wins", "3/4"]
    assert lines[2].endswith("IQR: no")


@pytest.mark.parametrize("bad", [line(0.5, 400, correct=False), line(0.5, 400, failed=1)],
                         ids=["incorrect", "failed"])
def test_an_unsound_run_fails_the_comparison(bad):
    lines, ok = bench_pairs.summarize(PAIRS + [(line(0.5, 400), bad)], METRICS)
    assert not ok
    assert lines[0].endswith("NO")


@pytest.mark.parametrize("text, seeds", [("3-6", [3, 4, 5, 6]), ("7", [7])])
def test_seed_ranges(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
