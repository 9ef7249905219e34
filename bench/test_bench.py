"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

A tiny-size run of every workload must report exactly the metrics that
BENCHMARK.json names, with their units, and each output check must fail
when the program's output is off by a little.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
ttnets = run.import_program()
FAILED_PER_ROUND = {"certify": 1, "digits": 0, "toys": 1}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    report = run.run(workload, 5, 0, trace, size="tiny")
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] is True
    assert report["rounds"] == 1
    assert result["failed"] == FAILED_PER_ROUND[workload]
    assert sorted(report["known_faults"]) == sorted(
        {"certify": ["rank delta chain"], "digits": [],
         "toys": ["round trip similarity network"]}[workload])
    assert report["absent"] == []
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def _saved_network(tmp_path, kind, d=5, classes=3, seed=0):
    net = ttnets.networks.make_score_network(kind, d, 3, 4, 3, classes, seed=seed)
    path = tmp_path / f"{kind}.txt"
    ttnets.tensor_io.save_checkpoint(path, net)
    return net, checks.read_checkpoint(path)


@pytest.mark.parametrize("kind", ["tt", "cp"])
def test_score_check_fails_on_a_core_perturbed_by_1e_6(tmp_path, kind):
    net, params = _saved_network(tmp_path, kind)
    x = np.random.default_rng(1).standard_normal((20, 5, 3))
    assert checks.check_scores(checks.scores(params, x), net.scores_batch(x), kind) == []
    params["weights"][2] = params["weights"][2] * (1.0 + 1e-6)
    assert checks.check_scores(checks.scores(params, x), net.scores_batch(x), kind)


@pytest.mark.parametrize("kind", ["tt", "cp"])
def test_gradient_check_fails_on_a_perturbed_gradient(tmp_path, kind):
    net, params = _saved_network(tmp_path, kind, d=4, classes=2, seed=3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 4, 3))
    upstream = rng.standard_normal((8, 2))
    g = ttnets.networks.network_gradients_batch(net, x, upstream)
    grads = {f"w{k}": a for k, a in enumerate(g.weight_grads)}
    grads.update(A=g.dA, b=g.db)
    assert checks.check_gradient(params, x, upstream, grads,
                                 np.random.default_rng(4), kind) == []
    grads = {key: value * (1.0 + 1e-4) for key, value in grads.items()}
    assert checks.check_gradient(params, x, upstream, grads,
                                 np.random.default_rng(4), kind)


def test_argmax_and_accuracy_checks_fail_on_one_wrong_label():
    ref = np.random.default_rng(0).standard_normal((50, 3))
    labels = ref.argmax(axis=1)
    truth = labels.copy()
    truth[:10] = (truth[:10] + 1) % 3
    assert checks.check_argmax(ref, labels, "x") == []
    assert checks.check_accuracy(0.8, labels, truth, "x") == []
    wrong = labels.copy()
    wrong[7] = (wrong[7] + 1) % 3
    assert checks.check_argmax(ref, wrong, "x")
    assert checks.check_accuracy(0.82, labels, truth, "x")


def test_rank_checks_fail_on_a_wrong_reference_rank():
    delta = ttnets.decompositions.tt_delta_example(6, 3, 3)
    dense = checks.train_to_dense(delta.cores)
    rank = checks.lapack_rank(dense, (0, 2, 4), 1e-12)
    assert rank == 27
    assert checks.check_rank(27, rank, "delta") == []
    assert checks.check_rank(27, rank - 1, "delta")
    rows = [{"sample": "0", "observed_rank": "27", "threshold": "27", "pass": "1"}]
    assert checks.check_report(rows, 27, 1, True, "t") == []
    assert checks.check_report(rows, 28, 1, True, "t")


def test_certify_run_fails_when_the_reference_rank_is_wrong(monkeypatch):
    lapack_rank = checks.lapack_rank
    monkeypatch.setattr(checks, "lapack_rank", lambda *a: lapack_rank(*a) + 1)
    report = run.run("certify", 5, 0, False, size="tiny")
    assert report["result"]["correct"] is False
    assert any("LAPACK rank" in p for p in report["problems"])


def test_digits_run_fails_when_a_saved_core_is_perturbed_by_1e_6(monkeypatch):
    read = checks.read_checkpoint

    def perturbed(path):
        params = read(path)
        params["weights"][0] = params["weights"][0] * (1.0 + 1e-6)
        return params

    monkeypatch.setattr(checks, "read_checkpoint", perturbed)
    report = run.run("digits", 5, 0, False, size="tiny")
    assert report["result"]["correct"] is False
    assert any("scores differ" in p for p in report["problems"])


def test_round_trip_fails_when_a_reloaded_core_moves_by_1e_6(tmp_path):
    net, _params = _saved_network(tmp_path, "tt")
    x = np.random.default_rng(1).standard_normal((4, 5, 3))
    toys = run.Toys(run.SIZES["tiny"]["toys"], 0)

    class Perturbing:
        save_checkpoint = staticmethod(ttnets.tensor_io.save_checkpoint)

        @staticmethod
        def load_checkpoint(path):
            loaded = ttnets.tensor_io.load_checkpoint(path)
            loaded.weights.cores[1] *= 1.0 + 1e-6
            return loaded

    class Stub:
        tt = type("tt", (), {"tensor_io": ttnets.tensor_io})

    toys._round_trip(Stub, net, x, tmp_path / "a.txt")
    Stub.tt = type("tt", (), {"tensor_io": Perturbing})
    with pytest.raises(ValueError):
        toys._round_trip(Stub, net, x, tmp_path / "b.txt")


def test_run_without_the_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "toys", "--seed", "1", "--seconds", "1"]) == 2
