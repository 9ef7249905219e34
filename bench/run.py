#!/usr/bin/env python3
"""Benchmark of the ttnets command line and library.

Run from the root of a ttnets checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads: ``certify`` (Monte-Carlo verifiers and ``ttnets rank``),
``digits`` (digit-corpus training, sweeps and scoring) and ``toys`` (2-D
toy training with the CLI defaults, decision grids, checkpoint round
trips).  A run sets up the inputs from ``--seed``, then repeats whole
rounds of the workload's operations until ``--seconds`` of operation time
have been measured.  It checks the first round's outputs against
computations made apart from the program (``checks.py``); every later round
must reproduce the first round's outputs byte for byte.  The last line it
prints is one JSON object.  ``--trace 1`` wraps the program's
public functions (``spans.py``) and reports per-layer figures instead of
the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: fixed summation order, and the
# measurements do not depend on how many cores the machine lends.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5

# Work per round.  "full" is what the command line runs; "tiny" keeps the
# same operations at toy sizes for the benchmark's own tests.
SIZES = {
    "full": {
        "certify": {"t1_6": 60, "chains": 30, "ht": 20},
        "digits": {"images": 2000, "epochs": 2, "ranks": (8, 16), "lr": "2e-3"},
        "toys": {"extra": [], "points": 500, "epochs": 300, "resolution": 100},
    },
    "tiny": {
        "certify": {"t1_6": 3, "chains": 1, "ht": 2},
        "digits": {"images": 60, "epochs": 1, "ranks": (2, 3), "lr": "2e-3"},
        "toys": {"extra": ["--epochs", "3", "--points", "60"], "points": 60, "epochs": 3,
                 "resolution": 100},
    },
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "samples_per_s": "1/s"}


def import_program():
    """Import ttnets from this checkout's src/, never from an installed copy."""
    if not (SRC / "ttnets" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'ttnets'} not found: run from a ttnets checkout")
    sys.path.insert(0, str(SRC))
    import ttnets
    import ttnets.cli
    if Path(ttnets.__file__).resolve().parent != (SRC / "ttnets").resolve():
        raise ImportError(f"imported ttnets from {ttnets.__file__}, not {SRC}")
    return ttnets


def time_import() -> float:
    """Seconds for a fresh interpreter to import the ttnets command line."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ttnets.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


class Session:
    """Counts, times and checks the operations of one benchmark run."""

    def __init__(self, tt, work: Path, tracer: spans.Tracer | None):
        self.tt = tt
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_faults: dict[str, str] = {}
        self.time = defaultdict(float)     # rate category -> seconds
        self.amount = defaultdict(float)   # rate category -> samples
        self.round_seconds = 0.0

    def op(self, label: str, fn, *args, category: str | None = None, amount: float = 0.0,
           known_fault: bool = False):
        """Run one operation; returns (ok, value).  Failures are counted."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                value = fn(*args)
            ok, detail = True, ""
        except Exception as exc:  # an operation that raises is a failed operation
            value, ok, detail = None, False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.round_seconds += seconds
        if category:
            self.time[category] += seconds
            self.amount[category] += amount
        if ok and isinstance(value, int) and not isinstance(value, bool) and value != 0:
            ok, detail = False, f"exit code {value}: {err.getvalue().strip()[-300:]}"
        if not ok:
            self.failed += 1
            if known_fault:
                self.known_faults.setdefault(label, detail)
            else:
                print(f"unexpected failure of {label}: {detail}", file=sys.stderr)
        return ok, (out.getvalue() if isinstance(value, int) else value)

    def cli(self, label: str, argv: list[str], **kwargs):
        return self.op(label, self.tt.cli.main, [str(a) for a in argv], **kwargs)

    def untraced(self):
        """Context for the benchmark's own calls into ttnets (checks)."""
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def expect(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def same_bytes(self, first: dict, paths: dict) -> None:
        """Later rounds must write exactly the first round's files."""
        for key, path in paths.items():
            data = Path(path).read_bytes()
            if key not in first:
                first[key] = data
            elif first[key] != data:
                self.problems.append(f"{path} differs from the first round")


# ---------------------------------------------------------------------------
# certify


class Certify:
    """Rank certificates at two matrix sizes: ``verify theorem1`` at d=6
    (27x27 matricizations), ``ttnets rank`` on random d=8 chains (81x81),
    ``verify ht-bounds`` both ways, and ``ttnets rank`` on the delta chain.

    The Jacobi sweep count, and so the cost, varies from matrix to matrix;
    a round holds enough distinct samples that this averages out between
    seeds.

    ``verify theorem1 --d 8`` and ``verify hypothesis1`` are left out: some
    of their samples have sigma_min / sigma_max below the 1e-12 certificate
    tolerance (LAPACK agrees), so those commands fail on some seeds.
    ``ttnets rank`` reports a rank instead of a verdict, so it carries the
    81x81 matrices.
    """

    CERT_TOL, RANK_TOL = 1e-12, 1e-9  # the verify and rank defaults

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, s: Session) -> None:
        tt = s.tt
        delta = tt.decompositions.tt_to_dense(tt.decompositions.tt_delta_example(6, 3, 3))
        tt.tensor_io.save_dense(s.work / "delta.txt", delta)
        self.chains = []
        for i in range(self.size["chains"]):
            cores = checks.random_train(8, 3, 3, checks.sample_generator(self.seed, i))
            self.chains.append(checks.train_to_dense(cores))
            tt.tensor_io.save_dense(s.work / f"chain{i}.txt", self.chains[-1])

    def round(self, s: Session, index: int, memo: dict) -> None:
        z = self.size
        runs = [
            ("theorem1", ["--d", 6, "--n", 3, "--r", 3], z["t1_6"], "t1_6"),
            ("ht-bounds", ["--direction", "tt2ht", "--d", 4, "--n", 3, "--r", 2], z["ht"],
             "tt2ht"),
            ("ht-bounds", ["--direction", "ht2tt", "--d", 4, "--n", 3, "--r", 2], z["ht"],
             "ht2tt"),
        ]
        outputs = {}
        for kind, args, samples, out in runs:
            outputs[out] = s.cli(
                f"verify {kind} {' '.join(map(str, args))}",
                ["verify", kind, *args, "--samples", samples, "--seed", self.seed,
                 "--rel-tol", self.CERT_TOL, "--out-dir", s.work / out],
                category="mc", amount=samples)
        for i in range(z["chains"]):
            outputs[f"chain{i}"] = s.cli(f"rank chain {i}", ["rank", s.work / f"chain{i}.txt",
                                                             "--split", "1,3,5,7"],
                                         category="mc", amount=1)
        ok, text = s.cli("rank delta chain", ["rank", s.work / "delta.txt"], known_fault=True)
        if ok:
            outputs["delta"] = (ok, text)
        reports = {out: s.work / out / f"{kind.replace('-', '_')}_report.csv"
                   for kind, _a, _n, out in runs}
        if index == 0:
            with s.untraced():
                self.check(s, outputs, reports)
        s.same_bytes(memo, reports)
        for key, (_ok, text) in outputs.items():
            if memo.setdefault(f"{key}.stdout", text) != text:
                s.problems.append(f"certify {key}: output differs from the first round")

    def check(self, s, outputs, reports) -> None:
        z = self.size
        for out in ("t1_6", "tt2ht", "ht2tt"):
            ok, text = outputs[out]
            if not ok or "PASS" not in text:
                s.problems.append(f"verify {out}: did not pass ({text.strip()[-200:]!r})")
        # theorem 1: every sample reaches q**(d/2); LAPACK ranks on a subset
        rows = checks.read_csv(reports["t1_6"])
        s.expect(checks.check_report(rows, 3 ** 3, z["t1_6"], True, "theorem1"))
        for row in rows[:3]:
            cores = checks.random_train(6, 3, 3, checks.sample_generator(self.seed,
                                                                         int(row["sample"])))
            ref = checks.lapack_rank(checks.train_to_dense(cores), (0, 2, 4), self.CERT_TOL)
            s.expect(checks.check_rank(int(row["observed_rank"]), ref,
                                       f"theorem1 sample {row['sample']}"))
        # rank transfer bounds: no violation of r**2 (tt2ht) or r**(log2 d / 2) (ht2tt)
        for out, bound in (("tt2ht", 2 ** 2), ("ht2tt", round(2 ** (np.log2(4) / 2)))):
            rows = checks.read_csv(reports[out])
            s.expect(checks.check_report(rows, bound, z["ht"], False, f"ht-bounds {out}"))
        for row in checks.read_csv(reports["tt2ht"])[:2]:
            cores = checks.random_train(4, 3, 2, checks.sample_generator(self.seed,
                                                                         int(row["sample"])))
            dense = checks.train_to_dense(cores)
            ref = max(checks.lapack_rank(dense, split, self.CERT_TOL)
                      for split in checks.tree_splits(4))
            s.expect(checks.check_rank(int(row["observed_rank"]), ref,
                                       f"ht-bounds tt2ht sample {row['sample']}"))
        # ttnets rank: the odd/even matricization rank, and q**(d/2) for the delta chain
        expected = {f"chain{i}": checks.lapack_rank(x, (0, 2, 4, 6), self.RANK_TOL)
                    for i, x in enumerate(self.chains)}
        expected["delta"] = 3 ** 3
        for key, (ok, text) in outputs.items():
            if key in expected and text.strip() != f"cp-rank lower bound: {expected[key]}":
                s.problems.append(f"rank {key}: printed {text.strip()!r}, "
                                  f"expected {expected[key]}")


# ---------------------------------------------------------------------------
# networks shared by digits and toys


def check_network(s: Session, ckpt: Path, history: Path, inputs, labels, seed: int,
                  what: str, predicted=None) -> dict:
    """Scores, one batch gradient and the final accuracy of a saved network."""
    tt = s.tt
    params = checks.read_checkpoint(ckpt)
    net = tt.tensor_io.load_checkpoint(ckpt)
    ref = checks.scores(params, inputs)
    sample = np.arange(min(len(inputs), 64))
    s.expect(checks.check_scores(ref[sample], net.scores_batch(inputs[sample]), what))
    if predicted is None:
        predicted = tt.training.predict(net, inputs)
    s.expect(checks.check_argmax(ref, predicted, f"{what} predictions"))
    final = checks.read_csv(history)[-1]
    s.expect(checks.check_accuracy(float(final["accuracy"]), predicted, labels, what))
    rng = np.random.default_rng(seed)
    batch = inputs[:32]
    upstream = rng.standard_normal((len(batch), params["classes"]))
    g = tt.networks.network_gradients_batch(net, batch, upstream)
    grads = {f"w{k}": arr for k, arr in enumerate(g.weight_grads)}
    grads.update(A=g.dA, b=g.db)
    s.expect(checks.check_gradient(params, batch, upstream, grads, rng, what))
    return params


# ---------------------------------------------------------------------------
# digits


class Digits:
    """Criterion 9 shape: 28x28 digits, 8x8 patches at stride 5 (d=25, n=64)."""

    PATCH, STRIDE = 8, 5

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, s: Session) -> None:
        mnist = s.tt.mnist
        self.images, self.labels = mnist.synthetic_digits(self.size["images"], seed=self.seed)
        mnist.save_idx_images(s.work / "images.idx", self.images)
        mnist.save_idx_labels(s.work / "labels.idx", self.labels)

    def _common(self, s):
        z = self.size
        return ["--dataset", "mnist", "--images", s.work / "images.idx",
                "--labels", s.work / "labels.idx", "--patch-size", self.PATCH,
                "--stride", self.STRIDE, "--epochs", z["epochs"], "--lr", z["lr"],
                "--seed", self.seed]

    def _corpus(self, s):
        tt = s.tt
        images, _labels = tt.mnist.load_mnist_idx(s.work / "images.idx", s.work / "labels.idx")
        cfg = tt.networks.PatchConfig(28, 28, self.PATCH, self.PATCH, self.STRIDE)
        return tt.networks.patch_sequences(images, cfg)

    def _score(self, s, ckpt, inputs):
        net = s.tt.tensor_io.load_checkpoint(ckpt)
        return s.tt.training.predict(net, inputs)

    def round(self, s: Session, index: int, memo: dict) -> None:
        z = self.size
        count = z["images"] * z["epochs"]
        ranks = ",".join(str(r) for r in z["ranks"])
        files = {}
        for kind in ("tt", "cp"):
            out = s.work / f"sweep-{kind}"
            s.cli(f"sweep {kind}", ["sweep", "--network", kind, "--ranks", ranks,
                                    "--out-dir", out, *self._common(s)],
                  category=f"train.{kind}", amount=count * len(z["ranks"]))
            files[f"sweep-{kind}"] = out / "sweep.csv"
            for rank in z["ranks"]:
                out = s.work / f"train-{kind}{rank}"
                s.cli(f"train {kind} rank {rank}",
                      ["train", "--network", kind, "--rank", rank, "--out-dir", out,
                       *self._common(s)], category=f"train.{kind}", amount=count)
                files[f"{kind}{rank}.ckpt"] = out / "checkpoint.txt"
                files[f"{kind}{rank}.hist"] = out / "history.csv"
        _ok, inputs = s.op("load corpus", self._corpus, s)
        predictions = {}
        for kind in ("tt", "cp"):
            for rank in z["ranks"]:
                _ok, predictions[kind, rank] = s.op(
                    f"score {kind}{rank}", self._score, s,
                    s.work / f"train-{kind}{rank}" / "checkpoint.txt", inputs,
                    category="predict", amount=len(self.labels))
        if index == 0:
            with s.untraced():
                self.check(s, inputs, predictions)
        else:
            for key, labels in predictions.items():
                if not np.array_equal(labels, memo[key]):
                    s.problems.append(f"digits {key}: predictions differ from the first round")
        memo.update(predictions)
        s.same_bytes(memo, files)

    def check(self, s, inputs, predictions) -> None:
        mine = checks.patches(self.images, self.PATCH, self.STRIDE)
        if inputs is None or not np.array_equal(inputs, mine):
            s.problems.append("digits: patch sequences differ from the reference")
            return
        for kind in ("tt", "cp"):
            sweep = {int(row["rank"]): row
                     for row in checks.read_csv(s.work / f"sweep-{kind}" / "sweep.csv")}
            for rank in self.size["ranks"]:
                out = s.work / f"train-{kind}{rank}"
                what = f"digits {kind} rank {rank}"
                check_network(s, out / "checkpoint.txt", out / "history.csv", mine,
                              self.labels, self.seed, what, predictions[kind, rank])
                final = checks.read_csv(out / "history.csv")[-1]
                row = sweep.get(rank, {})
                if (row.get("train_loss"), row.get("train_accuracy")) != \
                        (final["loss"], final["accuracy"]):
                    s.problems.append(f"{what}: sweep row {row} differs from train {final}")


# ---------------------------------------------------------------------------
# toys


class Toys:
    """Criterion 8 path with the CLI defaults: rank 8, 300 epochs, 4 rates."""

    RUNS = (("moons", "tt"), ("circles", "tt"), ("moons", "cp"))
    RATES = 4  # runs per train command: the CLI's default learning-rate sweep

    def __init__(self, size: dict, seed: int):
        self.size, self.seed = size, seed

    def setup(self, s: Session) -> None:
        self.similarity_inputs = np.random.default_rng(self.seed).standard_normal((16, 4, 3))

    def _dataset(self, name):
        z = self.size
        if name == "moons":
            return checks.moons(z["points"], 0.1, self.seed)
        return checks.circles(z["points"], 0.1, 0.5, self.seed)

    def _round_trip(self, s, ckpt, inputs, path):
        io_ = s.tt.tensor_io
        net = io_.load_checkpoint(ckpt) if isinstance(ckpt, Path) else ckpt
        before = net.scores_batch(inputs)
        io_.save_checkpoint(path, net)
        after = io_.load_checkpoint(path).scores_batch(inputs)
        if not np.array_equal(before, after):
            raise ValueError("scores changed across a checkpoint save and load: "
                             f"{before.ravel()[:2]} -> {after.ravel()[:2]}")
        return before

    def round(self, s: Session, index: int, memo: dict) -> None:
        z = self.size
        files = {}
        for dataset, kind in self.RUNS:
            out = s.work / f"{dataset}-{kind}"
            s.cli(f"train {dataset} {kind}", ["train", "--dataset", dataset, "--network", kind,
                                              "--seed", self.seed, "--out-dir", out, *z["extra"]],
                  category=f"train.{kind}", amount=z["points"] * z["epochs"] * self.RATES)
            files[f"{dataset}-{kind}.ckpt"] = out / "checkpoint.txt"
            files[f"{dataset}-{kind}.hist"] = out / "history.csv"
        for dataset, kind in self.RUNS:
            out = s.work / f"{dataset}-{kind}"
            s.cli(f"boundary {dataset} {kind}",
                  ["boundary", "--checkpoint", out / "checkpoint.txt", "--resolution",
                   z["resolution"], "--out-dir", out],
                  category="predict", amount=z["resolution"] ** 2)
            files[f"{dataset}-{kind}.grid"] = out / "grid.csv"
        for dataset, kind in self.RUNS:
            out = s.work / f"{dataset}-{kind}"
            s.op(f"round trip {dataset} {kind}", self._round_trip, s,
                 out / "checkpoint.txt", self._dataset(dataset)[0], out / "reloaded.txt")
        similarity = s.tt.networks.build_similarity_network(4, 3)
        ok, got = s.op("round trip similarity network", self._round_trip, s, similarity,
                       self.similarity_inputs, s.work / "similarity.txt", known_fault=True)
        if ok:
            s.expect(checks.check_scores(checks.similarity_scores(self.similarity_inputs), got,
                                         "similarity network"))
        if index == 0:
            with s.untraced():
                self.check(s, similarity)
        s.same_bytes(memo, files)

    def check(self, s, similarity) -> None:
        s.expect(checks.check_scores(checks.similarity_scores(self.similarity_inputs),
                                     similarity.scores_batch(self.similarity_inputs),
                                     "similarity network before saving"))
        for dataset, kind in self.RUNS:
            out = s.work / f"{dataset}-{kind}"
            what = f"toys {dataset} {kind}"
            inputs, labels = self._dataset(dataset)
            params = check_network(s, out / "checkpoint.txt", out / "history.csv",
                                   inputs, labels, self.seed, what)
            grid = checks.read_csv(out / "grid.csv")
            res = self.size["resolution"]
            if len(grid) != res * res:
                s.problems.append(f"{what}: grid has {len(grid)} rows, expected {res * res}")
                continue
            xy = np.array([[float(r["x"]), float(r["y"])] for r in grid])
            labels_grid = np.array([int(r["label"]) for r in grid])
            s.expect(checks.check_argmax(checks.scores(params, xy[:, :, None]), labels_grid,
                                         f"{what} grid"))


WORKLOADS = {"certify": Certify, "digits": Digits, "toys": Toys}


# ---------------------------------------------------------------------------
# tracing


def _matrix_shape(args):
    return "x".join(str(v) for v in np.shape(args[0]))


def _tt_backward_macs(args):
    """Multiply-adds of the backward contraction, from the array shapes:
    left states (cores 1..d-1), right states (cores 2..d), core gradients
    and feature gradients (all cores), batch x r_in x m x r_out each."""
    weights, phi = args[0], args[1]
    per_core = [phi.shape[0] * int(np.prod(c.shape)) for c in weights.cores]
    return sum(per_core[:-1]) + sum(per_core[1:]) + 2 * sum(per_core)


TRACED = {
    "svd.singular_values": _matrix_shape,
    "decompositions.tt_to_dense": None,
    "decompositions.ranks_from_dense": None,
    "tensor.matricize": None,
    "rank_analysis.verify_theorem1": None,
    "rank_analysis.verify_hypothesis1": None,
    "rank_analysis.verify_ht_tt_bounds": None,
    "networks.tt_backward": _tt_backward_macs,
    "networks.cp_backward": None,
    "networks.tt_scores_from_features": None,
    "networks.cp_scores_from_features": None,
    "networks.network_gradients_batch": None,
    "networks.apply_feature_map": None,
    "networks.patch_sequences": None,
    "networks.initialize_for_training": None,
    "training.adam_step": None,
    "training.cross_entropy_batch": None,
    "training.train": None,
    "training.train_lr_sweep": None,
    "training.revive_dead_units": None,
    "training.predict": None,
    "mnist.load_mnist_idx": None,
    "mnist.synthetic_digits": None,
    "tensor_io.save_checkpoint": None,
    "tensor_io.load_checkpoint": None,
    "tensor_io.load_dense": None,
    "cli.main": None,
}

PER_LAYER_UNITS = {
    "svd.singular_values.calls": "count",
    "svd.singular_values.self_s": "s",
    "svd.singular_values.27x27.ms": "ms",
    "svd.singular_values.81x81.ms": "ms",
    "decompositions.tt_to_dense.self_s": "s",
    "decompositions.ranks_from_dense.self_s": "s",
    "tensor.matricize.self_s": "s",
    "rank_analysis.verify.self_s": "s",
    "networks.tt_backward.self_s": "s",
    "networks.tt_backward.gflops": "GFLOP/s",
    "networks.cp_backward.self_s": "s",
    "networks.forward.calls": "count",
    "networks.forward.self_s": "s",
    "networks.network_gradients_batch.self_s": "s",
    "networks.apply_feature_map.self_s": "s",
    "networks.patch_sequences.self_s": "s",
    "networks.initialize_for_training.self_s": "s",
    "training.adam_step.calls": "count",
    "training.adam_step.self_s": "s",
    "training.cross_entropy_batch.self_s": "s",
    "training.train.self_s": "s",
    "training.revive_dead_units.self_s": "s",
    "training.predict.self_s": "s",
    "training.sweep.kept_fraction": "ratio",
    "mnist.load_mnist_idx.self_s": "s",
    "mnist.synthetic_digits.self_s": "s",
    "tensor_io.save_checkpoint.self_s": "s",
    "tensor_io.load_checkpoint.self_s": "s",
    "tensor_io.load_dense.self_s": "s",
    "cli.self_s": "s",
    "mc_samples_per_s": "1/s",
    "tt.train_samples_per_s": "1/s",
    "cp.train_samples_per_s": "1/s",
    "predict_samples_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(setup: spans.Totals, timed: spans.Totals, rounds: int,
                  s: Session) -> dict:
    """Per-layer figures per round (set-up figures per set-up)."""

    def per_round(name):
        return timed.self_s(name) / rounds

    def svd_ms(shape):
        own = [t for t, value in timed.noted("svd.singular_values") if value == shape]
        return 1e3 * _ratio(sum(own), len(own))

    macs = sum(value for _t, value in timed.noted("networks.tt_backward"))
    forward = ("networks.tt_scores_from_features", "networks.cp_scores_from_features")
    verify = ("rank_analysis.verify_theorem1", "rank_analysis.verify_hypothesis1",
              "rank_analysis.verify_ht_tt_bounds")
    values = {
        "svd.singular_values.calls": timed.calls("svd.singular_values") / rounds,
        "svd.singular_values.27x27.ms": svd_ms("27x27"),
        "svd.singular_values.81x81.ms": svd_ms("81x81"),
        "rank_analysis.verify.self_s": sum(per_round(n) for n in verify),
        "networks.tt_backward.gflops": 2e-9 * _ratio(macs, timed.self_s("networks.tt_backward")),
        "networks.forward.calls": sum(timed.calls(n) for n in forward) / rounds,
        "networks.forward.self_s": sum(per_round(n) for n in forward),
        "training.adam_step.calls": timed.calls("training.adam_step") / rounds,
        "training.sweep.kept_fraction": _ratio(
            timed.calls("training.train_lr_sweep"),
            timed.calls_under("training.train", "training.train_lr_sweep")),
        "mnist.synthetic_digits.self_s": setup.self_s("mnist.synthetic_digits") / SETUP_REPEATS,
        "cli.self_s": per_round("cli.main"),
    }
    for name in PER_LAYER_UNITS:
        if name not in values and name.endswith(".self_s"):
            values[name] = per_round(name[: -len(".self_s")])
    values.update(op_rates(s))
    return values


def op_rates(s: Session) -> dict:
    return {
        "mc_samples_per_s": _ratio(s.amount["mc"], s.time["mc"]),
        "tt.train_samples_per_s": _ratio(s.amount["train.tt"], s.time["train.tt"]),
        "cp.train_samples_per_s": _ratio(s.amount["train.cp"], s.time["train.cp"]),
        "predict_samples_per_s": _ratio(s.amount["predict"], s.time["predict"]),
    }


# ---------------------------------------------------------------------------
# running a workload


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    tt = import_program()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tracer = spans.Tracer()
    s = Session(tt, work, tracer if trace else None)
    spec = WORKLOADS[workload](SIZES[size][workload], seed)
    try:
        if trace:
            tracer.install(TRACED)
        setups = []
        for _ in range(SETUP_REPEATS):
            imports = time_import()
            start = time.perf_counter()
            spec.setup(s)
            setups.append(imports + time.perf_counter() - start)
        setup_end = len(tracer.ids)

        memo: dict = {}
        round_times, measured, rounds = [], 0.0, 0
        while rounds == 0 or measured < seconds:
            s.round_seconds = 0.0
            spec.round(s, rounds, memo)
            round_times.append(s.round_seconds)
            measured += s.round_seconds
            rounds += 1
        if trace:
            tracer.write(OUT / f"trace-{workload}-seed{seed}.npz")
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        values = layer_metrics(spans.Totals(tracer, 0, setup_end),
                               spans.Totals(tracer, setup_end, len(tracer.ids)), rounds, s)
        units = PER_LAYER_UNITS
    else:
        train_time = s.time["train.tt"] + s.time["train.cp"]
        samples = s.amount["train.tt"] + s.amount["train.cp"]
        if workload == "certify":
            train_time, samples = s.time["mc"], s.amount["mc"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(round_times),
            "peak_rss_mb": rss_mb,
            "samples_per_s": _ratio(samples, train_time),
        }
        units = END_TO_END
    return {
        "rounds": rounds,
        "measured_s": measured,
        "round_s": round_times,
        "known_faults": s.known_faults,
        "absent": tracer.absent,
        "rates": op_rates(s),
        "problems": s.problems,
        "result": {
            "correct": not s.problems,
            "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
        },
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    print(f"workload {args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{report['measured_s']:.2f} s measured, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for label, detail in report["known_faults"].items():
        print(f"  known fault, counted as failed: {label}: {detail}")
    for name in report["absent"]:
        print(f"  absent from the program, reported as zero: {name}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        for name, value in report["rates"].items():
            print(f"  {name:42s} {value:14.6g} 1/s (per command type, not in the JSON)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
