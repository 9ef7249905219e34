import csv
import io
import re
from dataclasses import fields

import numpy as np
import pytest

from ttnets.mnist import synthetic_digits
from ttnets.networks import (
    PatchConfig,
    ScoreNetwork,
    initialize_for_training,
    make_score_network,
    network_gradients,
    patch_sequences,
    stack_networks,
)
from ttnets.tensor_io import WRITE_CHUNK
from ttnets.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_LR_SWEEP,
    AdamState,
    Dataset,
    TrainConfig,
    accuracy,
    adam_step,
    cross_entropy,
    cross_entropy_batch,
    decision_grid,
    make_circles,
    make_moons,
    predict,
    revive_dead_units,
    train,
    train_lr_sweep,
    train_runs,
    write_grid_csv,
    write_history_csv,
)


class TestMoons:
    def test_four_noiseless_points(self):
        data = make_moons(4, 0.0)
        np.testing.assert_allclose(
            data.inputs[:, :, 0],
            [[1, 0], [-1, 0], [0, 0.5], [2, 0.5]], atol=1e-12)
        np.testing.assert_array_equal(data.labels, [0, 0, 1, 1])

    def test_noiseless_is_seed_independent(self):
        a, b = make_moons(10, 0.0, seed=1), make_moons(10, 0.0, seed=999)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_balanced_labels(self):
        for n in (5, 8, 101):
            labels = make_moons(n, 0.1, seed=0).labels
            assert abs(int((labels == 0).sum()) - int((labels == 1).sum())) <= 1

    def test_noise_applied(self):
        assert not np.array_equal(make_moons(10, 0.5, seed=3).inputs,
                                  make_moons(10, 0.0).inputs)


class TestCircles:
    def test_four_noiseless_points(self):
        data = make_circles(4, 0.0, factor=0.5)
        np.testing.assert_allclose(
            data.inputs[:, :, 0],
            [[1, 0], [-1, 0], [0.5, 0], [-0.5, 0]], atol=1e-12)
        np.testing.assert_array_equal(data.labels, [0, 0, 1, 1])

    def test_inner_radius_is_factor(self):
        data = make_circles(40, 0.0, factor=0.3)
        inner = data.inputs[data.labels == 1, :, 0]
        np.testing.assert_allclose(np.hypot(inner[:, 0], inner[:, 1]), 0.3, atol=1e-12)

    def test_factor_range_checked(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="factor"):
                make_circles(4, 0.0, factor=bad)

    def test_determinism_without_noise(self):
        np.testing.assert_array_equal(make_circles(6, 0.0, 0.5, seed=0).inputs,
                                      make_circles(6, 0.0, 0.5, seed=42).inputs)


@pytest.mark.parametrize("make", [make_moons, make_circles])
@pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
def test_toy_noise_must_be_finite_and_nonnegative(make, noise):
    with pytest.raises(ValueError, match="noise"):
        make(10, noise)


class TestCrossEntropy:
    def test_symmetric_two_way(self):
        loss, grad = cross_entropy(np.array([0.0, 0.0]), 0)
        assert abs(loss - np.log(2)) <= 1e-15
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_confident_correct_is_near_zero(self):
        loss, _ = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert 0.0 <= loss <= 1e-10

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scores = rng.normal(size=5) * 10
            _, grad = cross_entropy(scores, int(rng.integers(5)))
            assert abs(grad.sum()) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=4)
        label = 2
        _, grad = cross_entropy(scores, label)
        h = 1e-6
        for i in range(4):
            bumped = scores.copy()
            bumped[i] += h
            up, _ = cross_entropy(bumped, label)
            bumped[i] -= 2 * h
            dn, _ = cross_entropy(bumped, label)
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(abs(fd), abs(grad[i]), 1e-3)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), 3)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        flat = np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0])
        params = [flat[:2], flat[2:].reshape(2, 2)]
        state = AdamState.for_params(flat)
        adam_step(flat, np.zeros(6), state, 1e-3)
        np.testing.assert_array_equal(params[0], [1.0, -2.0])
        np.testing.assert_array_equal(params[1], np.ones((2, 2)))

    def test_first_step_closed_form(self):
        # bias corrections cancel at t=1: update = -lr * g / (|g| + eps)
        lr = 0.05
        g = np.array([0.5, -3.0, 1e-12])
        params = [np.zeros(3)]
        adam_step(params[0], g, AdamState.for_params(params[0]), lr)
        want = -lr * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(params[0], want, rtol=1e-12)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(0)
            params = [rng.normal(size=(3, 2))]
            state = AdamState.for_params(params[0])
            for _ in range(5):
                adam_step(params[0], rng.normal(size=(3, 2)), state, 1e-2)
            return params[0]

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        params = np.zeros(2)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, np.zeros(3), AdamState.for_params(params), 1e-3)

    @staticmethod
    def per_array_step(params, grads, m, v, t, lr):
        """The update applied one parameter array at a time."""
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        for p, g, mk, vk in zip(params, grads, m, v):
            mk *= ADAM_BETA1
            mk += (1.0 - ADAM_BETA1) * g
            vk *= ADAM_BETA2
            vk += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (mk / c1) / (np.sqrt(vk / c2) + ADAM_EPS)

    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_vector_step_matches_per_array_steps_bit_for_bit(self, kind):
        net = make_score_network(kind, 4, 3, 3, 2, 2, seed=1)
        ref = [p.copy() for p in net.parameters()]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        state = AdamState.for_params(net.vector)
        rng = np.random.default_rng(7)
        for t in range(1, 21):
            grad = rng.normal(size=net.vector.size) * 10.0 ** rng.integers(-9, 3)
            grad[rng.random(grad.size) < 0.1] = 0.0
            adam_step(net.vector, grad, state, 3e-3)
            self.per_array_step(ref, net.views(grad), ref_m, ref_v, t, 3e-3)
        for got, want in [(net.parameters(), ref), (net.views(state.m), ref_m),
                          (net.views(state.v), ref_v)]:
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


class TestTrainLoop:
    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_arrays_taken_before_training_hold_trained_values(self, kind):
        data = make_moons(40, 0.1, seed=0)
        net = make_score_network(kind, 2, 1, 4, 3, 2, seed=1)
        arrays = net.parameters()
        before = [a.copy() for a in arrays]
        train(net, data, TrainConfig(epochs=2, seed=0), 1e-2)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]),
                                      net.vector)
        for a, b in zip(arrays, net.parameters()):
            np.testing.assert_array_equal(a, b)
        assert not all(np.array_equal(a, old) for a, old in zip(arrays, before))

    @pytest.mark.filterwarnings("error")
    def test_diverged_run_stops_at_its_first_non_finite_epoch(self):
        data = make_moons(200, 0.1, seed=0)
        net = make_score_network("tt", 2, 1, 4, 8, 2, seed=0)
        history = train(net, data, TrainConfig(epochs=50), 1e200)
        assert 1 <= len(history) < 50
        assert [h.epoch for h in history] == list(range(1, len(history) + 1))
        assert not np.isfinite(history[-1].loss)
        assert all(np.isfinite(h.loss) for h in history[:-1])
        # the batch whose loss is not finite takes no step
        assert np.isfinite(net.vector).all()

    def test_zero_epochs_noop(self):
        data = make_moons(20, 0.1, seed=0)
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=1)
        before = [p.copy() for p in net.weights.parameters()]
        history = train(net, data, TrainConfig(epochs=0), 1e-3)
        assert history == []
        for old, new in zip(before, net.weights.parameters()):
            np.testing.assert_array_equal(old, new)

    def test_history_epochs_monotone(self):
        data = make_moons(40, 0.1, seed=0)
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=1)
        history = train(net, data, TrainConfig(epochs=4, seed=2), 1e-3)
        assert [h.epoch for h in history] == [1, 2, 3, 4]

    def test_bit_deterministic(self):
        def run():
            data = make_moons(60, 0.1, seed=3)
            net = make_score_network("tt", 2, 1, 4, 3, 2, seed=4)
            history = train(net, data, TrainConfig(epochs=3, seed=5), 2e-3)
            return history, net.weights.parameters()

        h1, p1 = run()
        h2, p2 = run()
        assert [(e.epoch, e.loss, e.accuracy) for e in h1] == \
               [(e.epoch, e.loss, e.accuracy) for e in h2]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_over_first_ten_steps_for_most_seeds(self):
        # one fixed batch, full-batch steps, lr 1e-3
        data = make_moons(32, 0.1, seed=9)
        good = 0
        for seed in range(20):
            net = make_score_network("tt", 2, 1, 4, 4, 2, seed=seed)
            cfg = TrainConfig(epochs=10, batch_size=32, seed=0)
            history = train(net, data, cfg, 1e-3)
            losses = [h.loss for h in history]
            if all(b < a for a, b in zip(losses, losses[1:])):
                good += 1
        assert good >= 18

    def test_full_pipeline_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for kind in ("tt", "cp", "ht"):
            for trial in range(3):
                net = make_score_network(kind, 4, 3, 3, 2, 3, seed=trial,
                                         activation="sigmoid")
                x = rng.normal(size=(4, 3))
                label = int(rng.integers(3))

                def loss_value():
                    return cross_entropy(net.scores(x), label)[0]

                _, dscores = cross_entropy(net.scores(x), label)
                grads = network_gradients(net, x, dscores)
                params = net.weights.parameters() + [net.feature_map.A, net.feature_map.b]
                analytic = grads.weight_grads + [grads.dA, grads.db]
                h = 1e-5
                for p, a in zip(params, analytic):
                    flat, aflat = p.reshape(-1), np.asarray(a).reshape(-1)
                    for i in range(0, flat.size, 3):
                        keep = flat[i]
                        flat[i] = keep + h
                        up = loss_value()
                        flat[i] = keep - h
                        dn = loss_value()
                        flat[i] = keep
                        fd = (up - dn) / (2 * h)
                        assert abs(fd - aflat[i]) <= 1e-4 * max(abs(fd), abs(aflat[i]), 1e-6)


class TestDeadUnitRevival:
    @staticmethod
    def kill_unit(net, data, unit):
        # kink beyond the data: the unit fires on no patch of any input
        proj = data.inputs @ net.feature_map.A[unit]
        net.feature_map.b[unit] = -float(proj.max()) - 1.0

    @staticmethod
    def fires(net, data, unit):
        z = data.inputs @ net.feature_map.A.T + net.feature_map.b
        return bool(np.any(z[..., unit] > 0.0))

    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_one_epoch_revives_dead_unit(self, kind):
        data = make_moons(40, 0.1, seed=0)
        net = make_score_network(kind, 2, 1, 4, 3, 2, seed=1)
        self.kill_unit(net, data, 2)
        assert not self.fires(net, data, 2)
        train(net, data, TrainConfig(epochs=1, seed=0), 1e-3)
        assert self.fires(net, data, 2)

    @pytest.mark.parametrize("kind, d", [("tt", 2), ("cp", 2), ("ht", 2), ("ht", 5)],
                             ids=["tt", "cp", "ht", "ht-d5"])
    def test_revival_preserves_scores_bit_for_bit(self, kind, d):
        data = make_moons(40, 0.1, seed=0)
        if d != 2:  # the same 80 coordinates as 16 sequences of d = 5
            data = Dataset(data.inputs.reshape(16, d, 1), data.labels[:16], 2)
        net = make_score_network(kind, d, 1, 4, 3, 2, seed=1)
        self.kill_unit(net, data, 2)
        state = AdamState(np.ones_like(net.vector), np.ones_like(net.vector), step=5)
        before = net.scores_batch(data.inputs)
        revived = revive_dead_units(net, data.inputs, state)
        assert 2 in revived
        assert all(self.fires(net, data, unit) for unit in revived)
        np.testing.assert_array_equal(net.scores_batch(data.inputs), before)
        for moments in (net.views(state.m), net.views(state.v)):
            for mom, axis in zip(moments, net.weights.feature_axes() + [0, 0]):
                if axis is None:
                    assert np.all(mom == 1.0)
                    continue
                assert np.all(np.take(mom, revived, axis=axis) == 0.0)
                assert np.all(np.delete(mom, revived, axis=axis) == 1.0)

    def test_live_units_and_smooth_activations_untouched(self):
        data = make_moons(40, 0.1, seed=0)
        for activation in ("relu", "sigmoid", "identity"):
            net = make_score_network("tt", 2, 1, 4, 3, 2, seed=1, activation=activation)
            if activation == "relu":
                net.feature_map.b[:] = 5.0  # every unit fires everywhere
            else:
                self.kill_unit(net, data, 0)
            before = [p.copy() for p in net.weights.parameters()] + [net.feature_map.b.copy()]
            state = AdamState(np.ones_like(net.vector), np.ones_like(net.vector))
            assert revive_dead_units(net, data.inputs, state) == []
            after = net.weights.parameters() + [net.feature_map.b]
            for old, new in zip(before, after):
                np.testing.assert_array_equal(old, new)
            assert np.all(state.m == 1.0) and np.all(state.v == 1.0)


def sweep_nets(build, cfg, count):
    """Fresh copies of the networks a sweep of ``count`` rates builds."""
    return [build(int(np.random.SeedSequence((cfg.seed, k)).generate_state(1)[0]))
            for k in range(count)]


def keeping(build):
    """``build``, and the list of every network it has built."""
    kept = []

    def wrapped(seed):
        kept.append(build(seed))
        return kept[-1]

    return wrapped, kept


def position(net, nets):
    return next(k for k, other in enumerate(nets) if other is net)


class TestSweep:
    def test_selection_reproducible(self):
        data = make_moons(50, 0.1, seed=2)
        cfg = TrainConfig(epochs=3, seed=11)
        build, kept = keeping(lambda s: make_score_network("tt", 2, 1, 4, 2, 2, seed=s))
        a, a_history = train_lr_sweep(build, data, cfg, (4e-3, 1e-3))
        b, b_history = train_lr_sweep(build, data, cfg, (4e-3, 1e-3))
        assert position(a, kept) + 2 == position(b, kept)
        np.testing.assert_array_equal(a.vector, b.vector)
        assert [e.loss for e in a_history] == [e.loss for e in b_history]

    def test_picks_minimum_final_loss(self):
        data = make_moons(50, 0.1, seed=2)
        cfg = TrainConfig(epochs=2, seed=1)
        rates = (2e-3, 1e-3, 5e-4)
        build, kept = keeping(lambda s: make_score_network("tt", 2, 1, 4, 2, 2, seed=s))
        net, history = train_lr_sweep(build, data, cfg, rates)
        finals = [h[-1].loss for h in train_runs(sweep_nets(build, cfg, 3), data, cfg, rates)]
        k = position(net, kept)
        assert history[-1].loss == finals[k] == min(finals)

    def test_diverged_run_never_kept(self):
        data = make_moons(50, 0.1, seed=2)
        cfg = TrainConfig(epochs=3, seed=1)
        build, kept = keeping(lambda s: make_score_network("tt", 2, 1, 4, 2, 2, seed=s,
                                                           activation="identity"))
        net, history = train_lr_sweep(build, data, cfg, (1e150, 1e-3))
        assert net is kept[1]
        assert np.isfinite(history[-1].loss)
        wild = train_runs(sweep_nets(build, cfg, 1), data, cfg, (1e150,))[0]
        assert np.isnan(wild[-1].loss)
        with pytest.raises(ValueError, match="1e\\+150, 1e\\+140"):
            train_lr_sweep(build, data, cfg, (1e150, 1e140))

    def test_finite_rate_kept_over_a_run_that_diverges_at_once(self):
        data = make_moons(200, 0.1, seed=0)
        cfg = TrainConfig(epochs=10)
        build, kept = keeping(lambda s: make_score_network("tt", 2, 1, 4, 8, 2, seed=s))
        net, history = train_lr_sweep(build, data, cfg, (1e200, 1e-3))
        assert net is kept[1]
        assert len(history) == 10 and np.isfinite(history[-1].loss)
        wild = train_runs(sweep_nets(build, cfg, 1), data, cfg, (1e200,))[0]
        assert not np.isfinite(wild[-1].loss)


class TestDecisionGrid:
    def test_all_equal_scores_break_ties_low(self):
        net = make_score_network("tt", 2, 1, 4, 2, 3, seed=0)
        net.weights.cores[-1][:] = 0.0  # all class scores identical (zero)
        labels, xs, ys = decision_grid(net, (-1, 1, -1, 1), 4)
        assert labels.shape == (4, 4)
        assert np.all(labels == 0)

    def test_single_cell(self):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        labels, xs, ys = decision_grid(net, (0, 1, 0, 1), 1)
        assert labels.shape == (1, 1)
        assert xs.tolist() == [0.0] and ys.tolist() == [0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_rejects_non_finite_inputs(self, bad):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        inputs = np.zeros((3, 2, 1))
        inputs[1, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            predict(net, inputs)

    def test_rejects_long_sequences(self):
        net = make_score_network("tt", 3, 1, 4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="2-D"):
            decision_grid(net, (0, 1, 0, 1), 4)

    def test_trained_net_recovers_noiseless_moons(self):
        from ttnets.training import DEFAULT_LR_SWEEP

        data = make_moons(500, 0.1, seed=1)
        cfg = TrainConfig(epochs=300, seed=7)
        net, _ = train_lr_sweep(lambda s: make_score_network("tt", 2, 1, 4, 8, 2, seed=s),
                                data, cfg, DEFAULT_LR_SWEEP)
        clean = make_moons(500, 0.0)
        assert float(np.mean(predict(net, clean.inputs) == clean.labels)) >= 0.95


class TestCSVArtifacts:
    def test_history_csv(self, tmp_path):
        data = make_moons(30, 0.1, seed=0)
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=1)
        history = train(net, data, TrainConfig(epochs=2, seed=0), 1e-3)
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 3 and lines[1].startswith("1,")

    def test_grid_csv_row_count(self, tmp_path):
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=1)
        labels, xs, ys = decision_grid(net, (-1, 1, -1, 1), 5)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, labels, xs, ys)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1 + 25

    def test_grid_csv_past_a_chunk_matches_csv_writer(self, tmp_path):
        # more rows than one formatted chunk; the reference is csv.writer's
        # excel dialect, one row at a time
        xs = np.linspace(-1.0, 1.0, 33)
        ys = np.random.default_rng(0).normal(size=32)
        labels = np.random.default_rng(1).integers(0, 10, size=(32, 33))
        assert labels.size > WRITE_CHUNK
        path = tmp_path / "grid.csv"
        write_grid_csv(path, labels, xs, ys)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["x", "y", "label"])
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                writer.writerow([f"{x:.17g}", f"{y:.17g}", int(labels[iy, ix])])
        assert path.read_bytes() == ref.getvalue().encode()


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2, 1)), np.array([0, 2]), 2)

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.7], "labels must be integers in 0..1, got 0.5"),
        ([1.0, np.nan], "labels must be integers in 0..1, got nan"),
        ([0, 2], "labels must be integers in 0..1, got 2"),
    ], ids=["fraction", "nan", "too-large"])
    def test_bad_label_named(self, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(np.zeros((2, 2, 1)), np.array(labels), 2)

    def test_whole_float_labels_accepted(self):
        data = Dataset(np.zeros((2, 2, 1)), np.array([1.0, 0.0]), 2)
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [1, 0]

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2, 1)), np.array([0]), 2)

    def test_zero_samples_refused(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset(np.zeros((0, 2, 1)), np.zeros(0, dtype=np.int64), 2)

    def test_calibrated_init_refuses_empty_sample(self):
        net = make_score_network("tt", 25, 64, 4, 4, 10, seed=0)
        before = net.vector.copy()
        with pytest.raises(ValueError, match="non-empty sample"):
            initialize_for_training(net, np.zeros((0, 25, 64)), seed=0)
        np.testing.assert_array_equal(net.vector, before)

    def test_accuracy_helper(self):
        data = make_moons(10, 0.0)
        net = make_score_network("tt", 2, 1, 4, 2, 2, seed=0)
        acc = accuracy(net, data)
        assert 0.0 <= acc <= 1.0


class TestStackedRuns:
    """The runs of a stack do not couple: each run of a sweep is bit for
    bit the run trained alone."""

    @staticmethod
    def case(name):
        if name != "digits":
            def toy(seed):
                return make_score_network(name, 2, 1, 4, 8, 2, seed=seed)

            return make_moons(100, 0.1, seed=3), toy
        images, labels = synthetic_digits(64, seed=3)
        data = Dataset(patch_sequences(images, PatchConfig(28, 28, 8, 8, 5)), labels, 10)

        def digit(seed):
            net = make_score_network("tt", 25, 64, 4, 4, 10, seed=seed)
            return initialize_for_training(net, data.inputs, seed=seed)

        return data, digit

    @staticmethod
    def solo(build, data, cfg, k, lr):
        net = sweep_nets(build, cfg, k + 1)[k]
        history = train(net, data, cfg, lr)
        return net, history

    @staticmethod
    def rows(history):
        return [(e.epoch, e.loss, e.accuracy) for e in history]

    @pytest.mark.parametrize("name", ["tt", "cp", "ht", "digits"])
    def test_sweep_runs_match_solo_runs(self, name):
        data, build = self.case(name)
        cfg = TrainConfig(epochs=3, seed=7)
        tracked, kept = keeping(build)
        best, best_history = train_lr_sweep(tracked, data, cfg)
        assert len(kept) == len(DEFAULT_LR_SWEEP)
        finals = []
        for k, lr in enumerate(DEFAULT_LR_SWEEP):
            net, history = self.solo(build, data, cfg, k, lr)
            np.testing.assert_array_equal(kept[k].vector, net.vector)
            finals.append(history[-1].loss)
            if kept[k] is best:
                assert self.rows(best_history) == self.rows(history)
        assert position(best, kept) == finals.index(min(finals))

    @pytest.mark.parametrize("name", ["tt", "cp", "ht", "digits"])
    def test_diverging_run_leaves_its_neighbour_alone(self, name):
        data, build = self.case(name)
        cfg = TrainConfig(epochs=4, seed=7)
        rates = (1e150, 1e-3)
        nets = sweep_nets(build, cfg, 2)
        histories = train_runs(nets, data, cfg, rates)
        wild, wild_history = self.solo(build, data, cfg, 0, rates[0])
        tame, tame_history = self.solo(build, data, cfg, 1, rates[1])
        if name != "digits":
            # at the digit shape the first step kills every ReLU unit, so
            # the run ends at chance instead of diverging
            assert len(wild_history) < cfg.epochs
            assert not np.isfinite(wild_history[-1].loss)
        np.testing.assert_array_equal(self.rows(histories[0]), self.rows(wild_history),
                                      strict=True)
        np.testing.assert_array_equal(nets[0].vector, wild.vector)
        np.testing.assert_array_equal(nets[1].vector, tame.vector)
        assert self.rows(histories[1]) == self.rows(tame_history)

    # (kind, batch size, batch of the last epoch it stops on, diverging rate);
    # at 1e150 a tree with two batches per epoch stops on epoch 1's last
    # batch, so it runs at 1e100, which stops it on epoch 2's first
    EDGE_CASES = [
        ("tt", 50, 2, 1e150), ("cp", 50, 2, 1e150),  # the last of an epoch's two batches
        ("ht", 50, 1, 1e100),  # the first of epoch 2's two batches
        ("tt", 100, 1, 1e150), ("cp", 100, 1, 1e150), ("ht", 100, 1, 1e150),  # one per epoch
    ]

    @pytest.mark.parametrize("kind, batch_size, stop, rate", EDGE_CASES,
                             ids=[f"{k}-{size}-{stop}" for k, size, stop, _ in EDGE_CASES])
    def test_stop_on_an_epochs_edge_batch(self, kind, batch_size, stop, rate, monkeypatch):
        data, build = self.case(kind)
        cfg = TrainConfig(epochs=4, batch_size=batch_size, seed=7)
        rates = (rate, 1e-3)
        nets = sweep_nets(build, cfg, 2)
        histories = train_runs(nets, data, cfg, rates)
        batches = []
        real = cross_entropy_batch
        monkeypatch.setattr("ttnets.training.cross_entropy_batch",
                            lambda *args: batches.append(1) or real(*args))
        wild, wild_history = self.solo(build, data, cfg, 0, rates[0])
        monkeypatch.undo()
        tame, tame_history = self.solo(build, data, cfg, 1, rates[1])
        per_epoch = len(data) // batch_size
        assert not np.isfinite(wild_history[-1].loss)
        assert len(batches) - (len(wild_history) - 1) * per_epoch == stop
        np.testing.assert_array_equal(self.rows(histories[0]), self.rows(wild_history),
                                      strict=True)
        np.testing.assert_array_equal(nets[0].vector, wild.vector)
        np.testing.assert_array_equal(nets[1].vector, tame.vector)
        assert self.rows(histories[1]) == self.rows(tame_history)

    def test_stopped_run_counts_no_later_batch(self, monkeypatch):
        # run 0's loss is forced to inf on batch 2 and NaN on batch 3: its
        # epoch loss is the mean of batches 1 and 2, inf, as when it trains
        # alone and never reaches batch 3
        data, build = self.case("tt")
        cfg = TrainConfig(epochs=2, seed=7)
        real = cross_entropy_batch
        calls = []

        def forced(scores, labels):
            loss, dscores = real(scores, labels)
            calls.append(1)
            if len(calls) in (2, 3):
                loss = loss.copy()
                loss[0] = (np.inf, np.nan)[len(calls) - 2]
            return loss, dscores

        monkeypatch.setattr("ttnets.training.cross_entropy_batch", forced)
        nets = sweep_nets(build, cfg, 2)
        histories = train_runs(nets, data, cfg, (1e-3, 1e-3))
        calls.clear()
        wild, wild_history = self.solo(build, data, cfg, 0, 1e-3)
        monkeypatch.undo()
        tame, tame_history = self.solo(build, data, cfg, 1, 1e-3)
        assert wild_history[-1].loss == np.inf
        assert self.rows(histories[0]) == self.rows(wild_history)
        np.testing.assert_array_equal(nets[0].vector, wild.vector)
        np.testing.assert_array_equal(nets[1].vector, tame.vector)
        assert self.rows(histories[1]) == self.rows(tame_history)

    @pytest.mark.filterwarnings("error")
    def test_stack_that_stops_skips_the_rest_of_the_epoch(self, monkeypatch):
        data, build = self.case("tt")
        nets = [build(seed) for seed in range(3)]
        shapes = []
        real = ScoreNetwork.forward

        def forward(net, batch):
            shapes.append(net.vector.shape[:-1])
            return real(net, batch)

        monkeypatch.setattr(ScoreNetwork, "forward", forward)
        histories = train_runs(nets, data, TrainConfig(epochs=3, seed=7),
                               (1e150, 1e160, 1e200))
        assert [len(h) for h in histories] == [1, 1, 1]
        assert not any(np.isfinite(h[-1].loss) for h in histories)
        # every run stops on batch 2 of 4: two batch forwards, then one
        # accuracy pass for the whole stack
        assert shapes == [(3,), (3,), (3,)]

    def test_the_stack_is_built_once(self, monkeypatch):
        data, build = self.case("tt")
        cfg = TrainConfig(epochs=4, seed=7)
        built = []
        real = stack_networks
        monkeypatch.setattr("ttnets.training.stack_networks",
                            lambda nets: built.append(len(nets)) or real(nets))
        histories = train_runs(sweep_nets(build, cfg, 2), data, cfg, (1e150, 1e-3))
        assert [len(h) for h in histories] == [1, 4]
        assert built == [2]

    def test_later_revival_of_a_frozen_row_leaves_its_network_alone(self, monkeypatch):
        # run 0 stops in epoch 1; from epoch 2 on its frozen row gets a dead
        # unit before each revival, which revives it and so changes the row
        data, build = self.case("tt")
        cfg = TrainConfig(epochs=4, seed=7)
        rates = (1e150, 1e-3)
        real = revive_dead_units
        revived, frozen = [], []

        def killing(net, inputs, state):
            if revived:
                proj = inputs @ net.feature_map.A[0, 2]
                net.feature_map.b[0, 2] = -float(proj.max()) - 1.0
            revived.append(real(net, inputs, state))
            frozen.append(net.vector[0].copy())
            return revived[-1]

        monkeypatch.setattr("ttnets.training.revive_dead_units", killing)
        nets = sweep_nets(build, cfg, 2)
        histories = train_runs(nets, data, cfg, rates)
        monkeypatch.undo()
        wild, wild_history = self.solo(build, data, cfg, 0, rates[0])
        tame, tame_history = self.solo(build, data, cfg, 1, rates[1])
        assert len(wild_history) == 1 and len(revived) == cfg.epochs
        assert all(2 in runs[0] for runs in revived[1:])
        assert not np.array_equal(frozen[-1], frozen[0])
        np.testing.assert_array_equal(self.rows(histories[0]), self.rows(wild_history),
                                      strict=True)
        np.testing.assert_array_equal(nets[0].vector, wild.vector)
        np.testing.assert_array_equal(nets[1].vector, tame.vector)
        assert self.rows(histories[1]) == self.rows(tame_history)

    def test_one_rate_per_network(self):
        data, build = self.case("tt")
        nets = [build(seed) for seed in range(3)]
        for rates in [(1e-3,), (1e-3, 2e-3)]:
            with pytest.raises(ValueError, match=f"got {len(rates)} rates for 3 networks"):
                train_runs(nets, data, TrainConfig(epochs=1), rates)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_every_rate_finite_and_positive(self, bad):
        data, build = self.case("tt")
        nets = [build(seed) for seed in range(3)]
        before = [net.vector.copy() for net in nets]
        message = f"learning_rate must be finite and positive, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_runs(nets, data, TrainConfig(epochs=1), (1e-3, bad, 2e-3))
        for net, old in zip(nets, before):
            np.testing.assert_array_equal(net.vector, old)

    def test_a_rate_is_one_number(self):
        data, build = self.case("tt")
        with pytest.raises(ValueError, match="one number"):
            train(build(0), data, TrainConfig(epochs=1), np.array([[1e-3]]))

    def test_config_holds_only_what_the_runs_share(self):
        assert [f.name for f in fields(TrainConfig)] == ["epochs", "batch_size", "seed"]

    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_stacked_revival_matches_each_run(self, kind):
        data = make_moons(40, 0.1, seed=0)
        nets = [make_score_network(kind, 2, 1, 4, 3, 2, seed=s) for s in (1, 2, 3)]
        TestDeadUnitRevival.kill_unit(nets[0], data, 2)
        TestDeadUnitRevival.kill_unit(nets[2], data, 0)
        TestDeadUnitRevival.kill_unit(nets[2], data, 3)
        stack = stack_networks(nets)
        state = AdamState(np.ones_like(stack.vector), np.ones_like(stack.vector))
        revived = revive_dead_units(stack, data.inputs, state)
        for k, net in enumerate(nets):
            alone = AdamState(np.ones_like(net.vector), np.ones_like(net.vector))
            assert revived[k] == revive_dead_units(net, data.inputs, alone)
            np.testing.assert_array_equal(stack.vector[k], net.vector)
            np.testing.assert_array_equal(state.m[k], alone.m)
            np.testing.assert_array_equal(state.v[k], alone.v)
        assert 2 in revived[0] and {0, 3} <= set(revived[2])
