import hashlib
from functools import reduce

import numpy as np
import pytest

from ttnets.decompositions import (
    CPTensor,
    HTTensor,
    TTTensor,
    cp_to_dense,
    ht_node_leaf_sets,
    ht_to_dense,
    states,
    tt_to_dense,
)
from ttnets.networks import (
    FeatureMap,
    PatchConfig,
    ScoreNetwork,
    apply_feature_map,
    build_similarity_network,
    count_parameters,
    cp_backward,
    cp_scores_from_features,
    ht_backward,
    make_score_network,
    network_gradients,
    network_gradients_batch,
    patch_sequences,
    stack_networks,
    tt_backward,
    tt_scores_from_features,
)
from ttnets.rank_analysis import cp_rank_lower_bound
from ttnets.tensor import inner_product, odd_even_split


def dense_weight(wt):
    name = type(wt).__name__
    if name == "TTTensor":
        return tt_to_dense(wt)
    if name == "CPTensor":
        return cp_to_dense(wt)
    return ht_to_dense(wt)


def brute_scores(net, x):
    """Independent oracle: materialize the full feature tensor and every
    class weight tensor, then take plain inner products."""
    phi = apply_feature_map(net.feature_map, np.asarray(x, dtype=np.float64))
    if net.input_order is not None:
        phi = phi[list(net.input_order), :]
    feature_tensor = reduce(np.multiply.outer, phi)
    return np.array([
        inner_product(dense_weight(net.weights.class_tensor(y)), feature_tensor)
        for y in range(net.num_classes)
    ])


class TestPatches:
    def test_fig_like_geometry(self):
        cfg = PatchConfig(28, 28, 7, 7, 7)
        assert patch_sequences(np.zeros((2, 28, 28)), cfg).shape == (2, 16, 49)

    def test_flat_index_image(self):
        img = np.arange(16.0).reshape(4, 4)
        seq = patch_sequences(np.stack([img, -img]), PatchConfig(4, 4, 2, 2, 2))
        np.testing.assert_array_equal(seq[0, :3], [[0, 1, 4, 5], [2, 3, 6, 7],
                                                   [8, 9, 12, 13]])
        np.testing.assert_array_equal(seq[1], -seq[0])

    def test_eight_by_eight(self):
        cfg = PatchConfig(32, 32, 8, 8, 8)
        assert patch_sequences(np.zeros((1, 32, 32)), cfg).shape == (1, 16, 64)

    def test_overlapping_stride(self):
        assert PatchConfig(28, 28, 8, 8, 5).grid == (5, 5)

    def test_non_tiling_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            PatchConfig(28, 28, 8, 8, 8)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4, 3)])
    def test_batch_that_is_not_3d_rejected(self, shape):
        with pytest.raises(ValueError, match=r"grayscale images \(N, H, W\), got shape"):
            patch_sequences(np.zeros(shape), PatchConfig(4, 4, 2, 2, 2))


class TestFeatureMap:
    def test_identity_affine_relu(self):
        fm = FeatureMap(np.eye(2), np.zeros(2), "relu")
        np.testing.assert_array_equal(apply_feature_map(fm, np.array([1.0, -2.0])), [1, 0])

    def test_constant_map(self):
        fm = FeatureMap(np.zeros((2, 3)), np.array([5.0, 5.0]), "relu")
        np.testing.assert_array_equal(apply_feature_map(fm, np.array([9.0, -9.0, 0.1])), [5, 5])

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_saturates_without_warning(self):
        # exp(1000) overflows to inf, and 1 / (1 + inf) is exactly 0.0
        fm = FeatureMap(np.ones((1, 1)), np.zeros(1), "sigmoid")
        z = np.array([[-1000.0], [-40.0], [0.0], [40.0], [1000.0]])
        np.testing.assert_array_equal(apply_feature_map(fm, z)[:, 0],
                                      [0.0, 1.0 / (1.0 + np.exp(40.0)), 0.5, 1.0, 1.0])

    def test_identity_activation_is_affine(self):
        rng = np.random.default_rng(2)
        fm = FeatureMap(rng.normal(size=(4, 3)), rng.normal(size=4), "identity")
        x = rng.normal(size=3)
        np.testing.assert_allclose(apply_feature_map(fm, x), fm.A @ x + fm.b, atol=1e-14)

    def test_dim_mismatch(self):
        fm = FeatureMap(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            apply_feature_map(fm, np.zeros(3))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            FeatureMap(np.eye(2), np.zeros(2), "tanh")


class TestForwardAgainstBruteForce:
    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_matches_inner_product_of_dense_tensors(self, kind):
        rng = np.random.default_rng(["tt", "cp", "ht"].index(kind))
        for _ in range(8):
            d = 4 if kind == "ht" else int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            net = make_score_network(kind, d, n, m, r, c, seed=rng, activation="sigmoid")
            x = rng.normal(size=(d, n))
            np.testing.assert_allclose(net.scores(x), brute_scores(net, x),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 6, 7, 12])
    def test_tree_at_any_leaf_count_matches_inner_product(self, d):
        rng = np.random.default_rng(d)
        net = make_score_network("ht", d, 3, 2, 2, 3, seed=rng, activation="sigmoid")
        x = rng.normal(size=(d, 3))
        np.testing.assert_allclose(net.scores(x), brute_scores(net, x),
                                   rtol=1e-10, atol=1e-12)

    def test_zero_feature_vector_kills_score(self):
        net = make_score_network("tt", 3, 2, 3, 2, 2, seed=0, activation="identity")
        net.feature_map.A[:] = 0.0
        net.feature_map.b[:] = 0.0
        assert not net.scores(np.ones((3, 2))).any()

    def test_rank_one_chain_is_product_of_dots(self):
        rng = np.random.default_rng(8)
        d, m = 3, 4
        vecs = [rng.normal(size=m) for _ in range(d)]
        cores = [vecs[0].reshape(1, m, 1), vecs[1].reshape(1, m, 1),
                 vecs[2].reshape(1, m, 1)]
        net = ScoreNetwork(FeatureMap(np.eye(m), np.zeros(m), "identity"),
                           TTTensor(cores))
        x = rng.normal(size=(d, m))
        want = np.prod([w @ xi for w, xi in zip(vecs, x)])
        np.testing.assert_allclose(net.scores(x)[0], want, rtol=1e-12)

    def test_cp_rank_one_is_product_of_dots(self):
        rng = np.random.default_rng(9)
        d, m = 3, 3
        factors = [rng.normal(size=(m, 1)) for _ in range(d - 1)]
        factors.append(rng.normal(size=(m, 1, 1)))
        net = ScoreNetwork(FeatureMap(np.eye(m), np.zeros(m), "identity"),
                           CPTensor(factors))
        x = rng.normal(size=(d, m))
        want = np.prod([x[k] @ np.asarray(factors[k]).reshape(m) for k in range(d)])
        np.testing.assert_allclose(net.scores(x)[0], want, rtol=1e-12)

    def test_cp_and_tt_from_same_dense_tensor_agree(self):
        # a CP tensor of rank R is a TT chain of rank R with diagonal
        # interior cores
        rng = np.random.default_rng(10)
        m, d, c, r = 3, 3, 1, 2
        factors = [rng.normal(size=(m, r)) for _ in range(d - 1)]
        factors.append(rng.normal(size=(m, r, c)))
        cp_net = ScoreNetwork(FeatureMap(rng.normal(size=(m, m)), rng.normal(size=m),
                                         "sigmoid"), CPTensor(factors))
        tt = TTTensor((factors[0][None],
                       *(np.einsum("ia,ab->aib", f, np.eye(r)) for f in factors[1:-1]),
                       factors[-1].transpose(1, 0, 2)))
        np.testing.assert_allclose(tt_to_dense(tt), cp_to_dense(cp_net.weights), rtol=1e-13)
        tt_net = ScoreNetwork(cp_net.feature_map, tt)
        for _ in range(5):
            x = rng.normal(size=(d, m))
            np.testing.assert_allclose(tt_net.scores(x), cp_net.scores(x), rtol=1e-10)

    def test_zero_leaf_zero_tree_scores(self):
        net = make_score_network("ht", 4, 2, 3, 2, 2, seed=1)
        net.weights.leaves[0][:] = 0.0
        assert not net.scores(np.ones((4, 2))).any()

    def test_tree_with_unit_ranks_is_product_of_dots(self):
        rng = np.random.default_rng(14)
        m = 3
        leaves = [rng.normal(size=(m, 1)) for _ in range(4)]
        ones = np.ones((1, 1, 1))
        net = ScoreNetwork(FeatureMap(np.eye(m), np.zeros(m), "identity"),
                           HTTensor([*leaves, ones, ones, ones]))
        x = rng.normal(size=(4, m))
        want = np.prod([x[k] @ leaves[k][:, 0] for k in range(4)])
        np.testing.assert_allclose(net.scores(x)[0], want, rtol=1e-12)


def root_state(t, phi):
    return states(t, phi)[-1]


class TestMultilinearity:
    @pytest.mark.parametrize("kind,scorer", [
        ("tt", tt_scores_from_features), ("cp", cp_scores_from_features),
        ("ht", root_state)])
    def test_score_is_linear_in_each_feature_slot(self, kind, scorer):
        rng = np.random.default_rng(13)
        d, m, r, c = 4, 3, 2, 2
        net = make_score_network(kind, d, m, m, r, c, seed=rng)
        w = net.weights
        phi = rng.normal(size=(1, d, m))
        phi2 = rng.normal(size=(1, d, m))
        a, b = 0.7, -1.9
        for k in range(d):
            mixed = phi.copy()
            mixed[:, k, :] = a * phi[:, k, :] + b * phi2[:, k, :]
            other = phi.copy()
            other[:, k, :] = phi2[:, k, :]
            lhs = scorer(w, mixed)
            rhs = a * scorer(w, phi) + b * scorer(w, other)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


class TestGradients:
    @staticmethod
    def finite_difference_worst_error(net, x, upstream, h=1e-5):
        grads = network_gradients(net, x, upstream)
        params = net.weights.parameters() + [net.feature_map.A, net.feature_map.b]
        analytic = grads.weight_grads + [grads.dA, grads.db]
        worst = 0.0
        for p, a in zip(params, analytic):
            flat, aflat = p.reshape(-1), np.asarray(a).reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up_val = float(upstream @ net.scores(x))
                flat[i] = keep - h
                dn_val = float(upstream @ net.scores(x))
                flat[i] = keep
                fd = (up_val - dn_val) / (2 * h)
                worst = max(worst, abs(fd - aflat[i]) / max(abs(fd), abs(aflat[i]), 1e-8))
        return worst

    @pytest.mark.parametrize("kind, d", [("tt", 4), ("cp", 4), ("ht", 4), *(
        ("ht", d) for d in (3, 5, 6, 7, 12, 25))],
        ids=["tt", "cp", "ht", *(f"ht-d{d}" for d in (3, 5, 6, 7, 12, 25))])
    def test_matches_central_differences(self, kind, d):
        rng = np.random.default_rng(21)
        net = make_score_network(kind, d, 3, 3, 2, 2, seed=7, activation="sigmoid")
        x = rng.normal(size=(d, 3))
        upstream = rng.normal(size=2)
        assert self.finite_difference_worst_error(net, x, upstream) <= 1e-5

    def test_single_slot_separable_sum(self):
        rng = np.random.default_rng(22)
        net = make_score_network("cp", 1, 3, 3, 2, 2, seed=8, activation="sigmoid")
        x = rng.normal(size=(1, 3))
        assert self.finite_difference_worst_error(net, x, rng.normal(size=2)) <= 1e-5

    def test_zero_features_zero_core_gradients(self):
        # every gradient term contains each feature vector exactly once
        net = make_score_network("tt", 3, 2, 3, 2, 2, seed=2, activation="identity")
        net.feature_map.A[:] = 0.0
        net.feature_map.b[:] = 0.0
        grads = network_gradients(net, np.ones((3, 2)), np.array([1.0, -1.0]))
        assert all(not g.any() for g in grads.weight_grads)

    def test_zero_upstream_zero_gradients(self):
        net = make_score_network("cp", 3, 2, 3, 2, 2, seed=3)
        grads = network_gradients(net, np.ones((3, 2)), np.zeros(2))
        assert all(not np.asarray(g).any() for g in grads.weight_grads)
        assert not grads.dA.any() and not grads.db.any()

    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_input_order_respected(self, kind):
        net = make_score_network(kind, 4, 3, 3, 2, 2, seed=5, activation="sigmoid")
        net.input_order = (2, 0, 3, 1)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=2)
        assert self.finite_difference_worst_error(net, x, upstream) <= 1e-5



def einsum_tt_backward(tt, phi, upstream):
    """Chain gradients from three-operand einsums: left states L_k and
    right states R_k (the sensitivity entering core k), then their
    outer products with the feature."""
    d = tt.ndim
    lefts = [np.ones((phi.shape[0], 1))]
    for k in range(d - 1):
        lefts.append(np.einsum("ba,aic,bi->bc", lefts[-1], tt.cores[k], phi[:, k]))
    rights = [upstream]
    for k in range(d - 1, 0, -1):
        rights.insert(0, np.einsum("aic,bi,bc->ba", tt.cores[k], phi[:, k], rights[0]))
    grads = [np.einsum("ba,bi,bc->aic", lefts[k], phi[:, k], rights[k]) for k in range(d)]
    dphi = np.stack([np.einsum("ba,aic,bc->bi", lefts[k], tt.cores[k], rights[k])
                     for k in range(d)], axis=1)
    return grads, dphi


def einsum_cp_backward(cp, phi, upstream):
    """Separable-sum gradients from explicit leave-one-out products."""
    d = cp.ndim
    dots = [phi[:, k] @ cp.factors[k] for k in range(d - 1)]
    full = reduce(np.multiply, dots, np.ones((phi.shape[0], cp.rank)))
    head = np.einsum("bi,iry,by->br", phi[:, -1], cp.factors[-1], upstream)
    grads, dphi = [], np.empty_like(phi)
    for k in range(d - 1):
        others = reduce(np.multiply, dots[:k] + dots[k + 1:], np.ones_like(full))
        grads.append(np.einsum("bi,br,br->ir", phi[:, k], others, head))
        dphi[:, k] = np.einsum("br,ir,br->bi", others, cp.factors[k], head)
    grads.append(np.einsum("br,bi,by->iry", full, phi[:, -1], upstream)
                 .reshape(cp.factors[-1].shape))
    dphi[:, -1] = np.einsum("br,iry,by->bi", full, cp.factors[-1], upstream)
    return grads, dphi


def einsum_ht_backward(ht, phi, upstream):
    """Tree gradients: node outputs bottom-up, sensitivities top-down."""
    d, nodes = ht.ndim, ht.parameters()
    modes = [s[0] - 1 for s in ht_node_leaf_sets(d)[:d]]  # the mode each leaf reads
    outputs = [phi[:, p] @ leaf for p, leaf in zip(modes, ht.leaves)]
    for t in range(d - 1):
        left, right = outputs[2 * t], outputs[2 * t + 1]
        outputs.append(np.einsum("ba,bc,aco->bo", left, right, nodes[d + t]))
    grads, deltas = [None] * len(nodes), [None] * len(nodes)
    deltas[-1] = upstream
    for t in range(d - 2, -1, -1):
        left, right, delta = outputs[2 * t], outputs[2 * t + 1], deltas[d + t]
        grads[d + t] = np.einsum("ba,bc,bo->aco", left, right, delta)
        deltas[2 * t] = np.einsum("bc,aco,bo->ba", right, nodes[d + t], delta)
        deltas[2 * t + 1] = np.einsum("ba,aco,bo->bc", left, nodes[d + t], delta)
    dphi = np.empty_like(phi)
    for k, p in enumerate(modes):
        grads[k] = np.einsum("bi,ba->ia", phi[:, p], deltas[k])
        dphi[:, p] = deltas[k] @ ht.leaves[k].T
    return grads, dphi


class TestCpGradientDigests:
    """sha256 of CP gradient vectors at ranks 1, 3 and 8, each of three
    networks alone and then as one stack, recorded before the backward's
    suffix products moved into its gradient loop: the bits may not change."""

    DIGESTS = {
        2: "a67ff7f00090ae8d78fcba4d300cd83f6d4cffd45b3fcc97039c98b96d965c5c",
        3: "5f135964a972a7413caa15b6046364d4f6709656a637e47ab6668e7d9079aaa4",
        5: "5394a4d03f2a7722e4510c2578b06c0929141f93494ce2c2ca4eab732dbb22c5",
        25: "7ddaa99362fde46456adfb09dc3057c50294717c49eaadf90262c013a380e938",
    }

    @pytest.mark.parametrize("d", list(DIGESTS))
    def test_recorded_digest(self, d):
        rng = np.random.default_rng(d)
        batch = rng.normal(size=(6, d, 3))
        upstream = rng.normal(size=(3, 6, 4))
        digest = hashlib.sha256()
        for rank in (1, 3, 8):
            nets = [make_score_network("cp", d, 3, 4, rank, 4, seed=s, activation="sigmoid")
                    for s in (1, 2, 3)]
            for k, net in enumerate(nets):
                digest.update(net.backward(net.forward(batch)[1], upstream[k]).vector.tobytes())
            stack = stack_networks(nets)
            digest.update(stack.backward(stack.forward(batch)[1], upstream).vector.tobytes())
        assert digest.hexdigest() == self.DIGESTS[d]


class TestBackwardAgainstEinsum:
    """The batched backwards against the plain einsum closed forms, at the
    digit shape (25 patches of 64 pixels; also 16 for the tree) and at the
    toy shape (two one-pixel patches; also three for the tree)."""

    @pytest.mark.parametrize("kind, d, n, rank", [
        ("tt", 25, 64, 16), ("cp", 25, 64, 16), ("ht", 16, 64, 16), ("ht", 25, 64, 16),
        ("tt", 2, 1, 8), ("cp", 2, 1, 8), ("ht", 2, 1, 8), ("ht", 3, 1, 8),
    ])
    def test_matches_einsum_reference(self, kind, d, n, rank):
        net = make_score_network(kind, d, n, 4, rank, 10, seed=11)
        rng = np.random.default_rng(12)
        _, fp = net.forward(rng.normal(size=(32, d, n)))
        upstream = rng.normal(size=(32, 10))
        backward = {"tt": tt_backward, "cp": cp_backward, "ht": ht_backward}[kind]
        reference = {"tt": einsum_tt_backward, "cp": einsum_cp_backward,
                     "ht": einsum_ht_backward}[kind]
        grads, dphi = backward(net.weights, fp.phi, upstream, fp.states,
                               [np.empty_like(p) for p in net.weights.parameters()])
        ref_grads, ref_dphi = reference(net.weights, fp.phi, upstream)
        assert len(grads) == len(ref_grads)
        for got, want in zip([*grads, dphi], [*ref_grads, ref_dphi]):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestFlatParameterVector:
    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_arrays_and_gradients_are_views_of_one_vector(self, kind):
        net = make_score_network(kind, 4, 3, 3, 2, 2, seed=1)
        arrays = net.weights.parameters() + [net.feature_map.A, net.feature_map.b]
        assert net.vector.ndim == 1 and net.vector.flags.c_contiguous
        for a in arrays:
            assert np.shares_memory(a, net.vector)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]),
                                      net.vector)
        rng = np.random.default_rng(2)
        grads = network_gradients_batch(net, rng.normal(size=(5, 4, 3)),
                                        rng.normal(size=(5, 2)))
        grad_arrays = grads.weight_grads + [grads.dA, grads.db]
        assert grads.vector.shape == net.vector.shape
        for g in grad_arrays:
            assert np.shares_memory(g, grads.vector)
        np.testing.assert_array_equal(np.concatenate([g.ravel() for g in grad_arrays]),
                                      grads.vector)

    def test_vector_updates_reach_the_scores(self):
        # doubling A and b doubles every ReLU feature; with every factor
        # doubled too, each of the three dots grows fourfold
        net = make_score_network("cp", 3, 2, 3, 2, 2, seed=4)
        x = np.random.default_rng(3).normal(size=(3, 2))
        before = net.scores(x)
        assert before.any()
        net.vector *= 2.0
        np.testing.assert_array_equal(net.scores(x), 64.0 * before)
        net.vector[:] = 0.0
        assert not net.scores(x).any()

    def test_construction_copies_its_inputs(self):
        fm = FeatureMap(np.eye(2), np.zeros(2), "identity")
        w = TTTensor([np.ones((1, 2, 2)), np.ones((2, 2, 1))])
        first, second = ScoreNetwork(fm, w), ScoreNetwork(fm, w)
        first.vector[:] = 0.0
        assert not np.shares_memory(first.vector, second.vector)
        assert fm.A[0, 0] == 1.0 and w.cores[0][0, 0, 0] == 1.0
        np.testing.assert_array_equal(second.vector, np.concatenate(
            [w.cores[0].ravel(), w.cores[1].ravel(), fm.A.ravel(), fm.b]))


class TestSimilarityNetwork:
    def test_orthonormal_pairs(self):
        net = build_similarity_network(4, 2)
        x = np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]])
        np.testing.assert_allclose(net.scores(x), [1.0])

    def test_orthogonal_halves_give_zero(self):
        net = build_similarity_network(4, 2)
        x = np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])
        np.testing.assert_allclose(net.scores(x), [0.0], atol=1e-14)

    def test_two_slot_dot_product(self):
        rng = np.random.default_rng(17)
        net = build_similarity_network(2, 3)
        a, b = rng.normal(size=3), rng.normal(size=3)
        want = float(a @ b)
        got = float(net.scores(np.stack([a, b]))[0])
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_product_of_half_dots(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = rng.normal(size=(4, 3))
            net = build_similarity_network(4, 3)
            want = (x[0] @ x[2]) * (x[1] @ x[3])
            got = float(net.scores(x)[0])
            assert abs(got - want) <= 1e-11 * max(abs(want), 1e-3)

    def test_equivalent_shallow_network_needs_exponential_width(self):
        # the weight tensor of the similarity network certifies separable
        # rank >= n**(d/2) through its paired-mode matricization
        net = build_similarity_network(4, 3)
        dense = tt_to_dense(net.weights.class_tensor(0))
        assert cp_rank_lower_bound(dense, [odd_even_split(4)]) == 9

    def test_width_matches_mode_size(self):
        net = build_similarity_network(6, 2)
        assert net.weights.cores[0].shape[2] == 2


class TestConstruction:
    @pytest.mark.parametrize("rank,m", [(0, 4), (-1, 4), (2, 0)])
    def test_nonpositive_width_rejected(self, rank, m):
        with pytest.raises(ValueError, match="positive"):
            make_score_network("tt", 2, 1, m, rank, 2, seed=0)


class TestParameterCount:
    def test_smallest_chain(self):
        net = make_score_network("tt", 2, 1, 4, 1, 2, seed=0)
        core_params, total = count_parameters(net)
        assert core_params == 1 * 4 * 1 + 1 * 4 * 2 == 12
        assert total == 12 + 4 + 4


class TestStackedContractions:
    """A stack of K=3 independently drawn networks, contracted at once,
    gives bit for bit each network's own results."""

    @staticmethod
    def run_state(kind, index, state, k):
        # the separable sum keeps its dots and their products mode first
        return state[:, k] if kind == "cp" and index < 2 else state[k]

    @pytest.mark.parametrize("kind, d, n, rank", [
        ("tt", 25, 64, 16), ("cp", 25, 64, 16), ("ht", 16, 64, 16), ("ht", 25, 64, 16),
        ("tt", 2, 1, 8), ("cp", 2, 1, 8), ("ht", 2, 1, 8), ("ht", 3, 1, 8),
    ])
    def test_states_and_backward_match_each_network(self, kind, d, n, rank):
        nets = [make_score_network(kind, d, n, 4, rank, 10, seed=s) for s in (11, 12, 13)]
        rng = np.random.default_rng(14)
        batch = rng.normal(size=(32, d, n))
        upstream = rng.normal(size=(3, 32, 10))
        phi = np.stack([apply_feature_map(net.feature_map, batch) for net in nets])
        weights = stack_networks(nets).weights
        assert weights.lead == (3,)
        backward = {"tt": tt_backward, "cp": cp_backward, "ht": ht_backward}[kind]
        got_states = states(weights, phi)
        got_grads, got_dphi = backward(weights, phi, upstream, got_states,
                                       [np.empty_like(p) for p in weights.parameters()])
        for k, net in enumerate(nets):
            want_states = states(net.weights, phi[k])
            assert len(got_states) == len(want_states)
            for index, (got, want) in enumerate(zip(got_states, want_states)):
                np.testing.assert_array_equal(self.run_state(kind, index, got, k), want)
            want_grads, want_dphi = backward(
                net.weights, phi[k], upstream[k], want_states,
                [np.empty_like(p) for p in net.weights.parameters()])
            for got, want in zip([*got_grads, got_dphi], [*want_grads, want_dphi]):
                np.testing.assert_array_equal(got[k], want)

    @pytest.mark.parametrize("kind", ["tt", "cp", "ht"])
    def test_stacked_network_matches_each_network(self, kind):
        nets = []
        for seed in (1, 2, 3):
            net = make_score_network(kind, 4, 3, 3, 2, 2, seed=seed, activation="sigmoid")
            nets.append(ScoreNetwork(net.feature_map, net.weights, input_order=(2, 0, 3, 1)))
        stack = stack_networks(nets)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 4, 3))
        upstream = rng.normal(size=(3, 5, 2))
        scores, fp = stack.forward(batch)
        grads = stack.backward(fp, upstream)
        assert stack.vector.shape == (3, nets[0].vector.size)
        for k, net in enumerate(nets):
            np.testing.assert_array_equal(stack.vector[k], net.vector)
            want, want_fp = net.forward(batch)
            np.testing.assert_array_equal(scores[k], want)
            want_grads = net.backward(want_fp, upstream[k])
            np.testing.assert_array_equal(grads.vector[k], want_grads.vector)

    def test_mismatched_networks_rejected(self):
        with pytest.raises(ValueError, match="share"):
            stack_networks([make_score_network("tt", 2, 1, 4, 3, 2, seed=0),
                            make_score_network("tt", 2, 1, 4, 2, 2, seed=0)])
        with pytest.raises(ValueError, match="at least one"):
            stack_networks([])
