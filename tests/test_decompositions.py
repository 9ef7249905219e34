import itertools
import re

import numpy as np
import pytest

from ttnets.decompositions import (
    CPTensor,
    HTTensor,
    TTTensor,
    cp_random,
    cp_scores_from_features,
    cp_to_dense,
    entry,
    ht_leaf_modes,
    ht_node_leaf_sets,
    ht_random,
    ht_to_dense,
    ranks_from_dense,
    states,
    tt_delta_example,
    tt_equal_cores_random,
    tt_random,
    tt_scores_from_features,
    tt_to_dense,
)
from ttnets.svd import numerical_rank
from ttnets.tensor import matricize, odd_even_split


def hand_tt():
    # two modes, rank-1 chain: entries are products [1,2]_i * [3,4]_j
    g1 = np.array([1.0, 2.0]).reshape(1, 2, 1)
    g2 = np.array([3.0, 4.0]).reshape(1, 2, 1)
    return TTTensor((g1, g2))


class TestTTBasics:
    def test_hand_example_dense(self):
        np.testing.assert_array_equal(tt_to_dense(hand_tt()), [[3, 4], [6, 8]])

    def test_entry_matches_dense_everywhere(self):
        tt = tt_random((2, 3, 2, 3), (2, 3, 2), seed=5)
        dense = tt_to_dense(tt)
        for idx in itertools.product(*(range(n) for n in tt.shape)):
            e = entry(tt, idx)
            assert abs(e - dense[idx]) <= 1e-13 * max(abs(e), 1.0)

    def test_zero_cores_zero_entries(self):
        tt = TTTensor((np.zeros((1, 2, 2)), np.zeros((2, 2, 1))))
        assert entry(tt, (1, 1)) == 0.0
        assert not tt_to_dense(tt).any()

    def test_rank_one_chain_is_outer_product(self):
        v = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]), np.array([3.0, 1.0])]
        tt = TTTensor(tuple(x.reshape(1, 2, 1) for x in v))
        want = np.multiply.outer(np.multiply.outer(v[0], v[1]), v[2])
        np.testing.assert_allclose(tt_to_dense(tt), want)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            entry(hand_tt(), (0, 2))

    def test_rank_chain_validation(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            TTTensor((np.zeros((1, 2, 2)), np.zeros((3, 2, 1))))

    def test_dense_cap(self):
        tt = tt_random((10,) * 8, (1,) * 7, seed=0)
        with pytest.raises(ValueError, match="cap"):
            tt_to_dense(tt)


class TestTTRandom:
    def test_determinism(self):
        a = tt_random((2, 3, 2), (2, 2), seed=9)
        b = tt_random((2, 3, 2), (2, 2), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))

    def test_prefix_ranks_bounded_by_chain_ranks(self):
        tt = tt_random((2, 2, 2, 2), (2, 2, 2), seed=1)
        observed = ranks_from_dense(tt_to_dense(tt), "tt")
        assert np.all(observed <= np.array([2, 2, 2]))

    def test_rank_one_chain_separable(self):
        tt = tt_random((2, 3, 2), (1, 1), seed=2)
        dense = tt_to_dense(tt)
        for s in ([1], [2], [3], [1, 2]):
            assert numerical_rank(matricize(dense, s)) == 1


class TestDeltaChain:
    def test_closed_form_entries(self):
        for d, n, r in [(4, 2, 2), (4, 3, 2), (6, 2, 3)]:
            tt = tt_delta_example(d, n, r)
            dense = tt_to_dense(tt)
            for idx in itertools.product(*(range(n) for _ in range(d))):
                pairs = [(idx[k], idx[k + 1]) for k in range(0, d, 2)]
                want = 1.0 if all(a == b and a < r for a, b in pairs) else 0.0
                assert dense[idx] == want

    def test_chain_ranks(self):
        tt = tt_delta_example(6, 2, 2)
        assert tt.ranks == (2, 1, 2, 1, 2)

    def test_entry_at_origin(self):
        assert entry(tt_delta_example(6, 2, 2), (0,) * 6) == 1.0

    @pytest.mark.parametrize("d,n,r,expected", [(4, 2, 2, 4), (6, 3, 2, 8), (2, 2, 2, 2)])
    def test_paired_matricization_rank(self, d, n, r, expected):
        dense = tt_to_dense(tt_delta_example(d, n, r))
        mat = matricize(dense, odd_even_split(d))
        assert numerical_rank(mat) == expected

    def test_base_case_is_identity_matrix(self):
        np.testing.assert_array_equal(tt_to_dense(tt_delta_example(2, 2, 2)), np.eye(2))

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            tt_delta_example(3, 2, 2)


class TestEqualCores:
    def test_interior_cores_identical(self):
        tt = tt_equal_cores_random(6, 3, 2, seed=4)
        for k in range(2, 5):
            assert tt.cores[k] is tt.cores[1]

    def test_determinism(self):
        a = tt_equal_cores_random(5, 2, 2, seed=8)
        b = tt_equal_cores_random(5, 2, 2, seed=8)
        np.testing.assert_array_equal(tt_to_dense(a), tt_to_dense(b))

    def test_full_paired_rank_on_sampled_instances(self):
        for seed in (0, 1, 2):
            tt = tt_equal_cores_random(6, 3, 3, seed=seed)
            mat = matricize(tt_to_dense(tt), odd_even_split(6))
            assert numerical_rank(mat, 1e-12) == 27

    def test_needs_at_least_three_modes(self):
        with pytest.raises(ValueError):
            tt_equal_cores_random(2, 2, 2, seed=0)


class TestCP:
    def test_rank_one_outer_product(self):
        cp = CPTensor((np.array([[1.0], [2.0]]), np.array([[[3.0]], [[4.0]]])))
        np.testing.assert_array_equal(cp_to_dense(cp), [[3, 4], [6, 8]])

    def test_zero_factor_zero_tensor(self):
        cp = CPTensor((np.zeros((2, 3)), np.ones((2, 3, 1))))
        assert not cp_to_dense(cp).any()

    def test_identity_from_orthonormal_factors(self):
        cp = CPTensor((np.eye(2), np.eye(2)[:, :, None]))
        np.testing.assert_array_equal(cp_to_dense(cp), np.eye(2))

    def test_entry_matches_dense(self):
        cp = cp_random((2, 3, 2), 3, seed=6)
        dense = cp_to_dense(cp)
        for idx in itertools.product(range(2), range(3), range(2)):
            assert abs(entry(cp, idx) - dense[idx]) <= 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(cp_to_dense(cp_random((2, 2), 2, 3)),
                                      cp_to_dense(cp_random((2, 2), 2, 3)))

    def test_every_matricization_rank_bounded_by_r(self):
        # max over all splits of the matrix rank never exceeds the number
        # of separable terms
        for seed in range(4):
            r = 2
            cp = cp_random((2, 2, 2, 2), r, seed=seed)
            dense = cp_to_dense(cp)
            d = 4
            for size in range(1, d):
                for s in itertools.combinations(range(1, d + 1), size):
                    assert numerical_rank(matricize(dense, s)) <= r

    def test_chain_ranks_bounded_by_cp_rank(self):
        for seed in range(4):
            cp = cp_random((2, 3, 2, 3), 3, seed=seed)
            assert np.all(ranks_from_dense(cp_to_dense(cp), "tt") <= 3)

    def test_rank_one_all_matricizations(self):
        cp = cp_random((2, 2, 3), 1, seed=1)
        dense = cp_to_dense(cp)
        for s in ([1], [2], [3], [1, 2], [1, 3]):
            assert numerical_rank(matricize(dense, s)) == 1

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            CPTensor((np.zeros((2, 2)), np.zeros((2, 3, 1))))

    def test_legless_last_factor_rejected(self):
        # the last factor always carries the output leg, of 1 for a plain sum
        with pytest.raises(ValueError, match=r"\(n, r, C\)"):
            CPTensor((np.zeros((2, 3)), np.zeros((2, 3))))
        with pytest.raises(ValueError, match=r"\(n, r, C\)"):
            CPTensor([np.zeros((2, 3))])


class TestHT:
    def test_two_leaf_identity(self):
        root = np.zeros((2, 2, 1))
        root[:, :, 0] = np.eye(2)
        ht = HTTensor((np.eye(2), np.eye(2), root))
        np.testing.assert_array_equal(ht_to_dense(ht), np.eye(2))

    def test_entry_matches_dense(self):
        # d = 3..7 and 12 leaves; mixed mode sizes, so that a leaf reading
        # the wrong mode changes the shape
        for shape in [(2, 3, 2, 3), (2, 3, 4), (2, 3, 4, 2, 3), (2, 3, 4, 2, 3, 2),
                      (2, 3, 2, 2, 3, 2, 2), (2,) * 12]:
            ht = ht_random(shape, 2, seed=7)
            dense = ht_to_dense(ht)
            assert ht.shape == dense.shape == shape
            for idx in itertools.product(*map(range, shape)):
                assert abs(entry(ht, idx) - dense[idx]) <= 1e-12 * max(1.0, abs(dense[idx]))

    def test_all_leaf_ranks_one_separable(self):
        ht = ht_random((2, 2, 2, 2), 1, seed=3)
        dense = ht_to_dense(ht)
        for s in ([1], [2], [1, 2], [1, 3]):
            assert numerical_rank(matricize(dense, s)) <= 1

    def test_zero_root_zero_tensor(self):
        ht = ht_random((2, 2), 2, seed=1)
        ht.nodes[-1][:] = 0.0
        assert not ht_to_dense(ht).any()

    def test_determinism(self):
        np.testing.assert_array_equal(ht_to_dense(ht_random((2,) * 4, 2, 5)),
                                      ht_to_dense(ht_random((2,) * 4, 2, 5)))

    def test_eight_leaves_dense_is_finite(self):
        dense = ht_to_dense(ht_random((2,) * 8, 2, seed=11))
        assert np.all(np.isfinite(dense))

    def test_node_ranks_property_order(self):
        ht = ht_random((2, 2, 2, 2), [1, 2, 3, 4, 5, 6], seed=0)
        assert ht.node_ranks == (1, 2, 3, 4, 5, 6)

    def test_node_leaf_sets(self):
        assert ht_node_leaf_sets(4) == [(1,), (2,), (3,), (4,), (1, 2), (3, 4)]
        assert ht_node_leaf_sets(8)[-2:] == [(1, 2, 3, 4), (5, 6, 7, 8)]
        assert ht_node_leaf_sets(3) == [(2,), (3,), (1,), (2, 3)]
        for d in (3, 5, 6, 25):
            sets = ht_node_leaf_sets(d)
            assert len(sets) == 2 * d - 2
            assert all(s == tuple(range(s[0], s[0] + len(s))) for s in sets)
            assert sets[-2] + sets[-1] == tuple(range(1, d + 1))  # the root's children

    def test_leaf_modes_rotate_only_off_powers_of_two(self):
        assert all(ht_leaf_modes(2**L) == tuple(range(2**L)) for L in range(1, 7))
        assert ht_leaf_modes(3) == (1, 2, 0)
        assert ht_leaf_modes(25)[18] == 0  # (18 + 32) mod 25

    def test_one_leaf_is_not_a_tree(self):
        with pytest.raises(ValueError, match="d >= 2"):
            ht_random((2,), 2, seed=0)
        with pytest.raises(ValueError, match="d >= 2"):
            ht_node_leaf_sets(1)

    @pytest.mark.parametrize("count", [0, 1, 2, 4, 6])
    def test_node_count_must_be_2d_minus_1_with_d_a_power_of_two(self, count):
        # a count that is not 2d-1, or 1 node (d = 1); every d >= 2 is a tree
        with pytest.raises(ValueError, match=f"2d-1 nodes with d >= 2, got {count} nodes"):
            HTTensor([np.ones((2, 1))] * count)

    @pytest.mark.parametrize("count", [5, 11])
    def test_odd_node_counts_are_trees(self, count):
        # 5 and 11 nodes are 2d-1 for d = 3 and 6
        d = (count + 1) // 2
        ht = ht_random((2,) * d, 1, seed=0)
        assert len(HTTensor(ht.nodes).nodes) == count

    def test_three_way_leaf_rejected(self):
        nodes = ht_random((2, 2, 2, 2), 1, seed=0).nodes
        nodes[1] = np.ones((2, 1, 1))
        with pytest.raises(ValueError, match="node 1 is a leaf and must be 2-way"):
            HTTensor(nodes)

    def test_two_way_transfer_rejected(self):
        nodes = ht_random((2, 2, 2, 2), 1, seed=0).nodes
        nodes[5] = np.ones((1, 1))
        with pytest.raises(ValueError, match="node 5 is a transfer tensor and must be 3-way"):
            HTTensor(nodes)

    def test_child_rank_mismatch_names_the_node(self):
        nodes = ht_random((2, 2, 2, 2), 2, seed=0).nodes
        nodes[2] = np.ones((2, 3))
        with pytest.raises(ValueError, match=re.escape(
                "node 5 expects child ranks (3, 2) from nodes 2 and 3, got (2, 2)")):
            HTTensor(nodes)

    def test_nodes_are_leaves_then_bottom_up(self):
        ht = ht_random((2, 3, 2, 3), [1, 2, 3, 4, 5, 6], seed=0)
        assert [b.shape for b in ht.nodes] == [
            (2, 1), (3, 2), (2, 3), (3, 4), (1, 2, 5), (3, 4, 6), (5, 6, 1)]
        assert ht.ndim == 4 and len(ht.leaves) == 4
        assert all(leaf is node for leaf, node in zip(ht.leaves, ht.nodes))


class TestRanksFromDense:
    def test_rank_one_tensor(self):
        v = np.multiply.outer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        x = np.multiply.outer(v, np.array([1.0, -1.0]))
        assert np.all(ranks_from_dense(x, "tt") == 1)

    def test_delta_chain(self):
        dense = tt_to_dense(tt_delta_example(4, 2, 2))
        np.testing.assert_array_equal(ranks_from_dense(dense, "tt"), [2, 1, 2])

    def test_tree_ranks_of_random_tree(self):
        dense = ht_to_dense(ht_random((2, 2, 2, 2), 2, seed=9))
        assert np.all(ranks_from_dense(dense, "ht") <= 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="tt.*ht|'tt' or 'ht'"):
            ranks_from_dense(np.zeros((2, 2)), "tucker")


def with_leg(t, c, seed):
    """The same format with a Gaussian output leg of size c."""
    rng = np.random.default_rng(seed)
    if isinstance(t, TTTensor):
        last = t.cores[-1]
        return TTTensor((*t.cores[:-1], rng.normal(size=(last.shape[0], last.shape[1], c))))
    if isinstance(t, CPTensor):
        n = t.factors[-1].shape[0]
        return CPTensor((*t.factors[:-1], rng.normal(size=(n, t.rank, c))))
    root = t.nodes[-1]
    return HTTensor((*t.nodes[:-1], rng.normal(size=(*root.shape[:2], c))))


FORMATS = {
    "tt": (lambda: tt_random((2, 3, 2), (2, 3), seed=1), tt_scores_from_features,
           entry, tt_to_dense),
    "cp": (lambda: cp_random((2, 3, 2), 3, seed=2), cp_scores_from_features,
           entry, cp_to_dense),
    "ht": (lambda: ht_random((2, 3, 2, 3), 2, seed=3), lambda t, phi: states(t, phi)[-1],
           entry, ht_to_dense),
}


class TestOutputLeg:
    @pytest.mark.parametrize("kind", FORMATS)
    def test_leg_columns_are_class_tensors(self, kind):
        build, scores, entry, to_dense = FORMATS[kind]
        t = build()
        wide = with_leg(t, 3, seed=4)
        assert wide.num_classes == 3 and t.num_classes == 1
        rng = np.random.default_rng(5)
        phi = [rng.normal(size=(4, n)) for n in t.shape]
        got = scores(wide, phi)
        assert got.shape == (4, 3)
        for y in range(3):
            dense = to_dense(wide.class_tensor(y))
            want = [np.einsum(dense, list(range(t.ndim)),
                              *(x for k, p in enumerate(phi) for x in (p[b], [k])))
                    for b in range(4)]
            np.testing.assert_allclose(got[:, y], want, rtol=1e-12, atol=1e-12)
            idx = tuple(n - 1 for n in t.shape)
            assert entry(wide.class_tensor(y), idx) == pytest.approx(dense[idx], rel=1e-12)

    @pytest.mark.parametrize("kind", FORMATS)
    def test_class_tensor_keeps_a_leg_of_one(self, kind):
        t = with_leg(FORMATS[kind][0](), 3, seed=7)
        for y in range(3):
            one = t.class_tensor(y)
            assert one.num_classes == 1 and one.parameters()[-1].shape[-1] == 1
            np.testing.assert_array_equal(one.parameters()[-1][..., 0],
                                          t.parameters()[-1][..., y])

    @pytest.mark.parametrize("kind", FORMATS)
    def test_entries_and_dense_need_a_leg_of_size_one(self, kind):
        build, _scores, entry, to_dense = FORMATS[kind]
        t = build()
        wide = with_leg(t, 2, seed=6)
        with pytest.raises(ValueError, match="class_tensor"):
            entry(wide, (0,) * t.ndim)
        with pytest.raises(ValueError, match="class_tensor"):
            to_dense(wide)

    @pytest.mark.parametrize("kind", FORMATS)
    def test_parameters_are_the_stored_arrays(self, kind):
        build, _scores, _entry, to_dense = FORMATS[kind]
        t = build()
        params = t.parameters()
        assert len(params) == len(t.feature_axes())
        for p, axis in zip(params, t.feature_axes()):
            assert axis is None or p.shape[axis] in t.shape
        params[0][:] = 0.0  # in-place updates reach the tensor
        assert not to_dense(t).any()


class TestLeadingAxes:
    """Containers check the trailing axes of their arrays; leading axes,
    shared by every array, make a stack of tensors of one shape."""

    @pytest.mark.parametrize("make", [
        lambda s: tt_random((2, 3, 2), (2, 3), seed=s),
        lambda s: cp_random((2, 3, 2), 3, seed=s),
        lambda s: ht_random((2, 3, 2, 3), [1, 2, 3, 4, 5, 6], seed=s),
    ])
    def test_stack_reads_like_each_tensor(self, make):
        tensors = [make(s) for s in range(3)]
        stacked = type(tensors[0])([np.stack(a) for a in zip(*(t.parameters() for t in tensors))])
        one = tensors[0]
        assert one.lead == () and stacked.lead == (3,)
        assert (stacked.ndim, stacked.shape, stacked.num_classes) == \
            (one.ndim, one.shape, one.num_classes)
        assert stacked.feature_axes() == one.feature_axes()
        for k, t in enumerate(tensors):
            for a, b in zip(stacked.class_tensor(0).parameters(), t.class_tensor(0).parameters()):
                np.testing.assert_array_equal(a[k], b)

    def test_one_factor_stack_carries_its_leg(self):
        single = CPTensor([np.ones((4, 3, 2))])
        assert single.lead == () and (single.rank, single.num_classes) == (3, 2)
        stacked = CPTensor([np.ones((5, 4, 3, 2))])
        assert stacked.lead == (5,) and stacked.shape == (4,)

    def test_one_factor_stack_of_plain_sums(self):
        stacked = CPTensor([np.ones((5, 4, 3, 1))])
        assert stacked.lead == (5,) and (stacked.shape, stacked.rank) == ((4,), 3)
        assert stacked.num_classes == 1

    @pytest.mark.parametrize("arrays, cls", [
        ([np.ones((2, 1, 2, 3)), np.ones((3, 3, 2, 1))], TTTensor),
        ([np.ones((2, 2, 3)), np.ones((3, 2, 3, 1))], CPTensor),
        ([np.ones((2, 2, 1)), np.ones((2, 2, 1)), np.ones((3, 1, 1, 1))], HTTensor),
    ])
    def test_mismatched_leading_axes_rejected(self, arrays, cls):
        with pytest.raises(ValueError, match="leading axes"):
            cls(arrays)
