import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnets.tensor import inner_product, matricize, odd_even_split


class TestMatricize:
    def test_complement(self):
        x = np.arange(16.0).reshape(2, 2, 2, 2)
        np.testing.assert_array_equal(matricize(x, [1, 3]),
                                      np.transpose(x, (0, 2, 1, 3)).reshape(4, 4))

    def test_odd_even(self):
        assert odd_even_split(6) == (1, 3, 5)

    def test_unsorted_rows_give_the_sorted_result(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(matricize(x, (3, 1)), matricize(x, (1, 3)))

    def test_rejects_out_of_range_axis(self):
        with pytest.raises(ValueError, match="axis 5 outside the valid range 1..3"):
            matricize(np.zeros((2, 2, 2)), [1, 5])
        with pytest.raises(ValueError, match="axis 0 outside"):
            matricize(np.zeros((2, 2, 2)), [0])

    def test_rejects_duplicate_axis(self):
        with pytest.raises(ValueError, match="axis 2 listed twice"):
            matricize(np.zeros((2, 2, 2)), [2, 2])

    def test_rejects_empty_group(self):
        for rows in ([], [1, 2, 3], [3, 2, 1]):
            with pytest.raises(ValueError, match="at least one row axis and one column axis"):
                matricize(np.zeros((2, 2, 2)), rows)

    def test_prefix_split_rows(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        m = matricize(x, [1])
        assert m.shape == (2, 4)
        np.testing.assert_array_equal(m, [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_rank_one_tensor_has_rank_one_matricizations(self):
        v1, v2, v3 = np.array([1.0, 2.0]), np.array([3.0, -1.0, 2.0]), np.array([0.5, 4.0])
        x = np.multiply.outer(np.multiply.outer(v1, v2), v3)
        for s in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
            assert np.linalg.matrix_rank(matricize(x, s)) == 1

    def test_paired_delta_tensor_matricizes_to_identity(self):
        x = np.zeros((2, 2, 2, 2))
        for i1 in range(2):
            for i3 in range(2):
                x[i1, i1, i3, i3] = 1.0
        np.testing.assert_array_equal(matricize(x, [1, 3]), np.eye(4))


@st.composite
def shape_and_split(draw):
    d = draw(st.integers(2, 5))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(d))
    size = draw(st.integers(1, d - 1))
    s = tuple(draw(st.permutations(range(1, d + 1)))[:size])
    return shape, s


def _group_index(index, shape, axes):
    """Row-major index of ``index`` restricted to ``axes`` (last fastest)."""
    flat = 0
    for a in axes:
        flat = flat * shape[a - 1] + index[a - 1]
    return flat


@settings(max_examples=60, deadline=None)
@given(shape_and_split(), st.integers(0, 2**31 - 1))
def test_matricize_places_entries_by_the_index_formula(shape_split, seed):
    # entry (i_1..i_d) lands at row sum_k i_{s_k} prod_{l>k} n_{s_l} over the
    # sorted row axes s, and at the same formula's column over the complement
    shape, rows = shape_split
    s = sorted(rows)
    t = [a for a in range(1, len(shape) + 1) if a not in s]
    x = np.random.default_rng(seed).normal(size=shape)
    m = matricize(x, rows)
    assert m.shape == (int(np.prod([shape[a - 1] for a in s])),
                       int(np.prod([shape[a - 1] for a in t])))
    for index in np.ndindex(*shape):
        assert m[_group_index(index, shape, s), _group_index(index, shape, t)] == x[index]


@settings(max_examples=25, deadline=None)
@given(shape_and_split(), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_rank_invariant_under_axis_relabeling(shape_split, seed, perm_seed):
    # Relabeling the axes of the tensor and relabeling the split the same
    # way only permutes matrix rows/columns, so the rank cannot change.
    from ttnets.svd import numerical_rank

    shape, s = shape_split
    x = np.random.default_rng(seed).normal(size=shape)
    d = len(shape)
    perm = np.random.default_rng(perm_seed).permutation(d)
    y = np.transpose(x, perm)
    # old axis a (0-based) is new axis position of a in perm
    new_s = tuple(int(np.where(perm == a - 1)[0][0]) + 1 for a in s)
    r1 = numerical_rank(matricize(x, s))
    r2 = numerical_rank(matricize(y, new_s))
    assert r1 == r2


class TestInnerProduct:
    def test_unit_basis(self):
        e = np.zeros((2, 2, 2))
        e[0, 0, 0] = 1.0
        assert inner_product(e, e) == 1.0

    def test_arithmetic_series(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        assert inner_product(x, np.ones((2, 2, 2))) == 28.0

    def test_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 2))
        assert inner_product(x, np.zeros((3, 2))) == 0.0

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(7)
        x, y, z = (rng.normal(size=(3, 4, 2)) for _ in range(3))
        a, b = 1.7, -0.3
        assert inner_product(x, y) == inner_product(y, x)
        lhs = inner_product(x, a * y + b * z)
        rhs = a * inner_product(x, y) + b * inner_product(x, z)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            inner_product(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            inner_product(bad, bad)
