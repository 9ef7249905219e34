import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttnets import svd
from ttnets.decompositions import tt_delta_example, tt_random, tt_to_dense
from ttnets.svd import (
    _orthogonalize_columns,
    _round_gathers,
    numerical_rank,
    singular_values,
)
from ttnets.tensor import matricize, odd_even_split


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (17, 17), (40, 7), (64, 64)])
def test_matches_lapack_singular_values(shape):
    a = np.random.default_rng(hash(shape) % 2**32).normal(size=shape)
    ours = singular_values(a)
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12 * ref[0])


@pytest.mark.slow
def test_matches_lapack_at_largest_supported_size():
    a = np.random.default_rng(1024).normal(size=(1024, 1024))
    ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(singular_values(a), ref, rtol=0, atol=1e-12 * ref[0])


def test_rank_deficient_matrix():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 4)) @ rng.normal(size=(4, 30))
    assert numerical_rank(a) == 4
    s = singular_values(a)
    assert s[4] <= 1e-12 * s[0]


@pytest.mark.parametrize("rows", [(1, 2, 3, 4), (1, 2)])
def test_repeated_columns_converge(rows):
    # the (81, 9) and (9, 81) matricizations of the d=6 delta chain hold
    # identical columns; rotating them leaves roundoff-level columns that
    # must count as converged instead of being rotated forever
    dense = tt_to_dense(tt_delta_example(6, 3, 3))
    mat = matricize(dense, rows)
    assert numerical_rank(mat) == np.linalg.matrix_rank(mat) == 1
    s = singular_values(mat)
    ref = np.linalg.svd(mat, compute_uv=False)
    np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12 * ref[0])
    assert np.all(s[1:] == 0.0)


def test_columns_below_roundoff_floor_are_exact_zeros():
    # the second column's norm (1.4e-17) lies below eps * ||A||_F, the
    # level at which it cannot be told from roundoff: it is reported as an
    # exact zero singular value, never as a value from an unfinished
    # rotation
    a = np.array([[1.0, 1e-17], [0.0, 1e-17]])
    np.testing.assert_array_equal(singular_values(a), [1.0, 0.0])
    assert numerical_rank(a, 1e-14) == 1


def test_graded_singular_values_high_relative_accuracy():
    # Column-scaled matrices keep their tiny singular values representable,
    # and one-sided Jacobi recovers them to full relative precision.
    d = np.array([1.0, 1e-4, 1e-8, 1e-12])
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    a = q * d
    s = singular_values(a)
    np.testing.assert_allclose(s, d, rtol=1e-13)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-9) == 3

    def test_all_ones(self):
        assert numerical_rank(np.ones((4, 4)), 1e-9) == 1

    def test_threshold_is_relative(self):
        assert numerical_rank(np.diag([1.0, 1e-13]), 1e-9) == 1
        assert numerical_rank(np.diag([1.0, 1e-13]), 1e-14) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((5, 3))) == 0

    @pytest.mark.parametrize("shape,expected", [
        ((0, 3), 0), ((3, 0), 0), ((2, 0, 4), [0, 0]), ((0, 3, 3), []),
    ])
    def test_empty_inputs(self, shape, expected):
        rank = numerical_rank(np.zeros(shape))
        if isinstance(expected, int):
            assert type(rank) is int and rank == expected
        else:
            assert rank.shape == (len(expected),)
            np.testing.assert_array_equal(rank, expected)

    def test_one_by_one(self):
        assert numerical_rank(np.array([[3.0]])) == 1
        assert numerical_rank(np.array([[-1e-300]])) == 1
        assert numerical_rank(np.array([[0.0]])) == 0
        np.testing.assert_array_equal(numerical_rank(np.array([[[2.0]], [[0.0]]])), [1, 0])

    def test_stack_of_zero_matrices(self):
        np.testing.assert_array_equal(numerical_rank(np.zeros((3, 4, 5))), [0, 0, 0])
        np.testing.assert_array_equal(numerical_rank(np.zeros((2, 6, 2))), [0, 0])

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                numerical_rank(np.eye(2), tol)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            numerical_rank(np.array([[np.inf, 0.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(1e-12, 0.5), st.floats(1.0, 1e6))
    def test_monotone_non_increasing_in_tolerance(self, seed, tol, factor):
        a = np.random.default_rng(seed).normal(size=(6, 5))
        looser = min(tol * factor, 0.999)
        assert numerical_rank(a, looser) <= numerical_rank(a, tol)


def _rank_test_matrix(rng, kind, m, n, tol):
    k = min(m, n)
    if kind == "random":
        return rng.normal(size=(m, n))
    if kind == "low-rank":
        r = int(rng.integers(0, k + 1))
        return rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
    if kind == "graded":
        s = np.logspace(0, -16, k)
    else:  # near-threshold: the values after the first few at tol * [0.5, 2.5]
        s = np.ones(k)
        top = int(rng.integers(1, k + 1))
        s[top:] = tol * rng.uniform(0.5, 2.5, size=k - top)
    u, _ = np.linalg.qr(rng.normal(size=(m, k)))
    v, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return (u * s) @ v.T


class TestRankAgreesWithSingularValues:
    """numerical_rank reads most ranks from bounds on one pivoted QR's R
    and counts singular values only where the bounds are inconclusive;
    either way it must give the count of singular_values."""

    KINDS = ["random", "low-rank", "graded", "near-threshold"]

    @staticmethod
    def counted(a, tol):
        s = singular_values(a)
        return np.count_nonzero(s > tol * s[..., :1], axis=-1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(KINDS), st.integers(1, 30),
           st.integers(1, 30), st.floats(-14.0, np.log10(0.5)))
    def test_one_matrix(self, seed, kind, m, n, log_tol):
        tol = 10.0 ** log_tol
        a = _rank_test_matrix(np.random.default_rng(seed), kind, m, n, tol)
        assert numerical_rank(a, tol) == self.counted(a, tol)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
           st.integers(1, 30), st.integers(1, 30), st.floats(-14.0, np.log10(0.5)))
    def test_stack(self, seed, kinds, m, n, log_tol):
        tol = 10.0 ** log_tol
        rng = np.random.default_rng(seed)
        a = np.stack([_rank_test_matrix(rng, kind, m, n, tol) for kind in kinds])
        np.testing.assert_array_equal(numerical_rank(a, tol), self.counted(a, tol))

    def test_kahan_matrix_where_the_diagonal_of_r_misleads(self):
        # pivoted QR leaves Kahan's matrix as it is, so every |r_jj| is at
        # least 0.29 while sigma_min is 3.8e-4: only the bound through
        # R^-1 sees the small value, and at 1e-3 the rank is 29, not 30
        n, c = 30, 0.285
        kahan = np.diag(np.sqrt(1 - c * c) ** np.arange(n)) @ (
            np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        kahan *= (1 - 1e-6) ** np.arange(n)  # no ties in the pivoting
        assert singular_values(kahan)[-1] < 4e-4 and np.diag(kahan).min() > 0.29
        for tol in (1e-5, 1e-3):
            assert numerical_rank(kahan, tol) == self.counted(kahan, tol)
        assert numerical_rank(kahan, 1e-3) == 29

    def test_only_undecided_matrices_reach_the_singular_values(self, monkeypatch):
        # a singular value within a factor 2 of tol * sigma_1 keeps the
        # bounds from proving the rank; the other matrices' bounds do
        rng = np.random.default_rng(14)
        u, _ = np.linalg.qr(rng.normal(size=(12, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        near = (u * [1.0, 0.5, 0.25, 1.5e-9, 0, 0, 0, 0]) @ v.T
        mats = np.stack([
            rng.normal(size=(12, 8)),
            rng.normal(size=(12, 3)) @ rng.normal(size=(3, 8)),
            near,
            np.zeros((12, 8)),
            np.eye(12, 8) * np.arange(8, 0, -1),
        ])
        seen = []
        original = svd._values

        def recording(r):
            seen.append(np.array(r))
            return original(r)

        # the Jacobi stage starts from the first QR's R, not from the matrix
        monkeypatch.setattr(svd, "_values", recording)
        np.testing.assert_array_equal(numerical_rank(mats, 1e-9), [8, 3, 4, 0, 8])
        first_r = svd._first_r(svd._scaled(near[None])[0])
        assert len(seen) == 1 and seen[0].tobytes() == first_r.tobytes()
        seen.clear()
        assert numerical_rank(near, 1e-9) == 4 and len(seen) == 1
        assert [numerical_rank(m, 1e-9) for m in mats[[0, 1, 3, 4]]] == [8, 3, 0, 8]
        assert len(seen) == 1


def _stack_members():
    # five 81x9 matrices: random, the d=6 delta chain's rank-1
    # matricization with its repeated columns, diagonal, graded columns
    # down to 1e-15 (below the other matrices' roundoff floors, above its
    # own), and a small random one of rank 3
    rng = np.random.default_rng(81)
    delta = matricize(tt_to_dense(tt_delta_example(6, 3, 3)), (1, 2, 3, 4))
    q, _ = np.linalg.qr(rng.normal(size=(81, 9)))
    return [
        rng.normal(size=(81, 9)),
        delta,
        np.eye(81, 9) * np.arange(9, 0, -1),
        q * np.logspace(0, -15, 9),
        1e-6 * rng.normal(size=(81, 3)) @ rng.normal(size=(3, 9)),
    ]


class TestStacks:
    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_stack_matches_one_at_a_time_bit_for_bit(self, wide):
        mats = [m.T if wide else m for m in _stack_members()]
        stacked = singular_values(np.stack(mats))
        assert stacked.shape == (len(mats), 9)
        for row, mat in zip(stacked, mats):
            assert row.tobytes() == singular_values(mat).tobytes()

    def test_stack_matches_lapack(self):
        mats = np.stack(_stack_members())
        ref = np.linalg.svd(mats, compute_uv=False)
        np.testing.assert_allclose(singular_values(mats), ref, rtol=0,
                                   atol=1e-12 * ref[:, :1].max())

    def test_numerical_rank_per_matrix(self):
        # at 1e-10 the graded matrix keeps 6 of its singular values
        # 1, 10**-1.875, ..., 1e-15
        mats = np.stack(_stack_members() + [np.zeros((81, 9))])
        ranks = numerical_rank(mats, 1e-10)
        np.testing.assert_array_equal(ranks, [9, 1, 9, 6, 3, 0])
        assert [numerical_rank(m, 1e-10) for m in mats] == ranks.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anywhere_rejected(self, bad):
        mats = np.stack(_stack_members())
        mats[3, 80, 8] = bad
        with pytest.raises(ValueError, match="non-finite"):
            singular_values(mats)

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="ndim=4"):
            singular_values(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError, match="ndim=1"):
            numerical_rank(np.zeros(3))


def _qr_members():
    # the stack members, a zero matrix, a matrix with a zero column, and
    # an upper-triangular one with a dominant diagonal, whose pivot column
    # is zero below the diagonal at every step
    rng = np.random.default_rng(9)
    gap = rng.normal(size=(81, 9))
    gap[:, 4] = 0.0
    return _stack_members() + [
        np.zeros((81, 9)),
        gap,
        np.triu(rng.normal(size=(81, 9))) + np.eye(81, 9) * np.arange(90, 0, -10),
    ]


class TestFirstR:
    """The R factor of the first pivoted QR, on which the rank bounds rest."""

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_stack_matches_one_at_a_time_bit_for_bit(self, wide):
        mats = [m.T if wide else m for m in _qr_members()]
        stacked = svd._first_r(np.stack(mats))
        assert stacked.shape == (len(mats), 9, 9)
        for r, mat in zip(stacked, mats):
            assert r.tobytes() == svd._first_r(mat[None])[0].tobytes()

    def test_upper_triangular_with_non_increasing_diagonal(self):
        r = svd._first_r(np.stack(_qr_members()))
        np.testing.assert_array_equal(np.tril(r, -1), 0.0)
        diagonal = np.abs(np.diagonal(r, axis1=1, axis2=2))
        assert np.all(diagonal[:, 1:] <= diagonal[:, :-1])

    def test_singular_values_are_those_of_the_matrix(self):
        mats = np.stack(_qr_members())
        ref = np.linalg.svd(mats, compute_uv=False)
        got = np.linalg.svd(svd._first_r(mats), compute_uv=False)
        for s, s_ref in zip(got, ref):
            np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12 * s_ref[0])


def test_preconditioning_cuts_the_sweep_count(monkeypatch):
    # deterministic: on the 81x81 matricization of a random d=8, n=r=3
    # chain, singular_values' QR-preconditioned Jacobi converges in at most
    # 10 sweeps; the plain one on the scaled matrix itself takes 14-22
    kernel = svd._orthogonalize_columns
    sweeps = []

    def counting(w):
        sweeps.append(kernel(w))
        return sweeps[-1]

    monkeypatch.setattr(svd, "_orthogonalize_columns", counting)
    mat = matricize(tt_to_dense(tt_random((3,) * 8, (3,) * 7, seed=0)), odd_even_split(8))
    assert mat.shape == (81, 81)
    singular_values(mat)
    plain = kernel(svd._scaled(mat[None])[0])
    assert len(sweeps) == 1 and sweeps[0] <= 10 < plain


@pytest.mark.parametrize("n", [2, 3, 7, 8, 27, 81])
def test_round_gathers_follow_the_schedule(n):
    # replaying the gathers from the start order gives n-1 rounds (n for
    # odd n), each pairing its first-half columns p with its second-half
    # columns q, p < q, so that every pair comes once per sweep and the
    # sweep ends where it started; the arrays are cached and read-only
    start, gathers = _round_gathers(n)
    assert _round_gathers(n)[1] is gathers
    assert len(gathers) == n - 1 + n % 2
    half = n // 2
    order = start
    seen = []
    for gather in (start, *gathers):
        with pytest.raises(ValueError):
            gather[0] = 1
    for gather in gathers:
        order = order[gather]
        assert sorted(order.tolist()) == list(range(n))
        pairs = list(zip(order[:half].tolist(), order[half:2 * half].tolist()))
        assert all(p < q for p, q in pairs)
        seen += pairs
    np.testing.assert_array_equal(order, start)
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [7, 8])
def test_orthogonal_columns_come_back_bit_identical(n):
    # Sylvester-Hadamard columns are exactly orthogonal, so no pair is
    # rotated and one sweep leaves W as it was
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    w = np.stack([h[:, :n] * np.logspace(0, -3, n), h[:, ::-1][:, :n] * 2.0 ** -np.arange(n)])
    before = w.copy()
    assert _orthogonalize_columns(w) == 1
    assert w.tobytes() == before.tobytes()


class TestExtremeScales:
    """Each matrix is scaled by a power of two before the sweeps, so
    squared norms neither under- nor overflow, and the scaling is exact."""

    @pytest.mark.parametrize("scale", [1e-140, 1e-150, 1e-160, 1e-170, 1e160])
    def test_rank_matches_lapack(self, scale):
        a = np.random.default_rng(0).standard_normal((5, 5)) * scale
        assert numerical_rank(a) == np.linalg.matrix_rank(a) == 5
        ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(singular_values(a), ref, rtol=1e-12)

    @pytest.mark.parametrize("power", [-600, -9, 0, 7, 600])
    def test_power_of_two_scaling_is_exact(self, power):
        a = np.random.default_rng(1).standard_normal((3, 9, 6))
        scaled = np.ldexp(a, power)
        np.testing.assert_array_equal(singular_values(scaled), np.ldexp(singular_values(a), power))
        np.testing.assert_array_equal(singular_values(scaled[0]),
                                      np.ldexp(singular_values(a[0]), power))
