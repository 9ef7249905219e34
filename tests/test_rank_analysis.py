import hashlib

import numpy as np
import pytest

from ttnets import rank_analysis, svd
from ttnets.decompositions import (
    cp_random,
    cp_to_dense,
    tt_delta_example,
    tt_random,
    tt_to_dense,
)
from ttnets.rank_analysis import (
    RankReport,
    cp_rank_lower_bound,
    sample_rng,
    verify_ht_tt_bounds,
    verify_hypothesis1,
    verify_theorem1,
    write_report_csv,
)
from ttnets.tensor import matricize, odd_even_split


class TestLowerBound:
    def test_delta_chain_certificate(self):
        x = tt_to_dense(tt_delta_example(4, 2, 2))
        assert cp_rank_lower_bound(x, [odd_even_split(4)]) == 4

    def test_rank_one_tensor(self):
        x = np.multiply.outer(np.multiply.outer([1.0, 2.0], [1.0, 1.0]), [2.0, 3.0])
        splits = [[1], [2], [1, 2], [1, 3]]
        assert cp_rank_lower_bound(x, splits) == 1

    def test_random_chains_hit_threshold(self):
        for seed in range(3):
            x = tt_to_dense(tt_random((2,) * 4, (2,) * 3, seed=seed))
            assert cp_rank_lower_bound(x, [odd_even_split(4)], 1e-10) == 4

    def test_one_mode_tensor(self):
        # no split exists: a nonzero vector still has CP rank 1
        assert cp_rank_lower_bound(np.array([1.0, 2.0, 3.0]), []) == 1
        assert cp_rank_lower_bound(np.zeros(3), []) == 0

    def test_never_exceeds_known_separable_rank(self):
        for seed in range(5):
            r = 3
            x = cp_to_dense(cp_random((2, 3, 2, 2), r, seed=seed))
            splits = [[1], [2], [1, 2], [1, 3]]
            assert cp_rank_lower_bound(x, splits) <= r


class TestTheorem1:
    def test_small_run_all_satisfy(self):
        report = verify_theorem1(4, 2, 3, 10, seed=5)
        assert report.q == 2 and report.threshold == 4
        assert report.num_satisfying == report.num_samples == 10

    def test_two_mode_base_case(self):
        report = verify_theorem1(2, 2, 2, 10, seed=1)
        assert report.threshold == 2
        assert report.num_satisfying == 10

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError, match="even"):
            verify_theorem1(5, 2, 2, 1, seed=0)

    def test_deterministic_given_seed(self):
        a = verify_theorem1(4, 2, 2, 8, seed=42)
        b = verify_theorem1(4, 2, 2, 8, seed=42)
        assert a.observed_ranks == b.observed_ranks

    def test_delta_chain_rank_is_exactly_threshold(self):
        # deterministic witness, bypassing sampling
        from ttnets.svd import numerical_rank
        from ttnets.tensor import matricize

        for d, n, r in [(4, 2, 2), (4, 3, 3), (6, 2, 2), (6, 3, 2)]:
            q = min(n, r)
            mat = matricize(tt_to_dense(tt_delta_example(d, n, r)), odd_even_split(d))
            assert numerical_rank(mat) == q ** (d // 2)


class TestHypothesis1:
    def test_single_cell(self):
        (report,) = verify_hypothesis1(4, [2], [2], 20, seed=3)
        assert report.threshold == 4
        assert report.num_satisfying == 20

    @pytest.mark.parametrize("n_range,r_range,samples", [
        ([2, 3], [2], 0), ([2], [2], -1), ([], [2], 3), ([2], [], 3)],
        ids=["zero-samples", "negative-samples", "empty-n-range", "empty-r-range"])
    def test_nothing_to_check_rejected(self, n_range, r_range, samples):
        with pytest.raises(ValueError):
            verify_hypothesis1(6, n_range, r_range, samples, seed=0)

    def test_grid_of_cells(self):
        reports = verify_hypothesis1(4, [2, 3], [2, 3], 5, seed=9)
        assert [(r.n, r.r) for r in reports] == [(2, 2), (2, 3), (3, 2), (3, 3)]
        assert all(r.num_satisfying == r.num_samples for r in reports)


class TestBounds:
    def test_chain_to_tree(self):
        report = verify_ht_tt_bounds(4, 3, 2, 10, seed=2, direction="tt2ht")
        assert report.bound == 4
        assert report.observed_max <= 4 and report.violations == 0

    def test_tree_to_chain(self):
        report = verify_ht_tt_bounds(4, 3, 2, 10, seed=2, direction="ht2tt")
        assert report.bound == 2
        assert report.observed_max <= 2 and report.violations == 0

    @pytest.mark.parametrize("n, r, samples", [(2, 2, 5), (3, 2, 5), (3, 3, 5)])
    def test_tree_to_chain_at_eight_leaves_is_r_squared_and_reached(self, n, r, samples):
        # the prefix {1, 2, 3} cuts two subtree edges on each side
        report = verify_ht_tt_bounds(8, n, r, samples, seed=1, direction="ht2tt")
        assert report.bound == r ** 2
        assert report.violations == 0
        assert report.observed_ranks == [r ** 2] * samples

    def test_tree_to_chain_at_sixteen_leaves_is_reached(self):
        report = verify_ht_tt_bounds(16, 2, 2, 2, seed=1, direction="ht2tt")
        assert report.bound == 4
        assert report.violations == 0 and report.observed_max == 4

    def test_rank_one_both_directions(self):
        for direction in ("tt2ht", "ht2tt"):
            report = verify_ht_tt_bounds(4, 2, 1, 5, seed=0, direction=direction)
            assert report.observed_max <= 1 and report.violations == 0

    @pytest.mark.parametrize("d", [6, 12])
    def test_any_leaf_count_both_directions(self, d):
        for direction in ("tt2ht", "ht2tt"):
            report = verify_ht_tt_bounds(d, 2, 2, 3, seed=1, direction=direction)
            assert report.bound == 4
            assert report.violations == 0 and report.observed_max == 4

    def test_one_leaf_is_not_a_tree(self):
        with pytest.raises(ValueError, match="d >= 2"):
            verify_ht_tt_bounds(1, 2, 2, 1, seed=0)

    def test_cut_count_is_popcount_at_powers_of_two(self):
        # the prefix {1..k} of a balanced tree is popcount(k) subtrees
        for d in (2, 4, 8, 16, 32, 64):
            assert rank_analysis._prefix_cuts(d) == [
                min(bin(k).count("1"), bin(d - k).count("1")) for k in range(1, d)]

    def test_cut_count_stays_within_the_documented_bound(self):
        below = []
        for d in range(2, 65):
            limit = ((d - 1).bit_length() + 1) // 2  # ceil(log2(d) / 2)
            exponent = max(rank_analysis._prefix_cuts(d))
            assert exponent <= limit
            if exponent < limit:
                below.append(d)
        assert below == [5, 17, 18, 19]

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            verify_ht_tt_bounds(4, 2, 2, 1, seed=0, direction="sideways")


class TestReportCSV:
    def test_columns_and_rows(self, tmp_path):
        report = verify_theorem1(4, 2, 2, 4, seed=7)
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample,seed,d,n,r,q,threshold,observed_rank,pass"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:7] == ["0", "7", "4", "2", "2", "2", "4"]
        assert first[8] in ("0", "1")

    def test_multiple_reports_one_file(self, tmp_path):
        reports = verify_hypothesis1(4, [2], [2, 3], 3, seed=1)
        path = tmp_path / "cells.csv"
        write_report_csv(path, reports)
        assert len(path.read_text().splitlines()) == 1 + 6

    def test_bit_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, verify_theorem1(4, 2, 2, 6, seed=3))
        write_report_csv(p2, verify_theorem1(4, 2, 2, 6, seed=3))
        assert p1.read_bytes() == p2.read_bytes()

    # sha256 of report CSVs recorded with the earlier per-verifier sampling
    # loops: the verifiers must keep writing the same bytes.
    @pytest.mark.parametrize("run,digest", [
        (lambda: verify_theorem1(4, 2, 3, 10, seed=5),
         "f4ad1ed957900fb1cca45392612dc0ab7ced84b9e23819b608ca5df64cbb4d66"),
        (lambda: verify_hypothesis1(4, [2, 3], [2, 3], 5, seed=9),
         "f748935eef70c7d9b6b2821fafefc608a7884945c481c9a8835eb97522f4b8d0"),
        (lambda: verify_ht_tt_bounds(4, 3, 2, 10, seed=2, direction="tt2ht"),
         "49dd3667b8738a72dd0c4141262079092ed927c9bf4dd66e3dc18e4a016359bb"),
        (lambda: verify_ht_tt_bounds(4, 3, 2, 10, seed=2, direction="ht2tt"),
         "19d0f5f54c99b0d5f446469c03761fedf753a463fc30b1e62d2055b69c3e845f"),
        (lambda: verify_ht_tt_bounds(8, 2, 2, 3, seed=1, direction="ht2tt"),
         "cb96757fdee0ad4676065e9b71f3e879d8fbd87ad7a3a7913756d3c8cd486479"),
    ], ids=["theorem1", "hypothesis1-grid", "tt2ht", "ht2tt", "ht2tt-d8"])
    def test_recorded_digest(self, tmp_path, run, digest):
        path = tmp_path / "report.csv"
        write_report_csv(path, run())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestStackedSampling:
    RUNS = {
        "theorem1": lambda: [verify_theorem1(4, 2, 3, 9, seed=5)],
        "hypothesis1": lambda: verify_hypothesis1(4, [2, 3], [2], 5, seed=9),
        "tt2ht": lambda: [verify_ht_tt_bounds(4, 3, 2, 7, seed=2, direction="tt2ht")],
        "ht2tt-d8": lambda: [verify_ht_tt_bounds(8, 2, 2, 4, seed=1, direction="ht2tt")],
    }

    # 2000 bytes hold three n=3, d=4 samples: chunks of 3+2 and 3+3+1
    @pytest.mark.parametrize("budget", [1, 2000], ids=["one-per-chunk", "a-few-per-chunk"])
    @pytest.mark.parametrize("kind", list(RUNS))
    def test_chunk_budget_changes_no_rank(self, monkeypatch, kind, budget):
        whole = [r.observed_ranks for r in self.RUNS[kind]()]
        monkeypatch.setattr(rank_analysis, "_STACK_BYTES", budget)
        assert [r.observed_ranks for r in self.RUNS[kind]()] == whole

    @pytest.mark.parametrize("budget", [1, 2000, rank_analysis._STACK_BYTES],
                             ids=["one-per-chunk", "a-few-per-chunk", "default"])
    def test_each_sample_keeps_its_own_rank(self, monkeypatch, budget):
        def draw(d, n, r, rng):  # ranks that differ from sample to sample
            k = int(rng.integers(1, 6))
            return (rng.normal(size=(9, k)) @ rng.normal(size=(k, 9))).reshape(3, 3, 3, 3)

        # rank k on the first split, at most 3 on the second
        splits = [[1, 2], [1]]
        monkeypatch.setattr(rank_analysis, "_STACK_BYTES", budget)
        report = RankReport(d=4, n=3, r=1, q=1, threshold=9, seed=7, rel_tol=1e-12,
                            floor=False)
        rank_analysis._sample_ranks(report, 11, 5, draw, splits)
        expected = [cp_rank_lower_bound(draw(4, 3, 1, sample_rng(7, 5 + i)), splits, 1e-12)
                    for i in range(11)]
        assert report.observed_ranks == expected
        assert len(set(expected)) > 2

    @pytest.mark.parametrize("run,value", [
        (lambda: verify_theorem1(4, 0, 2, 3, seed=0), "n=0"),
        (lambda: verify_theorem1(4, 2, -1, 3, seed=0), "r=-1"),
        (lambda: verify_hypothesis1(4, [0], [2], 3, seed=0), "n=0"),
        (lambda: verify_hypothesis1(4, [2], [2, 0], 3, seed=0), "r=0"),
        (lambda: verify_ht_tt_bounds(4, 0, 2, 3, seed=0), "n=0"),
        (lambda: verify_ht_tt_bounds(4, 2, 0, 3, seed=0, direction="ht2tt"), "r=0"),
    ], ids=["theorem1-n", "theorem1-r", "hypothesis1-n", "hypothesis1-r", "tt2ht-n",
            "ht2tt-r"])
    def test_mode_size_and_rank_below_one_rejected(self, run, value):
        with pytest.raises(ValueError, match=value):
            run()

    def test_every_cell_checked_before_any_is_sampled(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(rank_analysis, "_sample_ranks",
                            lambda report, *args: sampled.append((report.n, report.r)))
        with pytest.raises(ValueError, match="r=0"):
            verify_hypothesis1(4, [2, 3], [2, 0], 3, seed=0)
        assert sampled == []

    def test_one_stacked_call_per_split_through_the_svd_module(self, monkeypatch):
        # the Jacobi stage runs once per split and chunk, on the first QR's
        # R factors of exactly the matrices whose ranks its bounds leave open
        seen = []
        original = svd._values

        def recording(r):
            seen.append(np.array(r))
            return original(r)

        monkeypatch.setattr(svd, "_values", recording)
        report = verify_ht_tt_bounds(4, 3, 2, 10, seed=2, direction="ht2tt")
        assert seen == []
        assert report.observed_ranks == [2] * 10
        assert all(isinstance(rank, int) for rank in report.observed_ranks)
        # sample 1 of the (4, 4) cell, the grid's last, has
        # sigma_min / sigma_max = 9.0e-13, within a factor 2 of the
        # tolerance 1e-12, so the bounds cannot prove its rank
        reports = verify_hypothesis1(6, [2, 3, 4], [2, 3, 4], 4, seed=2020003)
        undecided = rank_analysis._equal_core_chain(6, 4, 4,
                                                    sample_rng(2020003, 8 * 1_000_003 + 1))
        matrix = matricize(undecided, odd_even_split(6))[None]
        assert len(seen) == 1
        assert seen[0].tobytes() == svd._first_r(svd._scaled(matrix)[0]).tobytes()
        expected = [8] * 12 + [18] * 4 + [27] * 8 + [32] * 4 + [48] * 4 + [64, 63, 64, 64]
        assert sum((r.observed_ranks for r in reports), []) == expected
        assert sum(r.num_satisfying for r in reports) == 35


class TestRankReport:
    @staticmethod
    def report(floor):
        return RankReport(d=4, n=3, r=2, q=2, threshold=4, seed=0, rel_tol=1e-12,
                          floor=floor, observed_ranks=[3, 4, 5])

    def test_ceiling_admits_the_bound_itself(self):
        report = self.report(floor=False)
        assert report.bound == 4 and report.passes(4) and not report.passes(5)
        assert report.violations == 1 and report.observed_max == 5
        assert [row[-1] for row in report.rows()] == [1, 1, 0]

    def test_floor_rejects_one_below_the_threshold(self):
        report = self.report(floor=True)
        assert report.passes(4) and not report.passes(3)
        assert report.num_satisfying == 2 and report.violations == 1
        assert [row[-1] for row in report.rows()] == [0, 1, 1]
