"""Rank certificates and Monte-Carlo checks of the format separations.

Three claims are checked by sampling:

* ``theorem1``  -- almost every tensor train with modes n and ranks r has
  a paired-mode (odd rows / even columns) matricization of rank at least
  ``q**(d/2)`` with ``q = min(n, r)``; by the matricization lower bound
  this forces separable-sum (CP) rank >= ``q**(d/2)``.
* ``hypothesis1`` -- the same statement restricted to trains whose
  interior cores are all equal (the weight-shared, RNN-like class).
* ``ht-bounds`` -- rank transfer between the chain and tree formats:
  a train of rank r has tree ranks <= r**2, and a tree of rank r has
  train ranks <= r**ceil(log2(d)/2).

The tree-to-chain bound counts cut edges.  The prefix {1..k} is tiled by
a_k maximal subtrees and its complement by b_k; each meets the rest of
the tree through one edge of rank r, so the prefix matricization has rank
<= r**min(a_k, b_k).  Random trees reach the largest of these, at most
r**ceil(log2(d)/2): at d = 8 that is r**2, above the paper's r**1.5.

The verifiers differ only in the sampler, the splits (paired-mode; tree
nodes or prefixes) and whether the threshold is a floor (separations) or
a ceiling (bounds).  Each fills a :class:`RankReport` through one loop
recording, as :func:`cp_rank_lower_bound` does for one tensor, the
largest matricization rank over the splits of every sample.

"Almost every" is operationalized as "every Monte-Carlo sample
satisfies the bound"; a single failing sample is reported rather than
tolerated, since it far more likely signals a tolerance bug than a
measure-zero event.  Per-sample generator streams are derived from
(seed, sample index), so results do not depend on evaluation order.

The loop draws the samples in equal chunks of at most ``_STACK_BYTES``
of dense tensors and passes each split's matricizations of a chunk to
:func:`~ttnets.svd.numerical_rank` as one (S, rows, cols) stack.  It
proves most ranks from bounds on one pivoted QR per matrix and sends the
rest, as one stack per split and chunk, to the Jacobi SVD.  Every matrix
of a stack gets bit for bit the rank it gets alone (see
:mod:`ttnets.svd`), so batching changes no sample's result, whatever the
chunk size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .decompositions import (
    ht_node_leaf_sets,
    ht_random,
    ht_to_dense,
    tt_equal_cores_random,
    tt_random,
    tt_to_dense,
)
from .svd import DEFAULT_REL_TOL, numerical_rank
from .tensor import as_dense, matricize, odd_even_split

__all__ = [
    "CERT_REL_TOL",
    "REPORT_CSV_HEADER",
    "RankReport",
    "cp_rank_lower_bound",
    "sample_rng",
    "verify_ht_tt_bounds",
    "verify_hypothesis1",
    "verify_theorem1",
    "write_report_csv",
]

# Random core products accumulate conditioning: the smallest genuine
# singular value of the sampled matricizations drifts down to ~1e-11 of
# the largest (measured over ~10^4 samples at d=6), while double
# precision noise sits near 1e-15.  The certificate threshold lives in
# that gap and is recorded in every report.
CERT_REL_TOL = 1e-12

# Most bytes of sampled tensors whose matricizations go to the SVD as one
# stack.  The time per 27x27 matrix stops falling at about 0.2 MB of stack
# (30 matrices; 81x81 ones gain another 10% up to 0.5 MB), while the
# working copies of a stack add about five times its size to the peak
# memory.
_STACK_BYTES = 1 << 18

REPORT_CSV_HEADER = ["sample", "seed", "d", "n", "r", "q", "threshold", "observed_rank", "pass"]


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one sample, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def cp_rank_lower_bound(x, splits, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Max matricization rank over the given splits, and at least 1 for a
    nonzero tensor (the only bound left when there is no split, as for a
    one-mode tensor); 0 for the zero tensor.

    Every matricization of a separable sum with r terms has matrix rank
    at most r, so the returned value is a certified lower bound on the
    CP rank of ``x``.  ``rel_tol`` must lie in (0, 1), split or no split.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    x = as_dense(x)
    best = int(np.any(x != 0))
    for split in splits:
        best = max(best, numerical_rank(matricize(x, split), rel_tol))
    return best


@dataclass
class RankReport:
    """Per-sample matricization ranks of one (d, n, r) cell versus a threshold.

    With ``floor`` set a sample passes when its rank reaches the threshold
    (the separation claims); otherwise when its rank stays at or below it
    (the transfer bounds, whose threshold is the ``bound``).
    """

    d: int
    n: int
    r: int
    q: int
    threshold: int
    seed: int
    rel_tol: float
    floor: bool
    observed_ranks: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError(f"mode size n and rank r must be at least 1, "
                             f"got n={self.n} r={self.r}")

    def passes(self, rank: int) -> bool:
        return rank >= self.threshold if self.floor else rank <= self.threshold

    @property
    def num_samples(self) -> int:
        return len(self.observed_ranks)

    @property
    def num_satisfying(self) -> int:
        return sum(map(self.passes, self.observed_ranks))

    @property
    def bound(self) -> int:
        return self.threshold

    @property
    def observed_max(self) -> int:
        return max(self.observed_ranks, default=0)

    @property
    def violations(self) -> int:
        return self.num_samples - self.num_satisfying

    def rows(self):
        for i, rank in enumerate(self.observed_ranks):
            yield [i, self.seed, self.d, self.n, self.r, self.q, self.threshold,
                   rank, int(self.passes(rank))]


def write_report_csv(path, reports) -> None:
    """Write one or more reports to a single CSV file."""
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_HEADER)
        for report in reports:
            writer.writerows(report.rows())


def _sample_ranks(report: RankReport, num_samples: int, first: int, draw,
                  splits) -> RankReport:
    """Fill ``report``: sample i records the largest rank over ``splits``
    of ``draw(d, n, r, sample_rng(seed, first + i))``.  Each chunk of
    samples makes one :func:`numerical_rank` call per split."""
    num_samples = int(num_samples)
    if num_samples < 1:
        raise ValueError(f"need at least one sample, got {num_samples}")
    # equal chunks, as few as the budget allows
    chunks = -(-num_samples // max(1, _STACK_BYTES // (8 * report.n ** report.d)))
    chunk = -(-num_samples // chunks)
    for lo in range(first, first + num_samples, chunk):
        hi = min(lo + chunk, first + num_samples)
        dense = [draw(report.d, report.n, report.r, sample_rng(report.seed, i))
                 for i in range(lo, hi)]
        best = np.zeros(len(dense), dtype=int)
        for split in splits:
            stack = np.stack([matricize(x, split) for x in dense])
            best = np.maximum(best, numerical_rank(stack, report.rel_tol))
        report.observed_ranks.extend(best.tolist())
    return report


# The samplers: (d, n, r, generator) -> dense tensor.
def _chain(d: int, n: int, r: int, rng) -> np.ndarray:
    return tt_to_dense(tt_random((n,) * d, (r,) * (d - 1), rng))


def _equal_core_chain(d: int, n: int, r: int, rng) -> np.ndarray:
    return tt_to_dense(tt_equal_cores_random(d, n, r, rng))


def _tree(d: int, n: int, r: int, rng) -> np.ndarray:
    return ht_to_dense(ht_random((n,) * d, r, rng))


def _separation_report(d: int, n: int, r: int, seed: int, rel_tol: float) -> RankReport:
    q = min(n, r)
    return RankReport(d=d, n=n, r=r, q=q, threshold=q ** (d // 2), seed=int(seed),
                      rel_tol=rel_tol, floor=True)


def verify_theorem1(d: int, n: int, r: int, num_samples: int, seed: int,
                    rel_tol: float = CERT_REL_TOL) -> RankReport:
    """Sample Gaussian tensor trains and check the separation threshold."""
    d, n, r = int(d), int(n), int(r)
    if d < 2 or d % 2:
        raise ValueError(f"the separation check needs an even d >= 2, got {d}")
    return _sample_ranks(_separation_report(d, n, r, seed, rel_tol), num_samples, 0,
                         _chain, [odd_even_split(d)])


def verify_hypothesis1(d: int, n_range, r_range, samples_per_cell: int, seed: int,
                       rel_tol: float = CERT_REL_TOL) -> list[RankReport]:
    """Same check on the equal-interior-core class, one report per (n, r) cell."""
    d = int(d)
    if d < 4 or d % 2:
        raise ValueError(f"the equal-core check needs an even d >= 4, got {d}")
    if len(n_range) == 0 or len(r_range) == 0:
        raise ValueError("the n and r ranges must each hold at least one value")
    # every cell is built, and so checked, before any is sampled
    reports = [_separation_report(d, int(n), int(r), seed, rel_tol)
               for n in n_range for r in r_range]
    return [_sample_ranks(report, samples_per_cell, cell * 1_000_003, _equal_core_chain,
                          [odd_even_split(d)])
            for cell, report in enumerate(reports)]


def _prefix_cuts(d: int) -> list[int]:
    """min(a_k, b_k) for k = 1..d-1 (see the module docstring)."""
    sets = ht_node_leaf_sets(d) + [range(1, d + 1)]  # the root last
    # +1 inside the prefix, -1 inside its complement, 0 across; v's parent is d + v // 2
    sides = [[(max(s) <= k) - (min(s) > k) for s in sets] for k in range(1, d)]
    tops = [[side[v] for v in range(2 * d - 2) if side[d + v // 2] == 0] for side in sides]
    return [min(t.count(1), t.count(-1)) for t in tops]


def verify_ht_tt_bounds(d: int, n: int, r: int, num_samples: int, seed: int,
                        direction: str = "tt2ht",
                        rel_tol: float = CERT_REL_TOL) -> RankReport:
    """Check the chain<->tree rank transfer bounds on random samples.

    ``tt2ht``: samples rank-r trains, measures max tree-node rank,
    bound r**2 (every node set is a run of modes, cut off by two chain
    edges).  ``ht2tt``: samples trees with all node ranks r, measures max
    prefix rank, bound the largest r**min(a_k, b_k) over prefix splits k
    (see the module docstring and :func:`_prefix_cuts`).
    """
    d, n, r = int(d), int(n), int(r)
    if direction not in ("tt2ht", "ht2tt"):
        raise ValueError(f"direction must be 'tt2ht' or 'ht2tt', got {direction!r}")
    if direction == "tt2ht":
        bound, draw, splits = r * r, _chain, ht_node_leaf_sets(d)
    else:
        bound = r ** max(_prefix_cuts(d))
        draw, splits = _tree, [range(1, k + 1) for k in range(1, d)]
    report = RankReport(d=d, n=n, r=r, q=r, threshold=bound, seed=int(seed),
                        rel_tol=rel_tol, floor=False)
    return _sample_ranks(report, num_samples, 0, draw, splits)
