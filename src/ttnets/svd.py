"""Singular values and numerical ranks via one-sided Jacobi rotations.

The rank certificates produced by this package ultimately rest on the
singular values computed here, so they are computed in the repository
instead of by LAPACK.  One-sided Jacobi was chosen because it is short,
backward stable, and computes small singular values with high relative
accuracy on column-graded matrices.  Only the values are computed: no
singular vectors are accumulated.

Accuracy contract: for any finite matrix with min(m, n) <= 1024 the
singular values agree with LAPACK's to within ``1e-12 * sigma_1``; the
tests check this against LAPACK.  Relative accuracy reaches down to
``eps * ||M||_F``: a column of the working matrix at or below that norm
is indistinguishable from roundoff and gives an exact zero singular
value.

Jacobi: the working matrix W has no more columns than rows.  Each sweep
walks a round-robin schedule of disjoint column pairs; every pair
(p, q) with a non-negligible inner product is rotated so the two columns
become orthogonal; a pair whose smaller column has squared norm at or
below ``(eps * ||W||_F)**2`` counts as converged, and such columns are
zeroed once the sweeps end.  Because the pairs within one round are
disjoint the rotations commute and are applied vectorized.  The columns
are held as contiguous rows and moved, as in Brent & Luk's parallel
ordering (SIAM J. Sci. Stat. Comput. 1985), so that each round's p
columns fill the first half of the rows and its q columns, pair for
pair, the second half (an odd n's sit-out column comes last): a round
is one gather, then arithmetic on two contiguous halves.  Every pair of
the round is turned, an inactive one by the angle 0 (c = 1, s = 0),
which leaves its columns as they are (up to the sign of a zero entry).
On convergence the singular values are the column norms of W, and the
columns go back to their original order.

Stacks: the kernel works on a stack of S matrices of one shape, shape
(S, m, n), and :func:`singular_values` and :func:`numerical_rank` take
either one matrix or such a stack.  The rows of all matrices move
together, so one gather per round serves the whole stack.  Each matrix
keeps its own roundoff floor and its own active pairs, and a pair is
turned by a nonzero angle only where that matrix's own test finds it
not yet orthogonal; no rotation of one matrix depends on another, so
every matrix of a stack gets bit for bit the result it gets alone.  The
sweeps end once one rotates nothing in any matrix.

:func:`singular_values` preconditions with QR (Drmac & Veselic, "New
fast and accurate Jacobi SVD algorithm", SIAM J. Matrix Anal. Appl.
2008).  A column-pivoted Householder QR ``A P = Q R`` (written here, like
the rotations; A is transposed first if wide) is followed by a second
one, ``R^T P2 = Q2 R2``, and Jacobi runs on ``W = R2^T``.  R and R2 have
the singular values of A.  Pivoting makes the rows of each R decay, so
the columns of W start nearly orthogonal and far fewer sweeps are needed
than by Jacobi on A itself: on the 81x81 matricizations of random d=8,
n=r=3 chains 7-8 instead of 14-22 (one QR alone: 8-10), on the 27x27
ones at d=6, 6-7 instead of 10-13, each count including the last sweep,
which rotates nothing.
Householder QR is columnwise backward stable, and pivoting leaves W
graded by columns, so the accuracy contract above is unchanged, the
relative accuracy on graded columns included.

Ranks: :func:`numerical_rank` counts the singular values above
``rel_tol * sigma_1``, but most ranks are proved before any Jacobi sweep,
from the R factor of the first pivoted QR alone (A scaled and, if wide,
transposed as below).  R has the singular values of A, and for every k

* ``sigma_k >= sigma_min(R[:k, :k]) >= 1 / ||R[:k, :k]^-1||_F``
  (deleting rows or columns lowers no singular value below that of the
  submatrix), read from the leading columns of R^-1, which one column
  recursion builds for the whole stack;
* ``sigma_(k+1) <= ||R[k:, k:]||_F`` (zeroing R[k:, k:] leaves a matrix
  of rank k);
* ``max_j |r_jj| <= sigma_1 <= ||R||_F`` (each |r_jj| is at most the
  norm of a column of A).

A matrix gets rank k when ``1 / ||R[:k, :k]^-1||_F > 2 * rel_tol *
||R||_F`` and ``||R[k:, k:]||_F + k * eps * ||R||_F < rel_tol *
max_j |r_jj| / 2``.  Then sigma_k exceeds twice and sigma_(k+1) stays
below half the threshold, margins wider than the error of the computed
singular values, so counting those gives k too (the tests compare both
counts for rel_tol from 1e-14 to 0.5); at most one k passes, and the
zero matrix gets rank 0.  The matrices for which no k passes (a singular
value within a factor 2 of the threshold, or bounds too loose) go on,
as one stack, to :func:`singular_values`, which repeats their first QR,
and its values are counted.  On the 81x81 matricizations of random d=8,
n=r=3 chains the bounds decide nearly every rank, and a decision takes
about a tenth of the time of the singular values.  Callers that need
the singular values themselves call :func:`singular_values`.

Scale: both functions first scale each matrix by 2**-e, e the binary
exponent of its largest |entry|, and :func:`singular_values` scales the
values back by 2**e.  The squared column norms and the roundoff floor
then stay far from under- and overflow whatever the scale of the input
(unscaled, a matrix with entries near 1e-150 never converges and one
near 1e160 gets rank 0).
Every step of the kernel commutes with a power-of-two scaling, so the
results are bit for bit those of the unscaled computation wherever that
one stays in range.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["DEFAULT_REL_TOL", "numerical_rank", "singular_values"]

# Separates genuine rank deficiency from roundoff at the matrix sizes
# this package produces (<= 1024).
DEFAULT_REL_TOL = 1e-9

_PAIR_TOL = 1e-15
_MAX_SWEEPS = 64
_EPS = np.finfo(np.float64).eps


@functools.cache
def _round_robin_schedule(n: int) -> tuple:
    """Rounds of disjoint column pairs covering all n*(n-1)/2 pairs.

    Circle method: one slot stays fixed, the rest rotate, giving n-1
    rounds of n/2 pairs (n padded to even with a sit-out slot).  Cached
    per n; the index arrays are read-only.
    """
    slots = list(range(n))
    if n % 2:
        slots.append(-1)
    m = len(slots)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = slots[i], slots[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        pair = (np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp))
        for index in pair:
            index.setflags(write=False)
        rounds.append(pair)
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return tuple(rounds)


@functools.cache
def _round_gathers(n: int) -> tuple:
    """Row moves for the rounds of :func:`_round_robin_schedule` (n >= 2).

    The kernel holds the columns of W as rows in the current round's
    order: the round's p columns, then its q columns in the same pair
    order, then the sit-out column (odd n).  Returns the last round's
    order, in which every sweep starts and ends, and per round the gather
    index that takes the rows from the previous round's order to this
    round's.  Cached per n; the index arrays are read-only.
    """
    orders = []
    for ps, qs in _round_robin_schedule(n):
        paired = np.concatenate([ps, qs])
        orders.append(np.concatenate([paired, np.delete(np.arange(n), paired)]))
    gathers = []
    position = np.empty(n, dtype=np.intp)
    for before, order in zip([orders[-1], *orders], orders):
        position[before] = np.arange(n)
        gathers.append(position[order])
    for index in (orders[-1], *gathers):
        index.setflags(write=False)
    return orders[-1], tuple(gathers)


def _orthogonalize_columns(w: np.ndarray) -> int:
    """Run Jacobi sweeps in place on every matrix of the stack w (S, m, n)
    until all its column pairs are orthogonal.  Returns the number of
    sweeps run, the last of which rotated nothing."""
    n = w.shape[2]
    if n < 2:
        return 0
    start, gathers = _round_gathers(n)
    half = n // 2
    # Rotations preserve ||W||_F.  A column whose squared norm is at or
    # below this floor is roundoff; rotating it against its neighbours
    # never settles (a residue parallel to a large column shrinks by eps
    # per sweep until it stalls in subnormals), so a pair holding one
    # counts as converged and the column is zeroed at the end.
    floor = np.array([(_EPS * np.linalg.norm(x)) ** 2 for x in w])[:, None]
    rows = w.transpose(0, 2, 1).take(start, axis=1)
    turned = np.empty_like(rows[:, :half])
    product = np.empty_like(turned)
    for sweep in range(1, _MAX_SWEEPS + 1):
        rotated = False
        for gather in gathers:
            rows = rows.take(gather, axis=1)
            p_rows = rows[:, :half]
            q_rows = rows[:, half:2 * half]
            paired = rows[:, :2 * half]
            norms = np.einsum("sji,sji->sj", paired, paired)
            alpha = norms[:, :half]
            beta = norms[:, half:]
            gamma = np.einsum("sji,sji->sj", p_rows, q_rows)
            active = (np.abs(gamma) > _PAIR_TOL * np.sqrt(alpha * beta)) & \
                (np.minimum(alpha, beta) > floor)
            if not active.any():
                continue
            rotated = True
            # tan(theta) is the smaller root of t^2 + 2*zeta*t - 1 = 0,
            # the classical choice that guarantees sweep convergence;
            # t = 0 (c = 1, s = 0) leaves an inactive pair as it is, and
            # its gamma, which may be 0, is read as 1 to keep zeta finite.
            zeta = (beta - alpha) / (2.0 * np.where(active, gamma, 1.0))
            sign = np.where(zeta >= 0.0, 1.0, -1.0)
            t = np.where(active, sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), 0.0)
            c = (1.0 / np.sqrt(1.0 + t * t))[:, :, None]
            s = c * t[:, :, None]
            np.multiply(c, p_rows, out=turned)
            turned -= np.multiply(s, q_rows, out=product)
            q_rows *= c
            q_rows += np.multiply(s, p_rows, out=product)
            p_rows[...] = turned
        if not rotated:
            rows[np.einsum("sji,sji->sj", rows, rows) <= floor] = 0.0
            w.transpose(0, 2, 1)[:, start] = rows
            return sweep
    raise RuntimeError(
        f"Jacobi SVD did not converge within {_MAX_SWEEPS} sweeps "
        f"for a stack of {w.shape[0]} matrices of shape {w.shape[1:]}"
    )


def _pivoted_qr_r(a: np.ndarray) -> np.ndarray:
    """R of the column-pivoted Householder QR ``A P = Q R`` of every
    matrix of the stack a (S, m, n), m >= n, which is overwritten.

    Returns the (S, n, n) upper-triangular factors.  Each step moves the
    remaining column of largest norm to the front, then reflects it onto
    a multiple of e_1 as LAPACK's dlarfg does (no reflection when the
    part below the diagonal is already zero).
    """
    count, m, n = a.shape
    mats = np.arange(count)
    for j in range(min(n, m - 1)):
        rest = a[:, j:, j:]
        pivot = j + np.argmax(np.einsum("sij,sij->sj", rest, rest), axis=1)
        column = a[mats, :, pivot]
        a[mats, :, pivot] = a[:, :, j]
        a[:, :, j] = column
        head = a[:, j, j]
        tail = a[:, j + 1:, j]
        tail_norm = np.sqrt(np.einsum("si,si->s", tail, tail))
        flat = tail_norm == 0.0
        beta = np.where(flat, head, -np.copysign(np.hypot(head, tail_norm), head))
        # H = I - tau * u u^T with u = (1, tail / (head - beta))
        tau = np.where(flat, 0.0, (beta - head) / np.where(flat, 1.0, beta))
        u = tail / np.where(flat, 1.0, head - beta)[:, None]
        block = a[:, j:, j + 1:]
        proj = block[:, 0] + np.einsum("si,sij->sj", u, block[:, 1:])
        proj *= tau[:, None]
        block[:, 0] -= proj
        block[:, 1:] -= u[:, :, None] * proj[:, None, :]
        a[:, j, j] = beta
        a[:, j + 1:, j] = 0.0
    return a[:, :n]


def _first_r(stack: np.ndarray) -> np.ndarray:
    """R factors (S, k, k), k = min(m, n), of the pivoted QR of each
    matrix of a stack (S, m, n), or of its transpose if wide."""
    if stack.shape[1] < stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    return _pivoted_qr_r(stack.copy())


def _preconditioned(stack: np.ndarray) -> np.ndarray:
    """Working matrices for the singular values of a stack (S, m, n): the
    transposed R factors of a second pivoted QR, of each first R's
    transpose.  Returns a new (S, k, k) array with k = min(m, n)."""
    r = _pivoted_qr_r(np.ascontiguousarray(_first_r(stack).transpose(0, 2, 1)))
    return np.ascontiguousarray(r.transpose(0, 2, 1))


def _inverse_column_norms(r: np.ndarray) -> np.ndarray:
    """Squared norms (S, k) of the columns of R^-1 for each upper-
    triangular R of a stack (S, k, k).  Column j solves
    ``R[:j+1, :j+1] x = e_j`` and so reads only that leading block: the
    first j+1 sums add up to ``||R[:j+1, :j+1]^-1||_F**2``.  A zero or
    tiny pivot gives inf or nan from there on."""
    x = np.zeros_like(r)
    for j in range(r.shape[1]):
        x[:, j, j] = 1.0 / r[:, j, j]
        x[:, :j, j] = (x[:, :j, :j] @ r[:, :j, j, None])[:, :, 0] * -x[:, j, j, None]
    return np.einsum("sij,sij->sj", x, x)


def _proved_ranks(r: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks that the bounds read from the first R factors (S, k, k)
    prove, and a mask of the matrices for which they prove one (see the
    module docstring, "Ranks")."""
    count, k = r.shape[:2]
    # tail[:, j] = ||R[j:, j:]||_F for j = 0..k: the rows of R below j
    # are zero left of the diagonal
    tail = np.zeros((count, k + 1))
    rows = np.einsum("sij,sij->si", r, r)
    tail[:, :k] = np.sqrt(np.cumsum(rows[:, ::-1], axis=1)[:, ::-1])
    norm = tail[:, :1]
    top = np.abs(np.diagonal(r, axis1=1, axis2=2)).max(axis=1, initial=0.0)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lower = 1.0 / np.sqrt(np.cumsum(_inverse_column_norms(r), axis=1))
    # lower falls with k, so the k that passes both tests is the count of
    # lower bounds that pass
    ranks = np.count_nonzero(lower > 2.0 * rel_tol * norm, axis=1)
    upper = np.take_along_axis(tail, ranks[:, None], axis=1) + ranks[:, None] * _EPS * norm
    proved = (upper < 0.5 * rel_tol * top) | (norm == 0.0)
    return ranks, proved[:, 0]


def _scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack (S, m, n) times 2**-e, with e (S,) the
    binary exponent of its largest |entry| (0 for a zero matrix), so that
    entry lies in [0.5, 1); returns the new stack and e."""
    e = np.frexp(np.abs(stack).max(axis=(1, 2), initial=0.0))[1]
    return np.ldexp(stack, -e[:, None, None]), e


def _check_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D array or a 3-D stack, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def singular_values(a) -> np.ndarray:
    """Singular values, descending, of a matrix (m, n) or of each matrix
    of a stack (S, m, n); a stack gives an (S, min(m, n)) array."""
    a = _check_matrix(a)
    stack, e = _scaled(a if a.ndim == 3 else a[None])
    w = _preconditioned(stack)
    _orthogonalize_columns(w)
    sig = np.sqrt(np.einsum("sij,sij->sj", w, w))
    sig.sort(axis=1)
    sig = np.ldexp(sig[:, ::-1], e[:, None])
    return sig if a.ndim == 3 else sig[0]


def numerical_rank(a, rel_tol: float = DEFAULT_REL_TOL) -> int | np.ndarray:
    """Number of singular values above ``rel_tol * sigma_max``: an int
    for a matrix, an integer array with one rank per matrix for a stack.

    The rank is read from bounds on the R factor of one pivoted QR where
    they prove it; the other matrices of a stack go on, as one stack, to
    :func:`singular_values`, whose values are counted (see the module
    docstring, "Ranks").  Either way the rank is the count of the values
    :func:`singular_values` computes.  The zero matrix and a matrix with
    no rows or no columns have rank 0.  ``rel_tol`` must lie in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    a = _check_matrix(a)
    stack = a if a.ndim == 3 else a[None]
    ranks, proved = _proved_ranks(_first_r(_scaled(stack)[0]), rel_tol)
    if not proved.all():
        s = singular_values(stack[~proved])
        ranks[~proved] = np.count_nonzero(s > rel_tol * s[:, :1], axis=1)
    return int(ranks[0]) if a.ndim == 2 else ranks
