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

QR: the QR holds the columns of every matrix of the stack as contiguous
rows, so that a pivot swap moves whole rows (the entries of R above the
step's row move with them), and a step is 17 numpy calls on whole
blocks.  At step j one einsum gives the squared norms of the remaining
columns below row j; the largest, s**2, picks the pivot x.  With
``t = sign(x_0) * s`` (s taken from those norms), x is overwritten in
place by ``u = x + t e_1``, a sum without cancellation, so
``u^T u = 2 t u_0`` and ``H = I - u u^T / (t u_0)`` maps x to
``-t e_1``: one matmul gives ``w = B u`` for the remaining columns B,
one rank-1 update ``B -= (w / (t u_0)) u^T`` applies H, and
``r_jj = -t``.  This is LAPACK's dlarfg reflector up to the scale of u
(dlarfg stores ``u / u_0`` and ``tau = u_0 / t``), without dlarfg's
rule that a column already zero below the diagonal is left as it is:
such a column is reflected too, which flips the sign of its row of R
and changes no singular value and no bound.  Only a zero column (s = 0)
is guarded, by one ``np.where`` that divides w by 1 instead of 0; w is
0 there (every remaining entry squares to 0, so every product does
too), and the column is left as it is.  No step mixes the matrices of a
stack, so each gets bit for bit the R it gets alone.  On one core of an
Intel Xeon, with single-threaded BLAS, the QR of one 81x81 matrix takes
about 2.5 ms and that of a stack of sixty 27x27 ones about 2.9 ms
(process time, median over six runs of the best of 7 rounds).

Ranks: :func:`numerical_rank` counts the singular values above
``rel_tol * sigma_1``, but most ranks are proved before any Jacobi sweep,
from the R factor of the first pivoted QR alone (A scaled and, if wide,
transposed as below).  R has the singular values of A, and for every k

* ``sigma_k >= sigma_min(R[:k, :k]) >= 1 / ||R[:k, :k]^-1||_F``
  (deleting rows or columns lowers no singular value below that of the
  submatrix), read from the leading columns of R^-1, which about
  log2(k) batched products build for the whole stack;
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
about a twelfth of the time of the singular values (2.6 against 31 ms
for one 81x81 matrix, 3.4 against 46 ms for a stack of sixty 27x27
ones, measured as in "QR").  Callers that need the singular values
themselves call :func:`singular_values`.

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
def _round_gathers(n: int) -> tuple:
    """Jacobi round order for n >= 2 columns, all n*(n-1)/2 pairs a sweep.

    Circle method: one slot stays fixed and the rest rotate, giving n-1
    rounds of n/2 disjoint pairs (n padded to even with a sit-out slot).
    The kernel holds the columns of W as rows in the current round's
    order: the round's p columns, then its q columns (p < q) in the same
    pair order, then the sit-out column (odd n).  Returns the last round's
    order, in which every sweep starts and ends, and per round the gather
    index that takes the rows from the previous round's order to this
    round's.  Cached per n; the index arrays are read-only.
    """
    slots = [*range(n), *[-1] * (n % 2)]  # -1: the sit-out slot
    orders = []
    for _ in range(len(slots) - 1):
        pairs = [sorted(pair) for pair in zip(slots[: len(slots) // 2], slots[::-1])]
        ps, qs = ([pair[j] for pair in pairs if pair[0] >= 0] for j in (0, 1))
        orders.append(np.array(ps + qs + [q for p, q in pairs if p < 0], dtype=np.intp))
        slots = [slots[0], slots[-1], *slots[1:-1]]
    # argsort inverts a permutation: the position of each column before
    gathers = [np.argsort(before)[order] for before, order in zip([orders[-1], *orders], orders)]
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


def _pivoted_qr_r(rows: np.ndarray) -> np.ndarray:
    """R of the column-pivoted Householder QR ``A P = Q R`` of every
    matrix A of a stack whose columns are the rows of ``rows`` (S, n, m),
    n <= m; ``rows`` is overwritten.

    Returns the (S, n, n) upper-triangular factors.  Each step moves the
    remaining column of largest norm to the front and reflects it onto
    -sign(x_0) times its norm times e_1 (see the module docstring, "QR").
    """
    count, n, m = rows.shape
    mats = np.arange(count)
    for j in range(min(n, m - 1)):
        todo = rows[:, j:]
        norms = np.einsum("sij,sij->si", todo[:, :, j:], todo[:, :, j:])
        pivot = norms.argmax(axis=1)
        todo[mats, pivot], todo[:, 0] = todo[:, 0], todo[mats, pivot]
        norm2 = norms[mats, pivot]
        # the pivot column x becomes u = x + t e_1 in place, t = sign(x_0)
        # ||x||, and H = I - u u^T / (t u_0) maps x to -t e_1
        x = todo[:, 0, j:]
        t = np.copysign(np.sqrt(norm2), x[:, 0])
        x[:, 0] += t
        block = todo[:, 1:, j:]
        w = block @ x[:, :, None]
        # t u_0 > 0 unless the column is zero, whose w is 0: divide by 1
        w /= np.where(norm2 == 0.0, 1.0, t * x[:, 0])[:, None, None]
        block -= w * x[:, None, :]
        np.negative(t, out=x[:, 0])
    return np.triu(rows[:, :, :n].transpose(0, 2, 1))


def _first_r(stack: np.ndarray) -> np.ndarray:
    """R factors (S, k, k), k = min(m, n), of the pivoted QR of each
    matrix of a stack (S, m, n), or of its transpose if wide."""
    wide = stack.shape[1] < stack.shape[2]
    return _pivoted_qr_r(stack.copy() if wide else stack.transpose(0, 2, 1).copy())


def _preconditioned(stack: np.ndarray) -> np.ndarray:
    """Working matrices for the singular values of a stack (S, m, n): the
    transposed R factors of a second pivoted QR, of each first R's
    transpose.  Returns a new (S, k, k) array with k = min(m, n)."""
    # the columns of R^T are the rows of R
    return np.ascontiguousarray(_pivoted_qr_r(_first_r(stack)).transpose(0, 2, 1))


def _diagonal_blocks(x: np.ndarray, size: int) -> np.ndarray:
    """Writable view (S, k / size, size, size) of the diagonal blocks of
    each matrix of a C-contiguous stack x (S, k, k)."""
    step, row, col = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (x.shape[0], x.shape[1] // size, size, size),
        (step, size * (row + col), row, col))


def _inverse_column_norms(r: np.ndarray) -> np.ndarray:
    """Squared norms (S, k) of the columns of R^-1 for each upper-
    triangular R of a stack (S, k, k).  Column j reads only the leading
    block R[:j+1, :j+1], so the first j+1 sums add up to
    ``||R[:j+1, :j+1]^-1||_F**2``.  A zero or tiny pivot gives inf or nan
    from there on.

    R, padded with the identity to a power-of-two order, is inverted in
    place by doubling blocks: once the diagonal blocks A and D of every
    diagonal block [[A, B], [0, D]] hold their inverses, B becomes
    ``-A^-1 B D^-1``, two batched products per doubling.
    """
    count, k = r.shape[:2]
    size = 1 << (k - 1).bit_length()
    x = np.zeros((count, size, size))
    x[:, :k, :k] = r
    diagonal = np.arange(size)
    x[:, diagonal[k:], diagonal[k:]] = 1.0
    x[:, diagonal, diagonal] = 1.0 / x[:, diagonal, diagonal]
    half = 1
    while half < size:
        blocks = _diagonal_blocks(x, 2 * half)
        upper = blocks[..., :half, half:]
        np.negative(blocks[..., :half, :half] @ upper @ blocks[..., half:, half:], out=upper)
        half *= 2
    return np.einsum("sij,sij->sj", x, x)[:, :k]


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
