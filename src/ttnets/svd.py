"""Singular value decomposition via one-sided Jacobi rotations.

The rank certificates produced by this package ultimately rest on the
singular values computed here, so the factorization is implemented in
the repository instead of delegating to LAPACK.  One-sided Jacobi was
chosen because it is short, backward stable, and computes small
singular values with high relative accuracy on column-graded matrices.

Accuracy contract: for any finite matrix with min(m, n) <= 1024 the
reconstruction ``U @ diag(s) @ Vt`` agrees with the input to within
``1e-12 * ||M||_F``.  The tests check this against LAPACK.  Relative
accuracy reaches down to ``eps * ||M||_F``: a column of the working
matrix at or below that norm is indistinguishable from roundoff and is
returned as an exact zero singular value whose column of U (row of Vt
for a wide matrix) is zero.

Algorithm: the working matrix W starts as a copy of A (transposed fresh
if A is wide, so columns are never longer than rows are many).  Each
sweep walks a round-robin schedule of disjoint column pairs; every pair
(p, q) with a non-negligible inner product is rotated so the two columns
become orthogonal; a pair whose smaller column has squared norm at or
below ``(eps * ||A||_F)**2`` counts as converged, and such columns are
zeroed once the sweeps end.  Because the pairs within one round are
disjoint the rotations commute and are applied vectorized.  On
convergence the singular values are the column norms of W, U the
normalized columns, and V the accumulated product of rotations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_REL_TOL", "jacobi_svd", "numerical_rank", "singular_values"]

# Separates genuine rank deficiency from roundoff at the matrix sizes
# this package produces (<= 1024).
DEFAULT_REL_TOL = 1e-9

_PAIR_TOL = 1e-15
_MAX_SWEEPS = 64


def _round_robin_schedule(n: int):
    """Rounds of disjoint column pairs covering all n*(n-1)/2 pairs.

    Circle method: one slot stays fixed, the rest rotate, giving n-1
    rounds of n/2 pairs (n padded to even with a sit-out slot).
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
        rounds.append((np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp)))
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return rounds


def _orthogonalize_columns(w: np.ndarray, v: np.ndarray | None) -> None:
    """Run Jacobi sweeps on w in place until all column pairs are orthogonal."""
    n = w.shape[1]
    if n < 2:
        return
    schedule = _round_robin_schedule(n)
    # Rotations preserve ||W||_F.  A column whose squared norm is at or
    # below this floor is roundoff; rotating it against its neighbours
    # never settles (a residue parallel to a large column shrinks by eps
    # per sweep until it stalls in subnormals), so a pair holding one
    # counts as converged and the column is zeroed at the end.
    floor = (np.finfo(np.float64).eps * np.linalg.norm(w)) ** 2
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for ps, qs in schedule:
            pc = w[:, ps]
            qc = w[:, qs]
            alpha = np.einsum("ij,ij->j", pc, pc)
            beta = np.einsum("ij,ij->j", qc, qc)
            gamma = np.einsum("ij,ij->j", pc, qc)
            active = (np.abs(gamma) > _PAIR_TOL * np.sqrt(alpha * beta)) & \
                (np.minimum(alpha, beta) > floor)
            if not np.any(active):
                continue
            rotated = True
            ps = ps[active]
            qs = qs[active]
            gamma = gamma[active]
            # tan(theta) is the smaller root of t^2 + 2*zeta*t - 1 = 0,
            # the classical choice that guarantees sweep convergence.
            zeta = (beta[active] - alpha[active]) / (2.0 * gamma)
            sign = np.where(zeta >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            pc = w[:, ps]
            qc = w[:, qs]
            w[:, ps] = c * pc - s * qc
            w[:, qs] = s * pc + c * qc
            if v is not None:
                pv = v[:, ps]
                qv = v[:, qs]
                v[:, ps] = c * pv - s * qv
                v[:, qs] = s * pv + c * qv
        if not rotated:
            w[:, np.einsum("ij,ij->j", w, w) <= floor] = 0.0
            return
    raise RuntimeError(
        f"Jacobi SVD did not converge within {_MAX_SWEEPS} sweeps "
        f"for a {w.shape} matrix"
    )


def _check_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(s) @ Vt`` with s sorted descending.

    U is m x k and Vt is k x n with k = min(m, n).  Columns of U that
    belong to an exactly zero singular value are returned as zeros.
    """
    a = _check_matrix(a)
    m, n = a.shape
    if m < n:
        u, s, vt = jacobi_svd(a.T)
        return vt.T, s, u.T
    w = a.copy()
    v = np.eye(n)
    _orthogonalize_columns(w, v)
    sig = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros_like(w)
    nonzero = sig > 0.0
    u[:, nonzero] = w[:, nonzero] / sig[nonzero]
    return u, sig, v.T


def singular_values(a) -> np.ndarray:
    """Singular values only (descending); skips accumulating U and V."""
    a = _check_matrix(a)
    w = (a.T if a.shape[0] < a.shape[1] else a).copy()
    _orthogonalize_columns(w, None)
    sig = np.sqrt(np.einsum("ij,ij->j", w, w))
    sig.sort()
    return sig[::-1]


def numerical_rank(a, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Number of singular values above ``rel_tol * sigma_max``.

    Returns 0 for the zero matrix.  ``rel_tol`` must lie in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
