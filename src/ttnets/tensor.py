"""Dense tensor primitives: matricization, inner products, validation.

Conventions used across the package:

* A dense tensor is a C-contiguous ``float64`` :class:`numpy.ndarray`.
  The flat layout is row-major, i.e. the first index is slowest and the
  last index is fastest.
* Axes are labelled 1-based in user-facing arguments (``s = {1, 3}``
  selects the first and third mode), matching the usual mathematical
  notation for matricizations.
* A split (a matricization) is named by its row axes ``s`` alone: the
  matricization of ``x`` places the modes in ``s`` on the rows and the
  complement ``t`` on the columns.  Within each group the axes are taken
  in ascending order and the last one runs fastest, so the row index
  of ``(i_{s_1}, ..., i_{s_p})`` is ``sum_k i_{s_k} * prod_{l>k} n_{s_l}``
  (zero-based), and analogously for columns.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_dense",
    "inner_product",
    "matricize",
    "odd_even_split",
    "prefix_splits",
]


def as_dense(x, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array and check finiteness."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def odd_even_split(d: int) -> tuple[int, ...]:
    """The row axes ``(1, 3, ..., d-1)`` of the paired-mode matricization."""
    if d < 2 or d % 2:
        raise ValueError(f"odd/even split needs an even number of axes >= 2, got {d}")
    return tuple(range(1, d, 2))


def prefix_splits(d: int) -> list[range]:
    """The row axes ``{1..k}`` of the chain's matricizations, k = 1..d-1."""
    return [range(1, k + 1) for k in range(1, d)]


def matricize(x, rows) -> np.ndarray:
    """Reshape a tensor into its matricization with the given row axes.

    ``rows`` lists 1-based axes in any order, each at most once; the
    remaining axes are the columns, and each group keeps at least one
    axis.  The result has ``prod_{k in s} n_k`` rows and ``prod_{k in t}
    n_k`` columns, indexed as described in the module docstring.
    """
    x = as_dense(x)
    d = x.ndim
    s = sorted(int(a) for a in rows)
    for k, axis in enumerate(s):
        if not 1 <= axis <= d:
            raise ValueError(f"axis {axis} outside the valid range 1..{d}")
        if k and axis == s[k - 1]:
            raise ValueError(f"axis {axis} listed twice in split")
    if not 0 < len(s) < d:
        raise ValueError(f"a split needs at least one row axis and one column axis, "
                         f"got rows {tuple(s)} of axes 1..{d}")
    t = [a for a in range(1, d + 1) if a not in s]
    perm = [a - 1 for a in s + t]
    nrows = math.prod(x.shape[a - 1] for a in s)
    ncols = math.prod(x.shape[a - 1] for a in t)
    return np.ascontiguousarray(np.transpose(x, perm).reshape(nrows, ncols))


def inner_product(x, y) -> float:
    """Total sum of the entry-wise product of two equally shaped tensors."""
    x = as_dense(x, "x")
    y = as_dense(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.dot(x.ravel(), y.ravel()))
