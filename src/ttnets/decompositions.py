"""CP, tensor-train and hierarchical (binary-tree) tensor formats.

All three formats store a d-dimensional tensor through small factors:

* ``CPTensor`` -- a sum of r separable (rank-1) terms, one factor matrix
  per mode, the last carrying the output leg.
* ``TTTensor`` -- a chain of 3-way cores ``G_k`` of shape
  ``(r_{k-1}, n_k, r_k)`` with ``r_0 = 1``; an entry is the product
  ``G_1[1, i_1, :] @ G_2[:, i_2, :] @ ... @ G_d[:, i_d, :]``.
* ``HTTensor`` -- a full binary tree as one list of its 2d-1 nodes: the d
  leaf matrices, leaf k reading mode ``ht_leaf_modes(d)[k]``, then the
  transfer tensors bottom-up, root last; node d+t contracts 2t and 2t+1.

Each format ends in an output leg of size C, the class axis of a score
network: the last TT core is ``(r, n, C)``, the last CP factor is
``(n, r, C)`` and the HT root is ``(r_left, r_right, C)``.  So every
container's last parameter array is 3-way with the leg last, and the
leading axes, ``num_classes`` and ``class_tensor(y)`` are read off it the
same way for all three.  A plain tensor has C = 1; ``class_tensor(y)``
cuts a wider leg down to class y, keeping a leg of 1.
One batched contraction per format (``*_states``, picked by ``t.kind`` in
``states(t, phi)``) keeps the states of every step, the last being the
scores; ``entry(t, idx)`` is the scores at one-hot features.  A chain
core and a tree node are one bilinear unit, so ``tt_states`` and
``ht_states`` run every merge through ``_merge``, whose backward
``_merge_backward`` sits beside it.  Dense reconstruction keeps a
reshape-then-matmul form, far cheaper than contracting all prod(n)
one-hot inputs.

Each container is exactly its parameter list (cores, factors or nodes),
and ``type(t)(arrays)`` rebuilds one over other arrays in that order; a
score network uses this to lay its weights over views of one flat
parameter vector, which training updates in place.  Any parameter
arrays may carry the same leading axes (:attr:`lead`, read off the last
array), each container checking only the trailing ones: a ``(K, ...)``
stack of K tensors of one shape is one container, and ``*_states``
contracts all K at once.
Random sampling uses numpy's PCG64 generator seeded explicitly, so every
construction is reproducible across platforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .svd import DEFAULT_REL_TOL, numerical_rank
from .tensor import as_dense, matricize, prefix_splits

__all__ = [
    "CPTensor",
    "DENSE_CAP",
    "FORMATS",
    "HTTensor",
    "TTTensor",
    "cp_random",
    "cp_scores_from_features",
    "cp_states",
    "cp_to_dense",
    "entry",
    "ht_leaf_modes",
    "ht_node_leaf_sets",
    "ht_random",
    "ht_states",
    "ht_to_dense",
    "ranks_from_dense",
    "states",
    "tt_delta_example",
    "tt_equal_cores_random",
    "tt_random",
    "tt_scores_from_features",
    "tt_states",
    "tt_to_dense",
]

# Guardrail for dense reconstructions; experiments never need more.
DENSE_CAP = 10**7


def _float_arrays(arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.float64) for a in arrays]


def _check_lead(arrays, lead: tuple, what: str, first: int) -> None:
    """Every array of a container must carry the same leading axes."""
    for k, a in enumerate(arrays):
        if a.shape[: len(lead)] != lead:
            raise ValueError(f"{what} {k + first} has leading axes {a.shape[: len(lead)]}, "
                             f"expected {lead} like the first")


class _Format:
    """What the three containers share: the parameter list, named by
    ``_field``, whose last array is 3-way with the output leg last, so the
    leading axes, the leg size and the class tensors read it alike."""

    _field: str

    @property
    def lead(self) -> tuple[int, ...]:
        return getattr(self, self._field)[-1].shape[:-3]

    @property
    def num_classes(self) -> int:
        return getattr(self, self._field)[-1].shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        """The mode sizes, read at each array's feature axis."""
        return tuple(a.shape[axis] for a, axis in zip(self.parameters(), self.feature_axes())
                     if axis is not None)

    def class_tensor(self, y: int) -> _Format:
        """The d-way tensor of class y (a leg of size 1)."""
        if not 0 <= y < self.num_classes:
            raise IndexError(f"class y = {y} is outside 0..C-1 for C = {self.num_classes}")
        *rest, last = getattr(self, self._field)
        return type(self)((*rest, last[..., y : y + 1]))

    def parameters(self) -> list[np.ndarray]:
        return list(getattr(self, self._field))


@dataclass
class TTTensor(_Format):
    """Tensor-train format: a chain of 3-way cores, the last one (r, n, C)."""

    cores: list[np.ndarray]

    kind = "tt"
    _field = "cores"

    def __post_init__(self):
        if len(self.cores) < 1:
            raise ValueError("a TT tensor needs at least one core")
        self.cores = _float_arrays(self.cores)
        lead = self.lead
        for k, core in enumerate(self.cores):
            if core.ndim != len(lead) + 3:
                raise ValueError(f"core {k + 1} must be 3-way, got shape {core.shape}")
        _check_lead(self.cores, lead, "core", 1)
        if self.cores[0].shape[-3] != 1:
            raise ValueError("boundary rank r_0 must equal 1")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[-1] != self.cores[k + 1].shape[-3]:
                raise ValueError(
                    f"rank mismatch between cores {k + 1} and {k + 2}: "
                    f"{self.cores[k].shape[-1]} vs {self.cores[k + 1].shape[-3]}"
                )

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(c.shape[-1] for c in self.cores[:-1])

    def feature_axes(self) -> list[int | None]:
        """Axis of each array in :meth:`parameters` that indexes the
        mode (feature), counted from the end so that leading axes do not
        move it, or None for an array that reads no feature."""
        return [-2] * len(self.cores)


@dataclass
class CPTensor(_Format):
    """Separable-sum format: one (n_k, r) factor matrix per mode, the last
    one (n, r, C) with the output leg."""

    factors: list[np.ndarray]

    kind = "cp"
    _field = "factors"

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a CP tensor needs at least one factor")
        self.factors = _float_arrays(self.factors)
        *modes, last = self.factors
        if last.ndim < 3:
            raise ValueError(f"the last CP factor carries the output leg and must be "
                             f"(n, r, C), got shape {last.shape}")
        lead = len(self.lead)
        if any(f.ndim != lead + 2 for f in modes) or \
                len({f.shape[lead + 1] for f in self.factors}) != 1:
            raise ValueError("CP factors before the last must be (n, r) matrices, "
                             "all of the last factor's width r")
        _check_lead(self.factors, self.lead, "factor", 1)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[-1].shape[-2]

    def feature_axes(self) -> list[int | None]:
        return [-2] * (self.ndim - 1) + [-3]


@dataclass
class HTTensor(_Format):
    """Full-binary-tree format: 2d-1 nodes in contraction order.

    ``nodes[:d]`` are the (n, r_k) leaf matrices, leaf k reading mode
    ``ht_leaf_modes(d)[k]``; the rest are the (r_left, r_right, r_out)
    transfer tensors bottom-up and left to right, so internal node d+t
    merges nodes 2t and 2t+1 and the root comes last, its r_out the leg size C.
    """

    nodes: list[np.ndarray]

    kind = "ht"
    _field = "nodes"

    def __post_init__(self):
        self.nodes = _float_arrays(self.nodes)
        d = self.ndim
        if len(self.nodes) != 2 * d - 1 or d < 2:
            raise ValueError(f"a tree needs 2d-1 nodes with d >= 2, got {len(self.nodes)} nodes")
        lead = self.lead
        for k, leaf in enumerate(self.nodes[:d]):
            if leaf.ndim != len(lead) + 2:
                raise ValueError(f"node {k} is a leaf and must be 2-way, got shape {leaf.shape}")
        for t, b in enumerate(self.nodes[d:]):
            if b.ndim != len(lead) + 3:
                raise ValueError(f"node {d + t} is a transfer tensor and must be 3-way, "
                                 f"got shape {b.shape}")
        _check_lead(self.nodes, lead, "node", 0)
        for t, b in enumerate(self.nodes[d:]):
            ranks = (self.nodes[2 * t].shape[-1], self.nodes[2 * t + 1].shape[-1])
            if b.shape[-3:-1] != ranks:
                raise ValueError(f"node {d + t} expects child ranks {ranks} from nodes "
                                 f"{2 * t} and {2 * t + 1}, got {b.shape[-3:-1]}")

    @property
    def ndim(self) -> int:
        return (len(self.nodes) + 1) // 2

    @property
    def leaves(self) -> list[np.ndarray]:
        return self.nodes[: self.ndim]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, n in sorted(zip(ht_leaf_modes(self.ndim), super().shape)))

    @property
    def node_ranks(self) -> tuple[int, ...]:
        """Output sizes of all non-root nodes: leaves first, then bottom-up."""
        return tuple(b.shape[-1] for b in self.nodes[:-1])

    def feature_axes(self) -> list[int | None]:
        return [-2] * self.ndim + [None] * (self.ndim - 1)


# The container class of each format, by its ``kind``.
FORMATS = {cls.kind: cls for cls in (TTTensor, CPTensor, HTTensor)}


# ---------------------------------------------------------------------------
# contractions with one feature vector per mode (batched)
#
# ``phi`` is a (..., B, d, n) array, or a sequence of d (..., B, n_k) arrays
# when the mode sizes differ.  ``*_states`` keeps every intermediate of the
# one contraction for the gradients; the scores (..., B, C) are its last
# entry.  The leading axes ``...`` are those of the tensor (:attr:`lead`):
# a stack of K tensors, each parameter array (K, ...), contracted with K
# feature batches (K, B, d, n) takes one pass.  Every product acts on the
# same 2-D slices as for one tensor alone, so each of the K results is bit
# for bit the one that tensor gives alone.


def _modes(phi):
    """The mode axis of a feature array moved to the front (a view)."""
    if not isinstance(phi, np.ndarray):
        return phi
    return phi.transpose(phi.ndim - 2, *range(phi.ndim - 2), phi.ndim - 1)


def _merge(x, y, node):
    """The bilinear merge ``(x o y) node`` of a chain core, x the running
    state and y the feature, or of a tree node, x and y its children:
    x (..., B, a) and y (..., B, c) through node (..., a, c, o) give
    (..., B, o).  The node is read as (a, c*o), so x mixes in by one
    matrix product and y contracts after it."""
    *lead, a, c, o = node.shape
    mixed = x @ node.reshape(*lead, a, c * o)
    return np.einsum("...bco,...bc->...bo", mixed.reshape(*mixed.shape[:-1], c, o), y)


def _merge_backward(x, y, node, delta, grad):
    """Backward of :func:`_merge`: writes grad node = (x o y)^T delta into
    ``grad`` and returns the sensitivities of x and y, both from the one
    mixed stack delta node^T, with the node read as (a*c, o)."""
    *lead, a, c, o = node.shape
    outer = x[..., :, None] * y[..., None, :]
    np.matmul(outer.reshape(*x.shape[:-1], a * c).swapaxes(-1, -2), delta,
              out=grad.reshape(*lead, a * c, o))
    mixed = (delta @ node.reshape(*lead, a * c, o).swapaxes(-1, -2)).reshape(*x.shape[:-1], a, c)
    return (mixed @ y[..., :, None])[..., 0], (x[..., None, :] @ mixed)[..., 0, :]


def tt_states(tt: TTTensor, phi) -> list[np.ndarray]:
    """Recurrent pass: the running state (..., B, r_k) after every core;
    the last one is the (..., B, C) scores."""
    phi = _modes(phi)
    states = [phi[0] @ tt.cores[0][..., 0, :, :]]
    for k in range(1, tt.ndim):
        states.append(_merge(states[-1], phi[k], tt.cores[k]))
    return states


def cp_states(cp: CPTensor, phi) -> list[np.ndarray]:
    """Shallow pass: the per-mode dots (d-1, ..., B, r), their running
    products (d, ..., B, r; entry k multiplies the first k dots), the
    output-leg product (..., B, r, C) and, last, the (..., B, C) scores."""
    phi = _modes(phi)
    last = np.einsum("...bm,...mrc->...brc", phi[-1], cp.factors[-1])
    dots = np.empty((cp.ndim - 1, *last.shape[:-1]))
    prods = np.empty((cp.ndim, *last.shape[:-1]))
    prods[0] = 1.0
    for k, factor in enumerate(cp.factors[:-1]):
        np.matmul(phi[k], factor, out=dots[k])
        np.multiply(prods[k], dots[k], out=prods[k + 1])
    return [dots, prods, last, np.einsum("...br,...brc->...bc", prods[-1], last)]


def ht_states(ht: HTTensor, phi) -> list[np.ndarray]:
    """Tree pass: the output of every node, in :attr:`HTTensor.nodes`
    order (leaves, then bottom-up), so the (..., B, C) root is last.
    Internal node d+t merges the outputs of nodes 2t and 2t+1."""
    phi = _modes(phi)
    outputs = [phi[p] @ leaf for p, leaf in zip(ht_leaf_modes(ht.ndim), ht.leaves)]
    for t, b in enumerate(ht.nodes[ht.ndim:]):
        outputs.append(_merge(outputs[2 * t], outputs[2 * t + 1], b))
    return outputs


def tt_scores_from_features(tt: TTTensor, phi) -> np.ndarray:
    return tt_states(tt, phi)[-1]


def cp_scores_from_features(cp: CPTensor, phi) -> np.ndarray:
    return cp_states(cp, phi)[-1]


def states(t: TTTensor | CPTensor | HTTensor, phi) -> list[np.ndarray]:
    """The states of ``t``'s own contraction, looked up by its kind."""
    return {"tt": tt_states, "cp": cp_states, "ht": ht_states}[t.kind](t, phi)


# ---------------------------------------------------------------------------
# entries and dense reconstruction (a leg of size 1)


def _check_scalar(t) -> None:
    if t.num_classes != 1:
        raise ValueError(f"the output leg has size {t.num_classes}; "
                         "take class_tensor(y) for one class first")


def _one_hot(t, idx) -> list[np.ndarray]:
    """One-hot features (1, n_k) selecting index idx of every mode."""
    _check_scalar(t)
    idx = tuple(int(i) for i in idx)
    if len(idx) != t.ndim:
        raise IndexError(f"index has {len(idx)} entries for a {t.ndim}-way tensor")
    for k, (i, n) in enumerate(zip(idx, t.shape)):
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for mode {k + 1} of size {n}")
    return [np.eye(1, n, i) for n, i in zip(t.shape, idx)]


def _check_dense(t) -> None:
    _check_scalar(t)
    size = math.prod(t.shape)
    if size > DENSE_CAP:
        raise ValueError(
            f"dense reconstruction of shape {t.shape} has {size} entries, "
            f"exceeding the cap of {DENSE_CAP}"
        )


def entry(t: TTTensor | CPTensor | HTTensor, idx) -> float:
    """One entry: the tensor contracted with one-hot features."""
    return float(states(t, _one_hot(t, idx))[-1][0, 0])


def tt_to_dense(tt: TTTensor) -> np.ndarray:
    """Contract all cores into the dense tensor."""
    _check_dense(tt)
    out = tt.cores[0][0]  # (n_1, r_1)
    for core in tt.cores[1:]:
        r_prev, n_k, r_k = core.shape
        out = out @ core.reshape(r_prev, n_k * r_k)
        out = out.reshape(-1, r_k)
    return np.ascontiguousarray(out.reshape(tt.shape))


def tt_random(shape, ranks, seed, num_classes: int = 1) -> TTTensor:
    """TT tensor with i.i.d. standard Gaussian cores, drawn first to last; ``ranks``
    is one int for every bond or d-1 ints, and the last core's output leg has ``num_classes``."""
    shape = tuple(int(n) for n in shape)
    if not shape:
        raise ValueError("a TT tensor needs at least one mode")
    ranks = tuple(int(r) for r in ((ranks,) * (len(shape) - 1) if np.isscalar(ranks) else ranks))
    if len(ranks) != len(shape) - 1:
        raise ValueError(f"need {len(shape) - 1} ranks for {len(shape)} modes, got {len(ranks)}")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be positive")
    rng = np.random.default_rng(seed)
    bounds = (1, *ranks, int(num_classes))
    return TTTensor([rng.standard_normal((bounds[k], n, bounds[k + 1]))
                     for k, n in enumerate(shape)])


def tt_delta_example(d: int, n: int, r: int) -> TTTensor:
    """The explicit Kronecker-delta chain whose paired-mode matricization
    is a 0/1 diagonal of full rank ``q**(d/2)`` with ``q = min(n, r)``.

    Cores alternate between ``(1, n, r)`` selectors ``delta(i, alpha)``
    on odd positions and ``(r, n, 1)`` selectors on even positions; the
    deltas vanish whenever an index exceeds the other range, so entries
    with any ``i_k >= q`` in a mismatched pair are zero.
    """
    d, n, r = int(d), int(n), int(r)
    if d < 2 or d % 2:
        raise ValueError(f"number of modes must be even and >= 2, got {d}")
    if n < 1 or r < 1:
        raise ValueError("mode size and rank must be positive")
    q = min(n, r)
    up = np.zeros((1, n, r))
    down = np.zeros((r, n, 1))
    for i in range(q):
        up[0, i, i] = 1.0
        down[i, i, 0] = 1.0
    cores = []
    for k in range(1, d + 1):
        cores.append(up.copy() if k % 2 else down.copy())
    return TTTensor(tuple(cores))


def tt_equal_cores_random(d: int, n: int, r: int, seed) -> TTTensor:
    """Gaussian TT tensor whose interior cores 2..d-1 are one shared core:
    the three cores of ``tt_random((n,) * 3, r, seed)``, the middle one repeated."""
    d = int(d)
    if d < 3:
        raise ValueError(f"equal-core construction needs d >= 3, got {d}")
    first, middle, last = tt_random((n,) * 3, r, seed).cores
    return TTTensor((first, *[middle] * (d - 2), last))


def cp_to_dense(cp: CPTensor) -> np.ndarray:
    _check_dense(cp)
    factors = [f.reshape(f.shape[0], cp.rank) for f in cp.factors]
    out = factors[0]  # (n_1, r)
    for factor in factors[1:]:
        out = (out[:, None, :] * factor[None, :, :]).reshape(-1, cp.rank)
    return np.ascontiguousarray(out.sum(axis=1).reshape(cp.shape))


def cp_random(shape, r: int, seed, num_classes: int = 1) -> CPTensor:
    """CP tensor with i.i.d. standard Gaussian factors, drawn first to
    last; the last factor, (n, r, num_classes), carries the output leg."""
    shape = tuple(int(n) for n in shape)
    r = int(r)
    if r < 1:
        raise ValueError("rank must be positive")
    rng = np.random.default_rng(seed)
    return CPTensor([*(rng.standard_normal((n, r)) for n in shape[:-1]),
                     *(rng.standard_normal((n, r, int(num_classes))) for n in shape[-1:])])


@functools.cache
def ht_leaf_modes(d: int) -> tuple[int, ...]:
    """The mode (from 0) of each leaf of a d-leaf tree: leaf k reads
    (k + 2**ceil(log2 d)) mod d, so the root's leaves, left to right, are
    modes 0..d-1 and every node covers a run of consecutive modes."""
    return tuple((k + (1 << (d - 1).bit_length())) % d for k in range(d))


def ht_node_leaf_sets(d: int) -> list[tuple[int, ...]]:
    """1-based mode sets of all non-root tree nodes, in :attr:`HTTensor.nodes`
    order: leaf k covers mode ``ht_leaf_modes(d)[k]`` + 1, node d+t those of 2t and 2t+1.

    Matches the ordering of :attr:`HTTensor.node_ranks` and of the
    ``node_ranks`` argument accepted by :func:`ht_random`.
    """
    if d < 2:
        raise ValueError(f"a tree needs d >= 2 leaves, got {d}")
    sets = [(p + 1,) for p in ht_leaf_modes(d)]
    for t in range(d - 2):
        sets.append(sets[2 * t] + sets[2 * t + 1])
    return sets


def ht_random(shape, node_ranks, seed, num_classes: int = 1) -> HTTensor:
    """Hierarchical tensor with i.i.d. standard Gaussian nodes, drawn in node order.

    ``node_ranks`` is a single int applied to every non-root node, or a flat
    list in :func:`ht_node_leaf_sets` order; the root's leg is ``num_classes``.
    """
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    if np.isscalar(node_ranks):
        node_ranks = [node_ranks] * (2 * d - 2)
    ranks = [int(r) for r in node_ranks]
    if d < 2 or len(ranks) != 2 * d - 2:
        raise ValueError(f"a tree needs d >= 2 leaves and 2d-2 node_ranks (leaves then bottom-up "
                         f"internal nodes, root excluded), got d = {d} and {len(ranks)} ranks")
    if any(r < 1 for r in ranks):
        raise ValueError("node ranks must be positive")
    ranks.append(int(num_classes))  # the root's output leg
    shapes = [*((shape[p], r) for p, r in zip(ht_leaf_modes(d), ranks)),
              *((ranks[2 * t], ranks[2 * t + 1], ranks[d + t]) for t in range(d - 1))]
    rng = np.random.default_rng(seed)
    return HTTensor([rng.standard_normal(s) for s in shapes])


def ht_to_dense(ht: HTTensor) -> np.ndarray:
    """Contract the tree bottom-up into the dense tensor."""
    _check_dense(ht)
    # Each partial result is (prod of covered mode sizes, r_out), flattened row-major.
    parts = list(ht.leaves)
    for t, b in enumerate(ht.nodes[ht.ndim:]):
        left, right = parts[2 * t], parts[2 * t + 1]
        combo = np.einsum("xa,yb,abo->xyo", left, right, b)
        parts.append(combo.reshape(left.shape[0] * right.shape[0], -1))
    return np.ascontiguousarray(parts[-1][:, 0].reshape(ht.shape))


def ranks_from_dense(x, which: str = "tt", rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Numerical ranks of the matricizations that define a format's ranks.

    ``which='tt'``: ranks of the prefix splits ``{1..k}`` for k = 1..d-1.
    ``which='ht'``: ranks of every non-root tree node's leaf-set split,
    in :func:`ht_node_leaf_sets` order.
    """
    x = as_dense(x)
    d = x.ndim
    if which == "tt":
        splits = prefix_splits(d)
    elif which == "ht":
        splits = ht_node_leaf_sets(d)
    else:
        raise ValueError(f"unknown rank family {which!r}; expected 'tt' or 'ht'")
    return np.array([numerical_rank(matricize(x, s), rel_tol) for s in splits],
                    dtype=np.int64)
