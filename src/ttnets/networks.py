"""Multiplicative score networks built on the tensor formats.

An input is a sequence of d vectors (for images: vectorized patches).
A shared feature map lifts each vector to m features; the network then
contracts the rank-1 feature tensor ``Phi(X) = phi(x_1) o ... o phi(x_d)``
against a weight tensor stored in TT, CP or HT form, producing one score
per class.  The weights are a ``TTTensor``, ``CPTensor`` or ``HTTensor``
whose output leg is the class axis, and the contraction is the format's
``*_states`` (``decompositions.states``), which never materializes ``Phi``:

* TT weights give a recurrent pass: a running state of size r_k is mixed
  with the next feature vector by the bilinear core ``G_k``.
* CP weights give a shallow pass: r separable products evaluated in
  parallel and summed.
* HT weights give a tree pass: leaf projections merged pairwise by
  bilinear transfer tensors up to the root.

Scores are multilinear in the feature vectors, so every parameter
gradient is an outer product of partial contractions; the batched
closed forms live in the ``*_backward`` helpers, which evaluate them as
matrix products.  Each walks its format once, right to left, carrying
one running sensitivity: the chain's right state, the tree's node
sensitivities from the root down, the sum's product of later dots.  A
chain core merges the running state with a feature and a tree node
merges its two children, so the two share one bilinear merge in both
directions: ``decompositions._merge`` in their forwards and
``decompositions._merge_backward`` here.  The backwards read the states
that ``ScoreNetwork.forward`` kept from its one pass through the feature
map and the contraction (the left states of the chain, the dots and
their products of the sum, the node outputs of the tree), so a training
step runs one forward and one backward.

A network keeps all its trainable numbers in one flat vector, and its
weights and feature map are views of it; the backward writes into the
same views of one flat gradient vector, so an optimizer step is one
vector update.  K networks of one architecture stack into one network
whose every array, the vector included, has a leading run axis
(:func:`stack_networks`); the feature map, the contraction and its
backward then run once for all K runs, on the same 2-D slices as for
each run alone, so each run's numbers are bit for bit its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompositions import (
    FORMATS,
    CPTensor,
    HTTensor,
    TTTensor,
    _merge_backward,
    cp_random,
    cp_scores_from_features,
    ht_leaf_modes,
    ht_random,
    states,
    tt_delta_example,
    tt_random,
    tt_scores_from_features,
)

__all__ = [
    "FeatureMap",
    "NetworkGradients",
    "PatchConfig",
    "ScoreNetwork",
    "apply_feature_map",
    "build_similarity_network",
    "count_parameters",
    "cp_scores_from_features",
    "make_score_network",
    "network_gradients",
    "stack_networks",
    "tt_scores_from_features",
]

ACTIVATIONS = ("relu", "identity", "sigmoid")


# ---------------------------------------------------------------------------
# patch extraction


@dataclass(frozen=True)
class PatchConfig:
    """Sliding-window geometry; the window must land exactly on the far edge."""

    image_height: int
    image_width: int
    patch_height: int
    patch_width: int
    stride: int

    def __post_init__(self):
        for name in ("image_height", "image_width", "patch_height", "patch_width", "stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.patch_height > self.image_height or self.patch_width > self.image_width:
            raise ValueError("patch larger than image")
        if (self.image_height - self.patch_height) % self.stride or \
                (self.image_width - self.patch_width) % self.stride:
            raise ValueError(
                f"patches of {self.patch_height}x{self.patch_width} with stride "
                f"{self.stride} do not tile a {self.image_height}x{self.image_width} image"
            )

    @property
    def grid(self) -> tuple[int, int]:
        return ((self.image_height - self.patch_height) // self.stride + 1,
                (self.image_width - self.patch_width) // self.stride + 1)


def patch_sequences(images: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Vectorized patches for a batch of grayscale images (N, H, W):
    (N, gh * gw, ph * pw) over the (gh, gw) patch ``grid``.  Patches are
    scanned row-major over the grid; each patch is flattened row-major.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected a batch of grayscale images (N, H, W), "
                         f"got shape {images.shape}")
    n, h, w = images.shape
    if (h, w) != (cfg.image_height, cfg.image_width):
        raise ValueError(f"image batch {(h, w)} does not match config "
                         f"{(cfg.image_height, cfg.image_width)}")
    view = np.lib.stride_tricks.sliding_window_view(
        images, (cfg.patch_height, cfg.patch_width), axis=(1, 2))
    view = view[:, ::cfg.stride, ::cfg.stride]  # (N, gh, gw, ph, pw)
    gh, gw = cfg.grid
    seq = view.reshape(n, gh * gw, cfg.patch_height * cfg.patch_width)
    return np.ascontiguousarray(seq)


# ---------------------------------------------------------------------------
# feature map


@dataclass
class FeatureMap:
    """Affine map plus pointwise activation, shared across all patches."""

    A: np.ndarray  # (m, n)
    b: np.ndarray  # (m,)
    activation: str = "relu"

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.ndim < 2 or self.b.shape != self.A.shape[:-1]:
            raise ValueError(f"bias shape {self.b.shape} does not match A {self.A.shape}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def num_features(self) -> int:
        return self.A.shape[-2]

    @property
    def input_size(self) -> int:
        return self.A.shape[-1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """A x before the bias: x (*X, n) goes to (..., *X, m), one image
        per leading index of A (..., m, n), all of the same x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_size:
            raise ValueError(f"input size {x.shape[-1]} does not match feature map "
                             f"({self.input_size})")
        units = (1,) * (x.ndim - 2)
        return x @ _t(self.A).reshape(*self.A.shape[:-2], *units, self.input_size,
                                      self.num_features)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes, a view."""
    return a.swapaxes(-1, -2)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp overflows to inf, giving exactly 0.0
            return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(phi: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation, from its output ``phi``."""
    if kind == "relu":
        return (phi > 0.0).astype(np.float64)
    if kind == "sigmoid":
        return phi * (1.0 - phi)
    return np.ones_like(phi)


def apply_feature_map(fm: FeatureMap, x: np.ndarray) -> np.ndarray:
    """sigma(A x + b); the trailing axis of x is the input dimension.

    A map with leading axes, A (..., m, n), sends x (*X, n) to
    (..., *X, m): every map of the stack reads the same x."""
    z = fm.project(x)
    b = fm.b.reshape(*fm.b.shape[:-1], *(1,) * (z.ndim - fm.b.ndim), -1)
    return _activate(z + b, fm.activation)


# ---------------------------------------------------------------------------
# networks


@dataclass
class ForwardPass:
    """What one forward computed: the inputs (B, d, n), the features
    (B, d, m) in contraction order, and the format's ``*_states``."""

    inputs: np.ndarray
    phi: np.ndarray
    states: list[np.ndarray]


@dataclass
class NetworkGradients:
    """Gradients of sum_y upstream_y * score_y for every trainable array.

    ``vector`` is laid out like :attr:`ScoreNetwork.vector`; the arrays
    are views of it."""

    vector: np.ndarray
    weight_grads: list[np.ndarray]
    dA: np.ndarray
    db: np.ndarray


@dataclass
class ScoreNetwork:
    """Feature map plus weights whose output leg is the class axis.

    ``input_order``, when set, is the permutation applied to the input
    sequence before contraction (slot k consumes ``X[input_order[k]]``).

    Construction copies the arrays of :meth:`parameters` into the one
    contiguous float64 ``vector`` and rebuilds ``weights`` and
    ``feature_map`` over views of it, so updating the vector in place
    updates every array, and the reverse.

    A stack of K networks of one architecture (:func:`stack_networks`) is
    one network whose arrays all carry a leading run axis: its vector is
    (K, P), row k being network k's vector, and :meth:`forward` and
    :meth:`backward` compute all K runs on one shared batch, each bit for
    bit as it computes alone.
    """

    feature_map: FeatureMap
    weights: TTTensor | CPTensor | HTTensor
    input_order: tuple[int, ...] | None = None
    vector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.weights.shape != (self.feature_map.num_features,) * self.weights.ndim:
            raise ValueError("feature count does not match weight mode size")
        lead = self.feature_map.A.shape[:-2]
        if self.weights.lead != lead:
            raise ValueError(f"the weights' leading axes {self.weights.lead} do not match "
                             f"the feature map's {lead}")
        if self.input_order is not None and \
                sorted(self.input_order) != list(range(self.weights.ndim)):
            raise ValueError(f"input order {self.input_order} is not a permutation "
                             f"of the {self.weights.ndim} input slots")
        arrays = self.parameters()
        self._shapes = [a.shape[len(lead):] for a in arrays]
        self.vector = np.concatenate([a.reshape(*lead, -1) for a in arrays], axis=-1)
        *weights, a, b = self.views(self.vector)
        self.weights = type(self.weights)(weights)
        self.feature_map = FeatureMap(a, b, self.feature_map.activation)

    def parameters(self) -> list[np.ndarray]:
        """The trainable arrays: the weights' parameters, then A and b."""
        return self.weights.parameters() + [self.feature_map.A, self.feature_map.b]

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``vector``, shaped like
        :meth:`parameters`."""
        out, start, lead = [], 0, vector.shape[:-1]
        for shape in self._shapes:
            stop = start + math.prod(shape)
            out.append(vector[..., start:stop].reshape(*lead, *shape))
            start = stop
        return out

    @property
    def kind(self) -> str:
        return self.weights.kind

    @property
    def num_classes(self) -> int:
        return self.weights.num_classes

    @property
    def num_patches(self) -> int:
        return self.weights.ndim

    @property
    def input_size(self) -> int:
        return self.feature_map.input_size

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Class scores (C,) for one input sequence (d, n)."""
        return self.scores_batch(np.asarray(x, dtype=np.float64)[None])[0]

    def scores_batch(self, batch: np.ndarray) -> np.ndarray:
        return self.forward(batch)[0]

    def forward(self, batch: np.ndarray) -> tuple[np.ndarray, ForwardPass]:
        """Scores (..., B, C) for a batch of input sequences (B, d, n), and
        the pass that :meth:`backward` reads."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 3 or batch.shape[1] != self.num_patches:
            raise ValueError(
                f"expected batch of shape (B, {self.num_patches}, {self.input_size}), "
                f"got {batch.shape}")
        if not np.isfinite(batch).all():
            raise ValueError("network inputs must be finite (found NaN or inf)")
        phi = apply_feature_map(self.feature_map, batch)
        if self.input_order is not None:
            phi = phi[..., list(self.input_order), :]
        kept = states(self.weights, phi)
        return kept[-1], ForwardPass(batch, phi, kept)

    def backward(self, fp: ForwardPass, upstream: np.ndarray) -> NetworkGradients:
        """Exact gradients of sum_{b,y} upstream[b,y] * score_y(X_b), written
        into one flat vector laid out like ``vector``."""
        vector = np.empty_like(self.vector)
        *weight_grads, dA, db = self.views(vector)
        grads = {"tt": tt_backward, "cp": cp_backward, "ht": ht_backward}[self.kind]
        dphi = grads(self.weights, fp.phi, np.asarray(upstream), fp.states, weight_grads)[1]
        dz = dphi * _activate_grad(fp.phi, self.feature_map.activation)
        if self.input_order is not None:
            dz = dz[..., np.argsort(self.input_order), :]
        np.matmul(_t(dz.reshape(*dz.shape[:-3], -1, dz.shape[-1])),
                  fp.inputs.reshape(-1, fp.inputs.shape[-1]), out=dA)
        dz.sum(axis=(-3, -2), out=db)
        return NetworkGradients(vector, weight_grads, dA, db)


# ---------------------------------------------------------------------------
# gradients: each reads the states of the format's forward contraction and
# writes the weight gradients into ``grads``, arrays shaped like
# ``weights.parameters()``; it returns them with the feature gradients.
# The features, upstream and states carry the weights' leading axes.


def tt_backward(weights: TTTensor, phi: np.ndarray, upstream: np.ndarray, states: list,
                grads: list):
    """Core gradients and feature gradients for the chain contraction.

    The score is linear in each core, so grad G_k is the outer product of
    the left state L_{k-1} (read from ``states``), the feature phi_k, and
    the upstream-contracted right state R_{k+1}.  A right-to-left sweep of
    merge backwards gives grad G_k, R_k and grad phi_k from R_{k+1}; core
    0's left state is all ones, so its terms are plain products with R_1.
    """
    dphi = np.empty_like(phi)
    right = upstream
    for k in range(weights.ndim - 1, 0, -1):
        right, dphi[..., k, :] = _merge_backward(states[k - 1], phi[..., k, :],
                                                 weights.cores[k], right, grads[k])
    core = weights.cores[0][..., 0, :, :]  # (n, r_1): r_0 = 1
    dphi[..., 0, :] = right @ _t(core)
    np.matmul(_t(phi[..., 0, :]), right, out=grads[0][..., 0, :, :])
    return grads, dphi


def cp_backward(weights: CPTensor, phi: np.ndarray, upstream: np.ndarray, states: list,
                grads: list):
    """Factor and feature gradients for the separable-sum contraction.

    Leave-one-out products over the sequence are the forward's running
    (prefix) products times suffix products of its dots, avoiding
    divisions by possibly-zero dots.  The output leg enters through the
    (B, r*C) outer product of the full product with the upstream.
    """
    dots, prefix, last, _ = states
    d = weights.ndim
    *lead, batch, rank, num_classes = last.shape
    head = (last @ upstream[..., :, None])[..., 0]
    dphi = np.empty_like(phi)
    suffix = 1.0  # prod_{l>k} dots_l
    for k in range(d - 2, -1, -1):
        others = prefix[k] * suffix * head  # (..., B, r)
        np.matmul(_t(phi[..., k, :]), others, out=grads[k])
        dphi[..., k, :] = others @ _t(weights.factors[k])
        suffix = suffix * dots[k]
    full = prefix[d - 1]  # product of all d-1 dots
    outer = (full[..., :, None] * upstream[..., None, :]).reshape(*lead, batch,
                                                                  rank * num_classes)
    out_leg = (*weights.lead, -1, rank * num_classes)
    np.matmul(_t(phi[..., -1, :]), outer, out=grads[-1].reshape(out_leg))
    dphi[..., -1, :] = outer @ _t(weights.factors[-1].reshape(out_leg))
    return grads, dphi


def ht_backward(weights: HTTensor, phi: np.ndarray, upstream: np.ndarray, states: list,
                grads: list):
    """Leaf/transfer and feature gradients for the tree contraction, from
    the root down; node d+t's children are nodes 2t and 2t+1 of ``states``,
    and its merge backward gives both children's sensitivities."""
    d = weights.ndim
    deltas = [None] * len(states)  # downstream sensitivity of each node
    deltas[-1] = upstream
    for t in range(d - 2, -1, -1):
        deltas[2 * t], deltas[2 * t + 1] = _merge_backward(
            states[2 * t], states[2 * t + 1], weights.nodes[d + t], deltas[d + t],
            grads[d + t])
    dphi = np.empty_like(phi)
    for k, (p, leaf) in enumerate(zip(ht_leaf_modes(d), weights.leaves)):
        np.matmul(_t(phi[..., p, :]), deltas[k], out=grads[k])
        dphi[..., p, :] = deltas[k] @ _t(leaf)
    return grads, dphi


def network_gradients_batch(net: ScoreNetwork, batch: np.ndarray,
                            upstream: np.ndarray) -> NetworkGradients:
    """Exact gradients of sum_{b,y} upstream[b,y] * score_y(X_b)."""
    return net.backward(net.forward(batch)[1], upstream)


def network_gradients(net: ScoreNetwork, x, upstream) -> NetworkGradients:
    """Single-sequence wrapper around :func:`network_gradients_batch`."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64).reshape(1, -1)
    return network_gradients_batch(net, x[None], upstream)


def stack_networks(nets) -> ScoreNetwork:
    """One network holding ``nets`` as a stack of runs: every parameter
    array gains a leading run axis, so row k of the (K, P) ``vector`` is
    ``nets[k].vector`` (copied).  The networks must share kind, shapes,
    activation and input order."""
    if not nets:
        raise ValueError("need at least one network to stack")
    first = nets[0]
    for net in nets[1:]:
        if (net.kind, net._shapes, net.feature_map.activation, net.input_order) != \
                (first.kind, first._shapes, first.feature_map.activation, first.input_order):
            raise ValueError("stacked networks must share kind, shapes, activation "
                             "and input order")
    *weights, a, b = (np.stack(group) for group in zip(*(net.parameters() for net in nets)))
    return ScoreNetwork(FeatureMap(a, b, first.feature_map.activation),
                        FORMATS[first.kind](weights), first.input_order)


# ---------------------------------------------------------------------------
# construction


_RANDOM = {"tt": tt_random, "cp": cp_random, "ht": ht_random}


def make_score_network(kind: str, d: int, n: int, m: int, rank: int,
                       num_classes: int, seed, activation: str = "relu") -> ScoreNetwork:
    """Fresh network with Gaussian parameters.

    The weights are the format's random tensor over ``(m,) * d`` with a leg of
    ``num_classes``, scaled to standard deviation m**-0.5 for CP factors and
    rank**-0.5 for TT cores and HT nodes, so the forward magnitude stays O(1)-ish
    across depth; the feature map, drawn next, uses n**-0.5 and a small random bias.
    """
    if rank < 1 or m < 1:
        raise ValueError(f"rank and feature count must be positive, got rank {rank}, m {m}")
    if n < 1:
        raise ValueError(f"input size must be positive, got n {n}")
    if kind not in _RANDOM:
        raise ValueError(f"unknown network kind {kind!r}")
    if kind != "cp" and d < 2:
        raise ValueError(f"{kind} networks need d >= 2, got d = {d}")
    rng = np.random.default_rng(seed)
    weights = _RANDOM[kind]((m,) * d, rank, rng, num_classes)
    scale = 1.0 / np.sqrt(m if kind == "cp" else rank)
    for w in weights.parameters():
        w *= scale
    fm = FeatureMap(A=rng.normal(scale=1.0 / np.sqrt(n), size=(m, n)),
                    b=rng.normal(scale=0.5, size=m), activation=activation)
    return ScoreNetwork(feature_map=fm, weights=weights)


def initialize_for_training(net: ScoreNetwork, sample_inputs: np.ndarray,
                            seed: int = 0) -> ScoreNetwork:
    """Data-calibrated re-initialization for deep sequences (in place).

    Plain Gaussian cores make the forward magnitude shrink or blow up
    exponentially in the sequence length, which kills optimization for
    long inputs (measured: chance-level accuracy at d = 25).  This
    initializer measures the feature statistics on a sample of real
    inputs, redraws the weights from the format's random tensor and

    * for chain weights, sets each interior core to ``c * I`` plus small
      noise, with the gain c chosen so one recurrence step preserves the
      state magnitude for an average input: c is one over the mean
      magnitude of a patch's feature sum, so sums that are negative or
      cancel (as identity features can give) cannot make it blow up;
    * for separable-sum weights, rescales each factor so its dot with an
      average feature vector has unit standard deviation.

    The class-axis array is redrawn at standard deviation r**-0.5, r its
    leading size; the feature map is kept.  Returns the network.
    """
    rng = np.random.default_rng(seed)
    sample = np.asarray(sample_inputs, dtype=np.float64)
    if not len(sample):
        raise ValueError("calibrated init needs a non-empty sample of inputs")
    if not np.isfinite(sample).all():
        raise ValueError("network inputs must be finite (found NaN or inf)")
    phi = apply_feature_map(net.feature_map, sample)
    w = net.weights
    if net.kind == "tt":
        gain = 1.0 / max(float(np.abs(phi.sum(axis=2)).mean()), 1e-12)
        *cores, last = w.cores
        *draws, z = tt_random(w.shape, w.ranks, rng, w.num_classes).cores
        for core, z_k in zip(cores, draws):
            core[:] = 0.1 * gain * z_k
            core += gain * np.eye(core.shape[0], core.shape[2])[:, None, :]
    elif net.kind == "cp":
        *factors, last = w.factors
        *draws, z = cp_random(w.shape, w.rank, rng, w.num_classes).factors
        flat = phi.reshape(-1, phi.shape[-1])
        for factor, z_k in zip(factors, draws):
            factor[:] = z_k * (1.0 / np.sqrt(factor.shape[0]))
            factor /= np.maximum((flat @ factor).std(axis=0), 1e-12)
    else:
        raise ValueError("calibrated init supports tt and cp networks")
    last[:] = z * (1.0 / np.sqrt(last.shape[0]))
    return net


def build_similarity_network(d: int, n: int) -> ScoreNetwork:
    """Network computing the product of dot products between the first and
    second halves of the input sequence: ``prod_k x_k . x_{d/2+k}``.

    Uses the delta-chain weights of width n, an identity feature map, and
    an interleaved input order pairing x_k with x_{d/2+k}.
    """
    d = int(d)
    if d < 2 or d % 2:
        raise ValueError(f"similarity network needs an even d >= 2, got {d}")
    fm = FeatureMap(A=np.eye(n), b=np.zeros(n), activation="identity")
    half = d // 2
    order = []
    for k in range(half):
        order.extend((k, half + k))
    return ScoreNetwork(feature_map=fm, weights=tt_delta_example(d, n, n),
                        input_order=tuple(order))


def count_parameters(net: ScoreNetwork) -> tuple[int, int]:
    """(weight parameters, total including the feature map)."""
    fm = net.feature_map.A.size + net.feature_map.b.size
    return net.vector.size - fm, net.vector.size
