"""Desk-scale training harness: toy datasets, Adam, loop, decision grids.

Training is single-threaded and bit-deterministic given the config seed:
shuffling uses one seeded generator, batch gradients are accumulated in a
fixed order, and the optimizer updates the network's one flat parameter
vector elementwise, one vector operation per step.  The end-of-epoch
revival of dead ReLU units draws no random numbers: it is a
fixed function of the parameters and the training inputs.

A :class:`TrainConfig` holds what every run of a stack shares (epochs,
batch size and the shuffling seed); each run brings its own learning
rate.  A learning-rate sweep trains its runs as one stack: the runs see
the same batches, so each step is one forward, one loss, one backward
and one Adam update of a (K, P) matrix whose row k is run k's parameter
vector, at run k's own rate.  Every stacked operation acts on each run's
rows exactly as it would on that run alone, and each run keeps its own
moments, so each run's result is bit-identical to training it alone.  The
stack is built once.  A run whose batch loss is not finite stops: its
history ends with that epoch, after the epoch's one revival and
accuracy, and its row stays in the stack to the end, frozen by a zero
gradient and zero moments.  A single :func:`train` is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .networks import ScoreNetwork, stack_networks
from .tensor_io import write_csv

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "AdamState",
    "Dataset",
    "DEFAULT_LR_SWEEP",
    "EpochStats",
    "TrainConfig",
    "accuracy",
    "adam_step",
    "cross_entropy",
    "cross_entropy_batch",
    "decision_grid",
    "make_circles",
    "make_moons",
    "predict",
    "revive_dead_units",
    "train",
    "train_lr_sweep",
    "train_runs",
    "write_grid_csv",
    "write_history_csv",
]

# Default learning-rate sweep for "pick the best run by train loss".
DEFAULT_LR_SWEEP = (4e-3, 2e-3, 1e-3, 5e-4)

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Samples scored per forward call in predict.
PREDICT_CHUNK = 512


@dataclass
class Dataset:
    """Input sequences (N, d, n) with integer labels in 0..num_classes-1."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (N, d, n), got shape {self.inputs.shape}")
        if not len(self.inputs):
            raise ValueError("the dataset is empty: need at least one sample")
        if labels.shape != (self.inputs.shape[0],):
            raise ValueError("one label per sample required")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        valid = (labels >= 0) & (labels < self.num_classes) & (labels == np.floor(labels))
        if not valid.all():
            raise ValueError(f"labels must be integers in 0..{self.num_classes - 1}, "
                             f"got {labels[~valid][0]}")
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class TrainConfig:
    """What every run of a stack shares; each run brings its own rate."""

    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


# ---------------------------------------------------------------------------
# toy datasets (each 2-D point is fed as two one-dimensional patches)


def _two_class_toy(num_points: int, noise_sd: float, seed: int, span: float,
                   endpoint: bool, class1) -> Dataset:
    """ceil(N/2) class-0 points on the unit circle at angles evenly spaced
    from 0 to ``span`` (included if ``endpoint``), then floor(N/2) class-1
    points ``class1`` of such unit points, plus Gaussian noise of standard
    deviation ``noise_sd``."""
    if num_points < 2:
        raise ValueError("need at least two points")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError(f"noise standard deviation must be finite and >= 0, got {noise_sd}")
    counts = (num_points - num_points // 2, num_points // 2)
    arc0, arc1 = (np.stack([np.cos(t), np.sin(t)], axis=1)
                  for t in (np.linspace(0.0, span, n, endpoint=endpoint) for n in counts))
    points = np.concatenate([arc0, class1(arc1)])
    labels = np.repeat(np.arange(2, dtype=np.int64), counts)
    if noise_sd > 0:
        points = points + np.random.default_rng(seed).normal(scale=noise_sd, size=points.shape)
    return Dataset(points[:, :, None], labels, 2)


def make_moons(num_points: int, noise_sd: float, seed: int = 0) -> Dataset:
    """Two interleaving arcs: class 0 on (cos t, sin t), class 1 on
    (1 - cos t, 1/2 - sin t), t evenly spaced on [0, pi] inclusive."""
    return _two_class_toy(num_points, noise_sd, seed, np.pi, True,
                          lambda arc: [1.0, 0.5] - arc)


def make_circles(num_points: int, noise_sd: float, factor: float = 0.5,
                 seed: int = 0) -> Dataset:
    """Concentric rings: class 0 at radius 1, class 1 at radius ``factor``,
    angles evenly spaced on [0, 2*pi)."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must lie in (0, 1), got {factor}")
    return _two_class_toy(num_points, noise_sd, seed, 2.0 * np.pi, False,
                          lambda arc: factor * arc)


# ---------------------------------------------------------------------------
# loss


def cross_entropy_batch(scores: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the scores.

    Stabilized by max subtraction; the gradient rows are
    (softmax - onehot) / batch and sum to zero.  Scores (..., B, C) of a
    stack of runs on one batch give one mean loss per run.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = scores.shape[-2:]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("label out of range")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    loss = (log_norm - shifted[..., np.arange(batch), labels]).sum(axis=-1) / batch
    grad = np.exp(shifted - log_norm[..., None])
    grad -= labels[:, None] == np.arange(num_classes)  # x - 0.0 is x: only labels change
    return (float(loss) if loss.ndim == 0 else loss), grad / batch


def cross_entropy(scores: np.ndarray, label: int):
    """Single-sample loss and gradient (gradient not divided by a batch)."""
    loss, grad = cross_entropy_batch(np.asarray(scores, dtype=np.float64)[None],
                                     np.asarray([label]))
    return loss, grad[0]


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators: two vectors laid out like the
    parameter vector they update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, rate):
    """One bias-corrected moment update of a parameter vector, in place.

    The update is elementwise, so a whole network (``ScoreNetwork.vector``
    and a gradient vector of the same layout) takes one vector update, and
    a (K, P) stack of vectors with a (K, 1) column ``rate`` updates each
    row at its own rate."""
    grads = np.asarray(grads)
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameter "
                         f"{params.shape}")
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise ValueError(f"moment shape {state.m.shape} does not match parameter "
                         f"{params.shape}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    params -= rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def predict(net: ScoreNetwork, inputs: np.ndarray) -> np.ndarray:
    """Argmax class per sample, (N,), or (K, N) for a stack of K runs;
    ties resolve to the lowest class index."""
    inputs = np.asarray(inputs, dtype=np.float64)
    out = np.empty((*net.vector.shape[:-1], inputs.shape[0]), dtype=np.int64)
    for start in range(0, inputs.shape[0], PREDICT_CHUNK):
        stop = start + PREDICT_CHUNK
        out[..., start:stop] = np.argmax(net.scores_batch(inputs[start:stop]), axis=-1)
    return out


def accuracy(net: ScoreNetwork, data: Dataset):
    """Share of samples predicted right: a float, or one per run of a stack."""
    hits = np.mean(predict(net, data.inputs) == data.labels, axis=-1)
    return float(hits) if hits.ndim == 0 else hits


def revive_dead_units(net: ScoreNetwork, inputs: np.ndarray, state: AdamState):
    """Revive every ReLU feature unit that fires on no input (in place).

    A unit is dead when its pre-activation is <= 0 at every patch of every
    input: its gradient is then zero, so training alone never brings it
    back.  Reviving unit i moves its kink to the median of ``x @ A[i]``
    over all patches of ``inputs``, zeros every weight slice that reads
    feature i and resets the Adam moments in ``state`` (laid out like
    ``net.vector``) of those slices and of ``A[i]`` and ``b[i]``.  Because
    the slices are zero, the network computes exactly the same scores as
    before, on any input.
    Returns the revived unit indices, or one list of them per run of a
    stack, each run revived on its own; other activations never die.
    """
    fm = net.feature_map
    dead = np.zeros(fm.b.shape, dtype=bool)
    if fm.activation == "relu":
        proj = fm.project(inputs)  # (..., N, d, m)
        dead = np.all(proj + fm.b[..., None, None, :] <= 0.0, axis=(-3, -2))
    if dead.any():
        fm.b[dead] = -np.median(proj.swapaxes(-1, -3)[dead], axis=(-2, -1))
        lead = dead.shape[:-1]

        def zero_dead(arrays, axes):
            for a, axis in zip(arrays, axes):
                if axis is not None:
                    units = (1,) * (a.ndim - len(lead) - 1)
                    np.copyto(a.swapaxes(axis, -1), 0.0,
                              where=dead.reshape(*lead, *units, -1))

        axes = net.weights.feature_axes()
        zero_dead(net.weights.parameters(), axes)
        zero_dead(net.views(state.m), axes + [-2, -1])
        zero_dead(net.views(state.v), axes + [-2, -1])
    revived = [np.flatnonzero(row).tolist() for row in dead.reshape(-1, dead.shape[-1])]
    return revived[0] if dead.ndim == 1 else revived


def train(net: ScoreNetwork, data: Dataset, cfg: TrainConfig,
          learning_rate: float) -> list[EpochStats]:
    """Mini-batch Adam at ``learning_rate`` on the cores/factors and feature map.

    Returns per-epoch training loss (mean over batches) and training
    accuracy (full pass at epoch end).  After each epoch, every ReLU unit
    that fires on no training input is revived by
    :func:`revive_dead_units`, which leaves the scores unchanged.  Zero
    epochs returns an empty history and leaves parameters untouched.  A
    run stops at the first batch whose loss is NaN or infinite: it takes
    no step from that batch on, the rest of the epoch is skipped, and
    training ends after that epoch's revival and accuracy.  The history
    ends with that epoch's non-finite loss, the mean of the batch losses
    up to and including the first non-finite one.
    """
    return train_runs([net], data, cfg, [learning_rate])[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_runs(nets: list[ScoreNetwork], data: Dataset, cfg: TrainConfig,
               rates) -> list[list[EpochStats]]:
    """:func:`train` of ``nets[k]`` at learning rate ``rates[k]``, for
    every k at once as one stack on the same batches; one history per run.

    Each run's history and final parameters are bit for bit those of
    ``train(nets[k], data, cfg, rates[k])``; each rate must be finite and
    positive.  The stack is built once and keeps every run to the end.  A
    run whose batch loss is not finite stops there: on every later batch
    its gradient row and moments are zeroed, so each Adam update adds
    exactly +0.0 to its row.  The epoch it stops in still revives it and
    scores its accuracy with the other runs, and its history ends with
    that epoch.  Each network is written from its row at the end of every
    epoch its run starts live, so no later revival of a frozen row reaches
    it.  A stopped run keeps its share of every batch until every run has
    stopped or the epochs run out: a stack of K runs with s stopped does
    K/(K-s) times the work of its live runs.  Overflow and invalid
    operations raise no numpy warning: the non-finite loss they lead to is
    the report."""
    if len(rates) != len(nets):
        raise ValueError(f"need one learning rate per network, got {len(rates)} rates "
                         f"for {len(nets)} networks")
    column = np.array(rates, dtype=np.float64)[:, None]  # row k: run k's rate
    if column.ndim != 2:
        raise ValueError(f"each learning rate must be one number, got {rates}")
    for rate in column[:, 0]:
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {rate}")
    histories: list[list[EpochStats]] = [[] for _ in nets]
    net = stack_networks(nets)
    state = AdamState.for_params(net.vector)
    live = np.ones(len(nets), dtype=bool)
    rng = np.random.default_rng(cfg.seed)
    starts = range(0, len(data), cfg.batch_size)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        losses = np.empty((len(nets), len(starts)))
        # row k's loss: mean of losses[k, :ends[k]]; 0 marks a run stopped before
        ends = np.where(live, len(starts), 0)
        for j, start in enumerate(starts):
            idx = order[start : start + cfg.batch_size]
            scores, fp = net.forward(data.inputs[idx])
            loss, dscores = cross_entropy_batch(scores, data.labels[idx])
            losses[:, j] = loss
            if not np.isfinite(loss).all():
                stops = live & ~np.isfinite(loss)
                ends[stops] = j + 1
                live &= ~stops
                if not live.any():
                    break
            grads = net.backward(fp, dscores).vector
            if not live.all():
                for frozen in (grads, state.m, state.v):
                    frozen[~live] = 0.0
            adam_step(net.vector, grads, state, column)
        revive_dead_units(net, data.inputs, state)
        hits = accuracy(net, data)
        for k in np.flatnonzero(ends):
            histories[k].append(EpochStats(epoch + 1, float(np.mean(losses[k, :ends[k]])),
                                           float(hits[k])))
            nets[k].vector[:] = net.vector[k]
        if not live.any():
            break
    return histories


def train_lr_sweep(build_net, data: Dataset, cfg: TrainConfig,
                   learning_rates=DEFAULT_LR_SWEEP) -> tuple[ScoreNetwork, list[EpochStats]]:
    """Train one independently initialized run per learning rate and return
    the network and history of the run with the best final train loss.

    ``build_net(seed)`` must return a fresh network deterministically from
    the given seed; run k is built from a seed derived from (cfg.seed, k),
    so the whole sweep is reproducible.  The runs train as one stack
    (:func:`train_runs`), and each run's network and history are bit for
    bit those of ``train(net_k, data, cfg, learning_rates[k])``.  Ties
    resolve to the earlier rate in the list.  A run whose final loss is
    NaN or infinite has diverged and is never kept; if every run
    diverges, ValueError names the rates.
    """
    if not learning_rates:
        raise ValueError("learning_rates must be non-empty")
    nets = [build_net(int(np.random.SeedSequence((cfg.seed, k)).generate_state(1)[0]))
            for k in range(len(learning_rates))]
    histories = train_runs(nets, data, cfg, learning_rates)
    # zero epochs leave every history empty; the first run is then kept
    finals = [(history[-1].loss if history else math.inf, k)
              for k, history in enumerate(histories)
              if not history or math.isfinite(history[-1].loss)]
    if not finals:
        rates = ", ".join(f"{lr:g}" for lr in learning_rates)
        raise ValueError(f"every run diverged (non-finite final loss) at "
                         f"learning rates {rates}")
    best = min(finals)[1]
    return nets[best], histories[best]


# ---------------------------------------------------------------------------
# decision grids


def decision_grid(net: ScoreNetwork, bounds, resolution: int):
    """Predicted labels on a lattice over ``bounds = (xmin, xmax, ymin, ymax)``,
    a box with xmin < xmax and ymin < ymax whose bounds, width and height
    are all finite.

    Only for networks consuming a 2-D point as two one-dimensional
    patches.  Returns (labels[iy, ix], xs, ys).
    """
    if net.num_patches != 2 or net.input_size != 1:
        raise ValueError("decision grids need a network over 2-D inputs "
                         "(two patches of one feature)")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    # a NaN or infinite bound, an empty or reversed side and a side whose
    # width overflows all fail: each width must lie strictly between 0 and inf
    if not (0 < xmax - xmin < math.inf and 0 < ymax - ymin < math.inf):
        raise ValueError(f"bounds must be finite with xmin < xmax and ymin < ymax, "
                         f"got xmin,xmax,ymin,ymax = {xmin:g},{xmax:g},{ymin:g},{ymax:g}")
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    gx, gy = np.meshgrid(xs, ys)
    batch = np.stack([gx.ravel(), gy.ravel()], axis=1)[:, :, None]
    labels = predict(net, batch).reshape(resolution, resolution)
    return labels, xs, ys


# ---------------------------------------------------------------------------
# CSV artifacts


def write_history_csv(path, history) -> None:
    """One ``epoch,loss,accuracy`` row per epoch (a float64 holds the epoch exactly)."""
    write_csv(path, ["epoch", "loss", "accuracy"], "%d,%.17g,%.17g\r\n",
              [(h.epoch, h.loss, h.accuracy) for h in history])


def write_grid_csv(path, labels, xs, ys) -> None:
    """One ``x,y,label`` row per cell, x fastest."""
    gx, gy = np.meshgrid(xs, ys)
    rows = np.stack([gx.ravel(), gy.ravel(), np.ravel(labels)], axis=1)
    write_csv(path, ["x", "y", "label"], "%.17g,%.17g,%d\r\n", rows)
