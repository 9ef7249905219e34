"""Reference computations written apart from ttnets, and the output checks.

Nothing here imports ttnets.  The checkpoint reader follows the file grammar
documented in ``ttnets/tensor_io.py``; the score contractions are written
differently from the program's (per-sample vector-matrix products along the
chain; a product of dot products for the separable sum); ranks come from
LAPACK (``numpy.linalg.svd``) instead of the program's Jacobi SVD.  Every
``check_*`` function returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

SCORE_REL_TOL = 1e-10
# The program's argmax may differ from the reference argmax only where the
# two top scores agree to this relative precision (a tie up to rounding).
TIE_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# reading the program's files


def read_checkpoint(path) -> dict:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    pos = 0

    def take() -> str:
        nonlocal pos
        pos += 1
        return lines[pos - 1]

    def header(tag: str) -> list[int]:
        line = take()
        if not line.startswith(tag):
            raise ValueError(f"{path}: expected {tag!r}, got {line!r}")
        return [int(tok) for tok in line[len(tag):].split()]

    def values(shape) -> np.ndarray:
        nonlocal pos
        size = int(np.prod(shape))
        out = np.array([float(tok) for tok in lines[pos:pos + size]])
        pos += size
        return out.reshape(shape)

    if take() != "ttnets-checkpoint v1":
        raise ValueError(f"{path}: not a checkpoint")
    kind = take().split()[1]
    (classes,) = header("classes:")
    d, n = header("input:")
    activation = take().split()[1]
    A = values(header("A:"))
    b = values(header("b:"))
    if kind == "tt":
        weights = [values(header("core:")) for _ in range(d)]
    elif kind == "cp":
        weights = [values(header("factor:")) for _ in range(d - 1)]
        weights.append(values(header("factor3:")))
    else:
        raise ValueError(f"{path}: unknown kind {kind!r}")
    if pos != len(lines):
        raise ValueError(f"{path}: trailing content")
    return {"kind": kind, "classes": classes, "d": d, "n": n,
            "activation": activation, "A": A, "b": b, "weights": weights}


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# inputs, rebuilt from their definitions


def moons(num_points: int, noise_sd: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    n0, n1 = num_points - num_points // 2, num_points // 2
    t0, t1 = np.linspace(0.0, np.pi, n0), np.linspace(0.0, np.pi, n1)
    points = np.concatenate([np.stack([np.cos(t0), np.sin(t0)], axis=1),
                             np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)])
    points = points + np.random.default_rng(seed).normal(scale=noise_sd, size=points.shape)
    return points[:, :, None], np.repeat([0, 1], [n0, n1])


def circles(num_points: int, noise_sd: float, factor: float,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    n0, n1 = num_points - num_points // 2, num_points // 2
    a0 = np.linspace(0.0, 2.0 * np.pi, n0, endpoint=False)
    a1 = np.linspace(0.0, 2.0 * np.pi, n1, endpoint=False)
    points = np.concatenate([np.stack([np.cos(a0), np.sin(a0)], axis=1),
                             factor * np.stack([np.cos(a1), np.sin(a1)], axis=1)])
    points = points + np.random.default_rng(seed).normal(scale=noise_sd, size=points.shape)
    return points[:, :, None], np.repeat([0, 1], [n0, n1])


def patches(images_u8: np.ndarray, size: int, stride: int) -> np.ndarray:
    """(N, H, W) bytes -> (N, patches, size*size) in [0, 1], row-major scan."""
    images = images_u8.astype(np.float64) / 255.0
    _, height, width = images.shape
    seq = [images[:, r:r + size, c:c + size].reshape(len(images), -1)
           for r in range(0, height - size + 1, stride)
           for c in range(0, width - size + 1, stride)]
    return np.stack(seq, axis=1)


# ---------------------------------------------------------------------------
# score contractions


def features(params: dict, x: np.ndarray) -> np.ndarray:
    z = np.einsum("bkn,mn->bkm", x, params["A"]) + params["b"]
    act = params["activation"]
    if act == "relu":
        return np.where(z > 0.0, z, 0.0)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def tt_scores(cores, phi: np.ndarray) -> np.ndarray:
    """Per-sample vector-matrix products along the chain."""
    state = np.ones((phi.shape[0], 1))
    for k, core in enumerate(cores):
        mats = np.einsum("bi,aic->bac", phi[:, k, :], core)
        state = np.einsum("ba,bac->bc", state, mats)
    return state


def cp_scores(factors, phi: np.ndarray) -> np.ndarray:
    """Sum over terms of the product of the per-position dot products."""
    prod = np.ones((phi.shape[0], factors[-1].shape[1]))
    for k, factor in enumerate(factors[:-1]):
        prod = prod * (phi[:, k, :] @ factor)
    last = np.einsum("bi,irc->brc", phi[:, -1, :], factors[-1])
    return np.einsum("br,brc->bc", prod, last)


def scores(params: dict, x: np.ndarray) -> np.ndarray:
    phi = features(params, x)
    if params["kind"] == "tt":
        return tt_scores(params["weights"], phi)
    return cp_scores(params["weights"], phi)


def similarity_scores(x: np.ndarray) -> np.ndarray:
    """prod_k x_k . x_{d/2+k}, one column."""
    half = x.shape[1] // 2
    return np.prod(np.einsum("bkn,bkn->bk", x[:, :half], x[:, half:]), axis=1)[:, None]


# ---------------------------------------------------------------------------
# network checks


def check_scores(ref: np.ndarray, got: np.ndarray, what: str) -> list[str]:
    scale = np.maximum(np.linalg.norm(ref, axis=1), np.finfo(float).tiny)
    err = np.linalg.norm(np.asarray(got) - ref, axis=1) / scale
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= SCORE_REL_TOL:
        return [f"{what}: scores differ from the reference by {worst:.3g} relative"]
    return []


def check_argmax(ref: np.ndarray, labels: np.ndarray, what: str) -> list[str]:
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(ref))
    top = ref.max(axis=1)
    scale = np.maximum(np.abs(ref).max(axis=1), np.finfo(float).tiny)
    wrong = ref[rows, labels] < top - TIE_REL_TOL * scale
    if wrong.any():
        return [f"{what}: {int(wrong.sum())} of {len(ref)} labels are not the argmax"]
    return []


def check_accuracy(reported: float, labels_pred, labels_true, what: str) -> list[str]:
    recomputed = float(np.mean(np.asarray(labels_pred) == np.asarray(labels_true)))
    if reported != recomputed:
        return [f"{what}: reported accuracy {reported!r} != recomputed {recomputed!r}"]
    return []


def _frozen_pattern(params, x, name, idx, step) -> bool:
    """True when moving A or b by +-step leaves every ReLU on its side."""
    if params["activation"] != "relu":
        return True
    z = np.einsum("bkn,mn->bkm", x, params["A"]) + params["b"]
    unit = idx[0]
    move = step * (np.abs(x[:, :, idx[1]]) if name == "A" else 1.0)
    return bool(np.all(np.abs(z[:, :, unit]) > move))


def check_gradient(params: dict, x: np.ndarray, upstream: np.ndarray, grads: dict,
                   rng: np.random.Generator, what: str) -> list[str]:
    """Central differences of sum(upstream * scores) on six random coordinates.

    ``grads`` maps ``"w<k>"``, ``"A"`` and ``"b"`` to the program's gradient
    arrays.  The scores are linear in each weight entry, so differences are
    exact there up to rounding; an A or b coordinate is used only where the
    step moves no ReLU pre-activation across its kink.
    """
    def objective(p):
        return float(np.sum(upstream * scores(p, x)))

    magnitude = float(np.sum(np.abs(upstream * scores(params, x))))
    names = [f"w{k}" for k in range(len(params["weights"]))]
    picks = [names[0], names[-1], names[rng.integers(len(names))],
             names[rng.integers(len(names))], "A", "b"]
    problems, checked = [], []
    for name in picks:
        for _attempt in range(20):
            arr = params[name] if name in ("A", "b") else params["weights"][int(name[1:])]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            if name in ("A", "b"):
                step = 1e-6
                if not _frozen_pattern(params, x, name, idx if name == "A" else (idx[0],),
                                       step):
                    continue
            else:
                step = 1e-3 * max(1.0, abs(arr[idx]))
            values = []
            for sign in (1.0, -1.0):
                moved = {**params, "weights": [w.copy() for w in params["weights"]],
                         "A": params["A"].copy(), "b": params["b"].copy()}
                target = moved[name] if name in ("A", "b") else moved["weights"][int(name[1:])]
                target[idx] += sign * step
                values.append(objective(moved))
            fd = (values[0] - values[1]) / (2.0 * step)
            checked.append((name, idx, fd, float(grads[name][idx]), step))
            break
    gmax = max((abs(g) for *_rest, g, _s in checked), default=0.0)
    for name, idx, fd, g, step in checked:
        tol = 1e-7 * gmax + 1e-11 * magnitude / step
        if not abs(fd - g) <= tol:
            problems.append(f"{what}: gradient {name}{list(idx)} is {g:.6g}, "
                            f"central difference {fd:.6g}")
    if len(checked) < 4:
        problems.append(f"{what}: only {len(checked)} gradient coordinates checked")
    return problems


# ---------------------------------------------------------------------------
# certificate checks


def sample_generator(seed: int, index: int) -> np.random.Generator:
    """The per-sample stream the verifiers document: (seed, sample index)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def random_train(d: int, n: int, r: int, rng) -> list[np.ndarray]:
    bounds = (1,) + (r,) * (d - 1) + (1,)
    return [rng.standard_normal((bounds[k], n, bounds[k + 1])) for k in range(d)]


def train_to_dense(cores) -> np.ndarray:
    out = np.ones((1, 1))
    for core in cores:
        out = np.einsum("xa,aic->xic", out, core).reshape(-1, core.shape[2])
    return out.reshape([c.shape[1] for c in cores])


def lapack_rank(x: np.ndarray, row_axes, rel_tol: float) -> int:
    """Rank of the matricization with the given 0-based row axes."""
    cols = [a for a in range(x.ndim) if a not in row_axes]
    rows = int(np.prod([x.shape[a] for a in row_axes]))
    mat = np.transpose(x, list(row_axes) + cols).reshape(rows, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def tree_splits(d: int) -> list[tuple[int, ...]]:
    """Leaf sets of every non-root node of the balanced binary tree."""
    out, width = [], 1
    while width < d:
        out += [tuple(range(s, s + width)) for s in range(0, d, width)]
        width *= 2
    return out


def check_report(rows: list[dict], threshold: int, samples: int, at_least: bool,
                 what: str) -> list[str]:
    """Every row meets (or, for bounds, stays under) the independent threshold."""
    problems = []
    if len(rows) != samples:
        problems.append(f"{what}: {len(rows)} report rows, expected {samples}")
    for row in rows:
        rank = int(row["observed_rank"])
        ok = rank >= threshold if at_least else rank <= threshold
        if not ok or int(row["threshold"]) != threshold or row["pass"] != "1":
            problems.append(f"{what}: sample {row['sample']} rank {rank} "
                            f"against threshold {threshold}")
    return problems


def check_rank(observed: int, reference: int, what: str) -> list[str]:
    if observed != reference:
        return [f"{what}: program rank {observed}, LAPACK rank {reference}"]
    return []
