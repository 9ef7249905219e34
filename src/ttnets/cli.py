"""Command-line surface for the experiments and utilities.

Subcommands: verify, rank, train, boundary, sweep, patches.  Every
command accepts --seed, --out-dir and --config; the config file is flat
JSON whose keys mirror the long flag names (hyphen or underscore), and
explicit flags override file values.  Unknown config keys are rejected,
and so are abbreviated flags: both must name an option in full.

Exit codes: 0 success / all checks passed, 1 runtime failure (I/O, or a
numerical routine that did not converge), 2 usage or precondition failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import mnist, tensor_io
from .networks import (
    PatchConfig,
    count_parameters,
    initialize_for_training,
    make_score_network,
    patch_sequences,
)
from .rank_analysis import (
    CERT_REL_TOL,
    cp_rank_lower_bound,
    verify_ht_tt_bounds,
    verify_hypothesis1,
    verify_theorem1,
    write_report_csv,
)
from .svd import DEFAULT_REL_TOL
from .tensor import odd_even_split, prefix_splits
from .training import (
    DEFAULT_LR_SWEEP,
    Dataset,
    TrainConfig,
    decision_grid,
    make_circles,
    make_moons,
    train,
    train_lr_sweep,
    write_grid_csv,
    write_history_csv,
)

_GRID_COLORS = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
                "#aa3377", "#bbbbbb", "#000000", "#99ddff", "#dd7788"]


def _number_list(text: str, flag: str, cast=int) -> list:
    """The numbers in a comma or space separated option value; a token
    that ``cast`` rejects is a usage error naming ``flag``."""
    numbers = []
    for token in str(text).replace(",", " ").split():
        try:
            numbers.append(cast(token))
        except ValueError:
            raise ValueError(f"{flag} expects {cast.__name__} values separated by commas, "
                             f"got {token!r}") from None
    return numbers


# Option tables: (flag, default, type caster, help).  Defaults and casters
# double as the schema for config-file validation.
_COMMON = [
    ("seed", 0, int, "master random seed"),
    ("out_dir", ".", str, "directory for output artifacts"),
]

# Shared by train and sweep, which differ only in rank(s), dataset and epochs.
_TRAINING = [
    ("network", "tt", str, "tt, cp or ht"),
    ("m", 4, int, "number of feature maps"),
    ("activation", "relu", str, "relu, identity or sigmoid"),
    ("batch_size", 32, int, "mini-batch size"),
    ("lr", None, float, "learning rate; omit to sweep and keep the best run"),
    ("points", 500, int, "number of points for toy datasets"),
    ("noise", 0.1, float, "noise standard deviation for toy datasets"),
    ("factor", 0.5, float, "inner radius for circles"),
    ("images", None, str, "IDX image file (mnist)"),
    ("labels", None, str, "IDX label file (mnist)"),
    ("limit", None, int, "use only the first N samples (mnist)"),
    ("patch_size", 8, int, "square patch edge (mnist)"),
    ("stride", 5, int, "patch stride (mnist)"),
]

_OPTIONS = {
    "verify": _COMMON + [
        ("d", 6, int, "number of modes (even; any d >= 2 for ht-bounds)"),
        ("n", 3, int, "mode size"),
        ("r", 3, int, "rank"),
        ("samples", 100, int, "Monte-Carlo samples (per cell for hypothesis1)"),
        ("n_range", "2,3,4", str, "mode sizes for hypothesis1, comma separated"),
        ("r_range", "2,3,4", str, "ranks for hypothesis1, comma separated"),
        ("direction", "tt2ht", str, "ht-bounds direction: tt2ht or ht2tt"),
        ("rel_tol", CERT_REL_TOL, float, "numerical rank tolerance"),
    ],
    "rank": _COMMON + [
        ("split", [], None, "row axes of a matricization, e.g. 1,3 (repeatable)"),
        ("rel_tol", DEFAULT_REL_TOL, float, "numerical rank tolerance"),
    ],
    "train": _COMMON + [
        ("dataset", "moons", str, "moons, circles or mnist"),
        ("rank", 8, int, "decomposition rank"),
        ("epochs", 300, int, "training epochs"),
    ] + _TRAINING,
    "boundary": _COMMON + [
        ("checkpoint", None, str, "checkpoint file of a trained 2-D network"),
        ("bounds", "-1.5,2.5,-1.25,1.5", str, "xmin,xmax,ymin,ymax"),
        ("resolution", 100, int, "grid resolution per axis"),
        ("emit", "csv", str, "csv or svg"),
    ],
    "sweep": _COMMON + [
        ("dataset", "mnist", str, "moons, circles or mnist"),
        ("ranks", "4,8,16", str, "ranks to sweep, comma separated"),
        ("epochs", 20, int, "training epochs per rank"),
    ] + _TRAINING,
    "patches": _COMMON + [
        ("image", None, str, "image as a CSV grid of pixel values"),
        ("patch_height", 7, int, "patch height"),
        ("patch_width", 7, int, "patch width"),
        ("stride", 7, int, "patch stride"),
    ],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it (flag defaults are suppressed and layered by ``_resolve``)."""
    parser = argparse.ArgumentParser(prog="ttnets", allow_abbrev=False,
                                     description="tensor-network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, positional=None, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        if positional:
            for pos_name, pos_help in positional:
                p.add_argument(pos_name, help=pos_help)
        p.add_argument("--config", default=None, help="flat JSON config file")
        for flag, _default, caster, help_text in _OPTIONS[name]:
            arg = "--" + flag.replace("_", "-")
            if caster is None:  # repeatable string option
                p.add_argument(arg, action="append", default=argparse.SUPPRESS,
                               help=help_text)
            else:
                p.add_argument(arg, type=caster, default=argparse.SUPPRESS,
                               help=help_text)
        return p

    add("verify", positional=[("kind", "theorem1, hypothesis1 or ht-bounds")],
        help="Monte-Carlo rank-separation checks")
    add("rank", positional=[("tensor_file", "dense tensor interchange file")],
        help="matricization lower bound on the separable rank")
    add("train", help="train a score network, write history CSV + checkpoint")
    add("boundary", help="decision grid of a trained 2-D network")
    add("sweep", help="accuracy versus rank and parameter count")
    add("patches", help="extract the patch matrix of one image")
    return parser


# JSON types a config value may take, by the caster of its option
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,), None: (list,)}


def _fits(val, default, caster) -> bool:
    """Whether a config-file value has its option's type; null only
    stands for an option whose default is None."""
    if val is None:
        return default is None
    if isinstance(val, bool) or not isinstance(val, _CONFIG_TYPES[caster]):
        return False
    return caster is not None or all(isinstance(v, str) for v in val)


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Layer defaults, config-file values and explicit flags."""
    table = {flag: (default, caster) for flag, default, caster, _h in _OPTIONS[args.command]}
    values = {flag: default for flag, (default, _c) in table.items()}
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a flat JSON object")
        for key, val in loaded.items():
            norm = key.replace("-", "_")
            if norm not in values:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            default, caster = table[norm]
            if not _fits(val, default, caster):
                expected = caster.__name__ if caster else "a list of strings"
                raise ValueError(f"{args.config}: config key {key!r} must be {expected}, "
                                 f"got {json.dumps(val)}")
            values[norm] = val
    for key, val in vars(args).items():
        if key not in ("command", "config"):
            values[key] = val
    if values["seed"] < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {values['seed']}")
    return argparse.Namespace(**values)


def _out_path(args, name: str) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    kind = args.kind
    if kind == "theorem1":
        reports = [verify_theorem1(args.d, args.n, args.r, args.samples, args.seed,
                                   rel_tol=args.rel_tol)]
    elif kind == "hypothesis1":
        reports = verify_hypothesis1(args.d, _number_list(args.n_range, "--n-range"),
                                     _number_list(args.r_range, "--r-range"), args.samples,
                                     args.seed, rel_tol=args.rel_tol)
    elif kind == "ht-bounds":
        report = verify_ht_tt_bounds(args.d, args.n, args.r, args.samples,
                                     args.seed, direction=args.direction,
                                     rel_tol=args.rel_tol)
        reports = [report]
        print(f"max_observed {report.observed_max} bound {report.bound}")
    else:
        raise ValueError(f"unknown verification {kind!r}; "
                         "expected theorem1, hypothesis1 or ht-bounds")
    csv_path = _out_path(args, f"{kind.replace('-', '_')}_report.csv")
    write_report_csv(csv_path, reports)
    satisfied = sum(r.num_satisfying for r in reports)
    total = sum(r.num_samples for r in reports)
    verdict = "PASS" if satisfied == total else "FAIL"
    print(f"{verdict} {satisfied}/{total}")
    return 0 if satisfied == total else 1


def cmd_rank(args) -> int:
    x = tensor_io.load_dense(args.tensor_file)
    d = x.ndim
    if args.split:
        splits = [_number_list(s, "--split") for s in args.split]
    else:
        splits = prefix_splits(d)
        if d % 2 == 0:
            splits.append(odd_even_split(d))
    bound = cp_rank_lower_bound(x, splits, rel_tol=args.rel_tol)
    print(f"cp-rank lower bound: {bound}")
    return 0


def _load_dataset(args):
    if args.dataset == "moons":
        return make_moons(args.points, args.noise, seed=args.seed)
    if args.dataset == "circles":
        return make_circles(args.points, args.noise, args.factor, seed=args.seed)
    if args.dataset == "mnist":
        if not args.images or not args.labels:
            raise ValueError("mnist needs --images and --labels IDX files")
        images, labels = mnist.load_mnist_idx(args.images, args.labels)
        if args.limit is not None:
            if args.limit < 1:
                raise ValueError(f"--limit must be positive, got {args.limit}")
            images, labels = images[: args.limit], labels[: args.limit]
        cfg = PatchConfig(images.shape[1], images.shape[2],
                          args.patch_size, args.patch_size, args.stride)
        return Dataset(patch_sequences(images, cfg), labels, 10)
    raise ValueError(f"unknown dataset {args.dataset!r}")


def _train_one(args, data, rank):
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    num_patches, input_size = data.inputs.shape[1:]

    def build(seed):
        net = make_score_network(args.network, num_patches, input_size,
                                 args.m, rank, data.num_classes, seed=seed,
                                 activation=args.activation)
        if num_patches >= 8:
            # long multiplicative chains need magnitude-calibrated cores
            initialize_for_training(net, data.inputs[:512], seed=seed)
        return net

    if args.lr is None:
        return train_lr_sweep(build, data, cfg, DEFAULT_LR_SWEEP)
    net = build(args.seed)
    history = train(net, data, cfg, args.lr)
    if history and not math.isfinite(history[-1].loss):
        raise ValueError(f"the run diverged (non-finite final loss) at learning rate "
                         f"{args.lr:g}")
    return net, history


def cmd_train(args) -> int:
    data = _load_dataset(args)
    net, history = _train_one(args, data, args.rank)
    write_history_csv(_out_path(args, "history.csv"), history)
    tensor_io.save_checkpoint(_out_path(args, "checkpoint.txt"), net)
    if history:
        last = history[-1]
        print(f"final epoch {last.epoch}: loss {last.loss:.6f} "
              f"accuracy {last.accuracy:.4f}")
    else:
        print("no epochs trained")
    return 0


def cmd_boundary(args) -> int:
    if not args.checkpoint:
        raise ValueError("boundary needs --checkpoint")
    net = tensor_io.load_checkpoint(args.checkpoint)
    bounds = _number_list(args.bounds, "--bounds", float)
    if len(bounds) != 4:
        raise ValueError("--bounds needs xmin,xmax,ymin,ymax")
    labels, xs, ys = decision_grid(net, bounds, args.resolution)
    if args.emit == "csv":
        write_grid_csv(_out_path(args, "grid.csv"), labels, xs, ys)
    elif args.emit == "svg":
        _write_grid_svg(_out_path(args, "grid.svg"), labels)
    else:
        raise ValueError(f"unknown emit format {args.emit!r}")
    return 0


def _write_grid_svg(path, labels) -> None:
    res = labels.shape[0]
    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
            f'viewBox="0 0 {res} {res}" shape-rendering="crispEdges">']
    for iy in range(res):
        for ix in range(res):
            color = _GRID_COLORS[int(labels[iy, ix]) % len(_GRID_COLORS)]
            rows.append(f'<rect x="{ix}" y="{res - 1 - iy}" width="1" height="1" '
                        f'fill="{color}"/>')
    rows.append("</svg>")
    Path(path).write_text("\n".join(rows) + "\n")


def cmd_sweep(args) -> int:
    ranks = _number_list(args.ranks, "--ranks")
    if not ranks:
        raise ValueError("sweep needs at least one rank in --ranks")
    if min(ranks) < 1:
        raise ValueError(f"--ranks must all be at least 1, got {min(ranks)}")
    data = _load_dataset(args)
    rows = []  # written only once every rank has trained
    for rank in ranks:
        net, history = _train_one(args, data, rank)
        core_params, total_params = count_parameters(net)
        loss = f"{history[-1].loss:.17g}" if history else ""
        acc = f"{history[-1].accuracy:.17g}" if history else ""
        rows.append([args.network, rank, core_params, total_params, loss, acc])
        if history:
            print(f"rank {rank}: params {core_params} loss {history[-1].loss:.4f} "
                  f"accuracy {history[-1].accuracy:.4f}")
    # every field as text: a run of no epochs leaves loss and accuracy empty
    tensor_io.write_csv(_out_path(args, "sweep.csv"),
                        ["network", "rank", "core_params", "total_params", "train_loss",
                         "train_accuracy"], "%s,%s,%s,%s,%s,%s\r\n", rows)
    return 0


def cmd_patches(args) -> int:
    if not args.image:
        raise ValueError("patches needs --image")
    with warnings.catch_warnings():  # an empty file is refused below
        warnings.simplefilter("ignore", UserWarning)
        image = np.loadtxt(args.image, delimiter=",", ndmin=2)
    if not image.size:
        raise ValueError(f"{args.image}: the image holds no pixel values")
    if not np.isfinite(image).all():
        raise ValueError(f"{args.image}: pixel values must be finite (found NaN or inf)")
    cfg = PatchConfig(image.shape[0], image.shape[1],
                      args.patch_height, args.patch_width, args.stride)
    matrix = patch_sequences(image[None], cfg)[0].T  # column j is patch j
    out = _out_path(args, "patches.csv")
    with open(out, "w") as fh:
        tensor_io.write_rows(fh, ",".join(["%.17g"] * matrix.shape[1]) + "\n", matrix)
    print(f"{matrix.shape[0]}x{matrix.shape[1]} patch matrix -> {out}")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "rank": cmd_rank,
    "train": cmd_train,
    "boundary": cmd_boundary,
    "sweep": cmd_sweep,
    "patches": cmd_patches,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        raw = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[raw.command](_resolve(raw))
    except (ValueError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
