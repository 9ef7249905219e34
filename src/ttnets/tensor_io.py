"""Plain-text interchange files for tensors, factors and checkpoints.

All files are line-oriented ASCII.  Every text file the package reads
(these files, and the CLI's ``--config`` and image CSV) is read by
:func:`read_text`, which refuses a file that does not decode as text,
naming it.  Values are written one per line with
17 significant digits, which round-trips float64 exactly.  Arrays are
flattened row-major (last index fastest).  Every array is a block: a
``tag: dim1 dim2 ...`` header line followed by its values.  The writers
format a chunk of ``WRITE_CHUNK`` values with one ``%`` template and one
write, in the bytes of one ``f"{v:.17g}"`` per value.  Before opening the
file they refuse what the readers refuse: a value that is not finite or
an axis of length 0 (the error names the block's tag; a reader names the
line of a dimension below 1), for a dense tensor a 0-d array, and a
stack (:func:`~ttnets.networks.stack_networks`): a file holds one tensor
or network, so arrays with leading axes are refused, naming the axes.

The CSV artifacts (history, grid, report, sweep) go through the same
writer, :func:`write_csv`: a header line, then rows with floats at
``%.17g``, CRLF line ends and no field quoted, as ``csv``'s excel dialect
writes them.  The patch matrix has no header and LF line ends, and the
SVG decision grid writes its ``<rect/>`` rows through :func:`write_rows`.

Dense tensor::

    shape: n1 n2 ... nd
    <prod(n) values>

Each factorized format has one block codec, shared by its tensor file
and by network checkpoints: the arrays of the container's parameter
list, in order, each tagged by its ndim:

* tensor train -- d ``core: r_prev n r_next`` blocks with chained ranks,
  r_0 = 1 and r_d the output leg size (1 for a plain tensor, the class
  count in a checkpoint);
* separable sum -- d-1 ``factor: n r`` blocks, then the last factor,
  which carries the output leg, as ``factor3: n r C``; a factor file
  spells a unit leg (C = 1, a plain tensor) ``factor: n r``, and a 2-way
  last block reads back as a leg of 1;
* tree -- its 2d-1 nodes: d ``leaf: n r`` blocks in leaf order (leaf k
  reading mode ``ht_leaf_modes(d)[k]``), then ``node: r_left r_right
  r_out`` blocks bottom-up and left to right, node d+t merging nodes 2t
  and 2t+1; the root comes last, its r_out the output leg size.

A factor file (``save_tensor``, ``load_tensor``) puts one header line
naming its format before the blocks; ``load_tensor`` reads the format
from it::

    tt: d            cp: d r            ht: d

Network checkpoint::

    ttnets-checkpoint v1
    kind: tt | cp | ht
    classes: C
    input: d n
    order: i_1 ... i_d           (only for networks with an input order)
    activation: relu | identity | sigmoid
    A: m n
    <values>
    b: m
    <values>
    then the weight blocks of the ``kind`` codec, with mode size m.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

from .decompositions import FORMATS, CPTensor, HTTensor, TTTensor
from .networks import FeatureMap, ScoreNetwork

__all__ = [
    "load_checkpoint",
    "load_dense",
    "load_tensor",
    "read_text",
    "save_checkpoint",
    "save_dense",
    "save_tensor",
    "write_csv",
    "write_rows",
]

CHECKPOINT_HEADER = "ttnets-checkpoint v1"

# Block tag of each format's arrays by ndim; the ndim of each block tag (None: any).
_TAGS = {"tt": {3: "core"}, "cp": {2: "factor", 3: "factor3"}, "ht": {2: "leaf", 3: "node"}}
_BLOCK_DIMS = {"shape": None, "A": 2, "b": 1,
               **{t: n for tags in _TAGS.values() for n, t in tags.items()}}


# Rows formatted per ``%`` and per write.  A chunk's floats, tuple and
# string are transient; 1024 rows keep them to a few hundred KB, so a block
# of any size leaves the peak memory where it was, and larger chunks
# measured no faster.
WRITE_CHUNK = 1 << 10


def write_rows(fh, row: str, values) -> None:
    """Write each row of ``values`` (one per entry when 1-D) through the
    ``%``-template ``row``, one format and one ``write`` per chunk of rows.

    ``"%.17g" % v`` and ``f"{v:.17g}"`` call the same formatter, so the
    bytes equal those of one format per value.
    """
    values = np.asarray(values)
    for start in range(0, len(values), WRITE_CHUNK):
        chunk = values[start:start + WRITE_CHUNK]
        fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_csv(path, header, row: str, values) -> None:
    """A CSV artifact: the ``header`` names, then ``values`` through :func:`write_rows`."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        write_rows(fh, row, values)


def _write_file(path, head: str, blocks) -> None:
    """Write ``head``, then each ``(tag, array)`` block: a header line and
    the values.  An empty axis or a non-finite value is refused before the
    file is opened, as the readers would refuse it."""
    blocks = [(tag, np.asarray(arr, dtype=np.float64)) for tag, arr in blocks]
    for tag, arr in blocks:
        if 0 in arr.shape:
            raise ValueError(f"{path}: '{tag}' block has an empty axis, shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"{path}: '{tag}' block holds {arr[~finite][0]}, "
                             f"not a finite number")
    with open(path, "w") as fh:
        fh.write(head)
        for tag, arr in blocks:
            fh.write(f"{tag}: " + " ".join(str(n) for n in arr.shape) + "\n")
            write_rows(fh, "%.17g\n", arr.ravel())


def read_text(path) -> str:
    """The text of ``path``, line ends read as ``\\n``; a file that does not
    decode as text is refused with ``PATH: not a text file (REASON)``."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file ({exc.reason})") from None


class _LineReader:
    def __init__(self, path):
        self.path = path
        self.lines = [ln for ln in map(str.strip, read_text(path).split("\n")) if ln]
        self.pos = 0

    def file_line(self, index: int) -> int:
        """Line number in the file of kept (non-blank) line ``index``; read
        again only to word an error."""
        kept = (i for i, ln in enumerate(read_text(self.path).split("\n"), 1) if ln.strip())
        return next(itertools.islice(kept, index, None))

    def next_line(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ValueError(f"{self.path}: unexpected end of file, expected {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fields(self, tag: str, count: int | None) -> list[str]:
        """The fields after ``tag`` on the next line, ``count`` of them unless None."""
        line = self.next_line(f"'{tag}' header")
        if not line.startswith(tag):
            raise ValueError(f"{self.path}: expected '{tag}' header, got {line!r}")
        fields = line[len(tag):].split()
        if count is not None and len(fields) != count:
            raise ValueError(f"{self.path}: '{tag}' header needs {count} fields, got {fields}")
        return fields

    def header(self, tag: str, count: int | None) -> list[int]:
        fields = self.fields(tag, count)
        try:
            return [int(tok) for tok in fields]
        except ValueError:
            raise ValueError(f"{self.path}: malformed header {self.lines[self.pos - 1]!r}") \
                from None

    def has(self, tag: str) -> bool:
        return self.pos < len(self.lines) and self.lines[self.pos].startswith(tag)

    def values(self, shape) -> np.ndarray:
        size = math.prod(shape)  # a Python int: np.prod wraps in int64
        start = self.pos
        tokens = self.lines[start:start + size]
        try:
            out = np.fromiter(map(float, tokens), np.float64, len(tokens))
        except ValueError:
            for token in tokens:  # the first bad token, for the message
                try:
                    float(token)
                except ValueError:
                    raise ValueError(f"{self.path}: expected a number, got {token!r}") \
                        from None
            raise
        self.pos += len(tokens)
        if len(tokens) < size:
            self.next_line("a value")  # raises: the file ends inside the block
        if not np.isfinite(out).all():
            bad = start + int(np.flatnonzero(~np.isfinite(out))[0])
            raise ValueError(f"{self.path}: line {self.file_line(bad)}: value "
                             f"{self.lines[bad]!r} is not a finite number")
        return out.reshape(shape)

    def block(self, *tags: str) -> np.ndarray:
        """The next block, whose tag is one of ``tags``."""
        tag = next((t for t in tags if self.has(f"{t}:")), tags[0])
        shape = self.header(f"{tag}:", _BLOCK_DIMS[tag])
        if min(shape, default=0) < 1:
            raise ValueError(f"{self.path}: line {self.file_line(self.pos - 1)}: '{tag}' "
                             f"block needs dimensions of at least 1, got {shape}")
        return self.values(shape)

    @contextlib.contextmanager
    def naming_errors(self):
        """Prefix the path to errors raised by the objects built from the blocks."""
        try:
            yield
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def expect_end(self) -> None:
        if self.pos != len(self.lines):
            raise ValueError(f"{self.path}: trailing content at line "
                             f"{self.file_line(self.pos)}")


# ---------------------------------------------------------------------------
# block codecs, one per format


def _blocks(path, t: TTTensor | CPTensor | HTTensor, arrays) -> list:
    """The ``(tag, array)`` blocks of ``arrays``, those of ``t`` or its
    file spelling; a stack of ``t`` is refused."""
    if t.lead:
        raise ValueError(f"{path}: cannot save a stack with leading axes {t.lead}: a file "
                         f"holds one tensor or network")
    return [(_TAGS[t.kind][arr.ndim], arr) for arr in arrays]


def _read_tensor(reader: _LineReader, kind: str, d: int):
    """The ``kind`` container over its next d blocks (2d-1 for a tree)."""
    if kind not in FORMATS:
        raise ValueError(f"{reader.path}: unsupported network kind {kind!r}")
    count = 2 * d - 1 if kind == "ht" else d
    blocks = [reader.block(*_TAGS[kind].values()) for _ in range(count)]
    if kind == "cp" and blocks[-1].ndim == 2:
        blocks[-1] = blocks[-1][..., None]  # ``factor: n r``: a unit leg
    with reader.naming_errors():
        return FORMATS[kind](blocks)


# ---------------------------------------------------------------------------
# dense tensors and factorized formats


def save_dense(path, x) -> None:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or 0 in x.shape:
        raise ValueError(f"{path}: a dense tensor needs at least one axis and no empty "
                         f"axis, got shape {x.shape}")
    _write_file(path, "", [("shape", x)])


def load_dense(path) -> np.ndarray:
    reader = _LineReader(path)
    x = reader.block("shape")
    reader.expect_end()
    return x


def _tensor_header(t) -> list[int]:
    """The numbers on a factor file's first line: d, then the rank for cp."""
    return [t.ndim, t.rank] if t.kind == "cp" else [t.ndim]


def save_tensor(path, t: TTTensor | CPTensor | HTTensor) -> None:
    arrays = t.parameters()
    if t.kind == "cp" and t.num_classes == 1:
        arrays[-1] = arrays[-1][..., 0]  # spelled ``factor: n r``
    _write_file(path, f"{t.kind}: " + " ".join(str(n) for n in _tensor_header(t)) + "\n",
                _blocks(path, t, arrays))


def load_tensor(path) -> TTTensor | CPTensor | HTTensor:
    """The tensor of a factor file, in the format its first line names."""
    reader = _LineReader(path)
    kind = next((k for k in FORMATS if reader.has(f"{k}:")), None)
    if kind is None:
        raise ValueError(f"{path}: not a factor file (no 'tt:', 'cp:' or 'ht:' header)")
    header = reader.header(f"{kind}:", None)
    t = _read_tensor(reader, kind, (header or [0])[0])
    reader.expect_end()
    if header != _tensor_header(t):
        raise ValueError(f"{path}: '{kind}:' header {header} inconsistent with the blocks, "
                         f"which give {_tensor_header(t)} (d, then the rank for cp)")
    return t


# ---------------------------------------------------------------------------
# network checkpoints


def save_checkpoint(path, net: ScoreNetwork) -> None:
    """Persist a network: feature map, input order and weight blocks."""
    fm = net.feature_map
    head = (f"{CHECKPOINT_HEADER}\nkind: {net.kind}\nclasses: {net.num_classes}\n"
            f"input: {net.num_patches} {fm.input_size}\n")
    if net.input_order is not None:
        head += "order: " + " ".join(str(i) for i in net.input_order) + "\n"
    head += f"activation: {fm.activation}\n"
    _write_file(path, head, [("A", fm.A), ("b", fm.b),
                             *_blocks(path, net.weights, net.weights.parameters())])


def load_checkpoint(path) -> ScoreNetwork:
    reader = _LineReader(path)
    if reader.next_line("checkpoint header") != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not a {CHECKPOINT_HEADER!r} file")
    (kind,) = reader.fields("kind:", 1)
    (classes,) = reader.header("classes:", 1)
    d, n = reader.header("input:", 2)
    order = tuple(reader.header("order:", None)) if reader.has("order:") else None
    (activation,) = reader.fields("activation:", 1)
    a, b = reader.block("A"), reader.block("b")
    weights = _read_tensor(reader, kind, d)
    reader.expect_end()
    if a.shape[1:] != (n,):
        raise ValueError(f"{path}: input size {n} does not match A of shape {a.shape}")
    if weights.num_classes != classes:
        raise ValueError(f"{path}: {classes} classes declared, the weights hold "
                         f"{weights.num_classes}")
    with reader.naming_errors():
        fm = FeatureMap(A=a, b=b, activation=activation)
        return ScoreNetwork(feature_map=fm, weights=weights, input_order=order)
