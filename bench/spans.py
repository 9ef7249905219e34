"""In-memory span tracing of ttnets public functions, installed from outside.

``Tracer.install`` wraps each named function and rebinds every reference to
the original function object in the ``ttnets.*`` module namespaces, because
``cli`` and ``rank_analysis`` import functions by name.  Each call records a
span (name, start, end, parent).  The wrapper only appends to arrays; self
time -- a span's duration minus the time its child spans cover -- and every
other total are worked out from the spans afterwards.  A name that no
longer resolves is listed in ``Tracer.absent`` and reads as zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.notes: dict[str, dict[int, object]] = {}  # name -> span index -> hook value
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, traced)

    def wrap(self, name: str, fn, hook=None):
        """``hook(args)``, when given, is called per span; its value is kept
        in ``notes[name][span index]``."""
        nid = len(self.names)
        self.names.append(name)
        notes = self.notes.setdefault(name, {})
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if hook is not None:
                    notes[index] = hook(args)

        return traced

    def install(self, targets: dict) -> None:
        """Wrap ``{"module.function": hook or None}`` in every ttnets namespace."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ttnets" or key.startswith("ttnets."))]
        for qualified, hook in targets.items():
            module_name, func_name = qualified.rsplit(".", 1)
            module = sys.modules.get(f"ttnets.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.absent.append(qualified)
                continue
            traced = self.wrap(qualified, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, traced))
        self._bind(traced=True)

    def _bind(self, traced: bool) -> None:
        for mod, attr, original, wrapper in self._bindings:
            setattr(mod, attr, wrapper if traced else original)

    def uninstall(self) -> None:
        self._bind(traced=False)
        self._bindings.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own calls into ttnets without recording them."""
        self._bind(traced=False)
        try:
            yield
        finally:
            self._bind(traced=True)

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.ids, dtype=np.int32).astype(np.int64),
                "parent": np.frombuffer(self.parents, dtype=np.int32).astype(np.int64),
                "start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64)}

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        return duration - child

    def write(self, path) -> None:
        """Write every span: name id, parent span index (-1: none), start, end."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


class Totals:
    """Calls and self time per function over the spans with index in [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        a = tracer.arrays()
        self.tracer, self.lo, self.hi = tracer, lo, hi
        self.name_id = a["name_id"][lo:hi]
        self.parent = a["parent"][lo:hi]
        self.own = tracer.self_times()[lo:hi]
        self.index = {name: i for i, name in enumerate(tracer.names)}

    def _mask(self, name: str) -> np.ndarray:
        return self.name_id == self.index.get(name, -1)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def self_s(self, name: str) -> float:
        return float(self.own[self._mask(name)].sum())

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly from ``parent_name``."""
        all_ids = np.frombuffer(self.tracer.ids, dtype=np.int32)
        mask = self._mask(name) & (self.parent >= 0)
        parents = all_ids[self.parent[mask]]
        return int(np.count_nonzero(parents == self.index.get(parent_name, -1)))

    def noted(self, name: str):
        """(span self time, hook value) for each span of ``name`` in range."""
        notes = self.tracer.notes.get(name, {})
        return [(float(self.own[i - self.lo]), value) for i, value in notes.items()
                if self.lo <= i < self.hi]
