"""Layer tracing from outside the package.

Every probe here replaces a public eigenbreak function by a wrapper, in
every ``eigenbreak.*`` module namespace that holds it, and puts the
original back on exit.  Nothing under ``src/`` changes.  Layers are named
``<module>.<function>`` after the package modules.

* :class:`Tracer` records one span per call (name, start, end, parent, root)
  in memory; a layer's self time is its span's duration minus that of its
  child spans.  It runs in one process, so the traced run is serial.
* :class:`PivotCounter` and :class:`ReplicateProbe` keep their records in
  shared memory, so pool workers forked from this process report into
  them: pivot builds, and per-replicate outcomes and work time.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: traced layers: metric prefix -> (defining module, attribute)
LAYERS = {
    "datagen.generate": ("eigenbreak.datagen", "generate"),
    "changepoint.estimate": ("eigenbreak.changepoint", "estimate_changepoint"),
    "selfnorm.diff_path": ("eigenbreak.selfnorm", "diff_path"),
    "selfnorm.eigen_paths": ("eigenbreak.selfnorm", "sequential_eigensystem_paths"),
    "selfnorm.self_normalizer": ("eigenbreak.selfnorm", "self_normalizer"),
    "selfnorm.decide": ("eigenbreak.selfnorm", "decide"),
    "selfnorm.simulate_pivot": ("eigenbreak.selfnorm", "simulate_pivot"),
    "harness.run_replicate": ("eigenbreak.harness", "run_replicate"),
    "cli.ingest": ("eigenbreak.cli", "ingest_daily"),
    "funcspace.project": ("eigenbreak.funcspace", "project"),
    "eigensys.eigendecompose": ("eigenbreak.eigensys", "eigendecompose"),
    "covkern.sequential_kernel": ("eigenbreak.covkern", "sequential_kernel"),
}


class Patcher:
    """Swap a function for a wrapper everywhere the package refers to it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "eigenbreak" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def wrap_classmethod(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, classmethod(make_wrapper(original.__func__)))

    def wrap_attr(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one serial process."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self.tensor_bytes_max = 0
        #: wrap targets the package no longer has
        self.missing: list[str] = []
        self._stack: list[tuple[int, int, str]] = []
        self._next_id = 1

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent, root, _ = self._stack[-1] if self._stack else (0, sid, "")
            self._stack.append((sid, root, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, parent, root, start, end))
        return traced

    @contextlib.contextmanager
    def installed(self):
        patcher = Patcher()
        for layer, (module_name, attr) in LAYERS.items():
            patcher.wrap(module_name, attr, lambda fn, layer=layer: self._layer(layer, fn))
        cls = sys.modules["eigenbreak.selfnorm"].PivotDistribution
        patcher.wrap_classmethod(cls, "load", lambda fn: self.span("cli.pivot_load", fn))
        patcher.wrap("eigenbreak.eigensys", "gap_warning", self._count_gap_warnings)
        patcher.wrap_attr(np.linalg, "eigh", self._count_eigh)
        patcher.wrap_attr(np.linalg, "eigvalsh", self._count_eigh)
        self.missing = patcher.missing
        try:
            yield self
        finally:
            patcher.restore()

    def _layer(self, name: str, fn):
        traced = self.span(name, fn)
        if name == "changepoint.estimate":
            def estimate(sample, *args, **kwargs):
                n, r = np.shape(getattr(sample, "coeffs", sample))[:2]
                self.tensor_bytes_max = max(self.tensor_bytes_max, n * r * r * 8)
                return traced(sample, *args, **kwargs)
            return estimate
        if name == "selfnorm.decide":
            def decide(*args, **kwargs):
                result = traced(*args, **kwargs)
                if result.ratio is None:
                    self.counts["degenerate"] += 1
                return result
            return decide
        return traced

    def _count_gap_warnings(self, fn):
        def gap_warning(*args, **kwargs):
            note = fn(*args, **kwargs)
            if note is not None:
                self.counts["gap_warning"] += 1
            return note
        return gap_warning

    def _count_eigh(self, fn):
        def eigh(a, *args, **kwargs):
            if self._stack:
                matrices = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
                self.counts["eigh_matrices:" + self._stack[-1][2]] += matrices
            return fn(a, *args, **kwargs)
        return eigh

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per layer."""
        spans = self.spans
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, _, _, start, end in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time.get(sid, 0.0)
        return dict(out)

    def dump(self, path) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, root, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "root": root,
                                     "start": start - t0, "end": end - t0}) + "\n")


class PivotCounter:
    """Pivot builds and their seconds, counted in this process and its forked workers."""

    def __init__(self):
        self._lock = multiprocessing.Lock()
        self._data = multiprocessing.RawArray("d", 2)

    @property
    def builds(self) -> int:
        return int(self._data[0])

    @property
    def seconds(self) -> float:
        return self._data[1]

    @contextlib.contextmanager
    def installed(self):
        def make(fn):
            def simulate_pivot(*args, **kwargs):
                start = time.perf_counter()
                pivot = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                with self._lock:
                    self._data[0] += 1
                    self._data[1] += elapsed
                return pivot
            return simulate_pivot
        patcher = Patcher()
        patcher.wrap("eigenbreak.selfnorm", "simulate_pivot", make)
        try:
            yield self
        finally:
            patcher.restore()


class ReplicateProbe:
    """Per-replicate (rejected, theta_hat, seconds) of one experiment, any worker count.

    Records live in shared memory indexed by (cell, replicate), so forked
    pool workers fill them in place; cell wall times are taken in this
    process around ``harness.cell_outcomes``.
    """

    def __init__(self, config):
        self.cells = [(n, m) for n in config.n_list for m in config.magnitudes]
        self._index = {cell: i for i, cell in enumerate(self.cells)}
        self.replicates = config.replicates
        size = len(self.cells) * config.replicates
        self._records = multiprocessing.RawArray("d", 3 * size)
        self._filled = multiprocessing.RawArray("b", size)
        self.cell_seconds: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        def make_replicate(fn):
            def run_replicate(config, n_obs, magnitude, rep):
                start = time.perf_counter()
                rejected, theta_hat = fn(config, n_obs, magnitude, rep)
                elapsed = time.perf_counter() - start
                slot = self._index[(n_obs, magnitude)] * self.replicates + rep
                self._records[3 * slot : 3 * slot + 3] = [float(rejected), theta_hat, elapsed]
                self._filled[slot] = 1
                return rejected, theta_hat
            return run_replicate

        def make_cell(fn):
            def cell_outcomes(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.cell_seconds.append(time.perf_counter() - start)
            return cell_outcomes

        patcher = Patcher()
        patcher.wrap("eigenbreak.harness", "run_replicate", make_replicate)
        patcher.wrap("eigenbreak.harness", "cell_outcomes", make_cell)
        try:
            yield self
        finally:
            patcher.restore()

    @property
    def complete(self) -> bool:
        return all(self._filled)

    def outcomes(self) -> list[tuple[bool, float]]:
        rec = self._records
        return [(rec[3 * i] == 1.0, rec[3 * i + 1]) for i in range(len(self._filled))]

    def work_seconds(self) -> float:
        rec = self._records
        return sum(rec[3 * i + 2] for i in range(len(self._filled)))
