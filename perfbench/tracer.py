"""Span tracer installed around the public functions of each deepntk layer.

``Tracer.install`` replaces every reference to a listed function in every
loaded ``deepntk`` module with a wrapper, so calls through any import site
(``from .kernels import dense_layer_arrays`` in ``cli``, ``regression`` and
``spectral``, for instance) are recorded.  A span holds the function, start,
end, parent span and op id, plus a work count computed from the arguments
(pairs, pair-layers, steps, bytes).  Spans stay in memory; ``summary``
turns them into the per-layer metrics when the run ends.

Self time is a span's duration minus the durations of its direct children;
the process is single-threaded, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _gauss2_work(a, result):
    # the integrand is evaluated order^2 times per pair
    pairs = _size(a["q1"], a["q2"], a["c"])
    return pairs, pairs * a["rule"].order ** 2


def _gauss2_one(a, result):
    return 1, a["rule"].order ** 2


def _gauss1_one(a, result):
    return 1, a["rule"].order


def _dense_work(a, result):
    return _size(a["qx0"], a["qxp0"], a["qcov0"]) * int(a["L"]), 0


def _steps(a, result):
    # the gamma iterators apply the correlation map depth - 1 times
    return int(a["depth"]) - 1, 0


def _file_bytes(path, *extra_suffixes):
    return sum(os.path.getsize(path + s) for s in ("",) + extra_suffixes
               if os.path.exists(path + s))


def _read_bytes(a, result):
    return _file_bytes(a["path"]), 0


def _csv_bytes(a, result):
    return _file_bytes(a["path"], ".schema.json"), 0


#: (module, function, work-count function or None)
TARGETS = (
    ("gaussmath", "expect2_pairs", _gauss2_work),
    ("gaussmath", "expect2", _gauss2_one),
    ("gaussmath", "expect1", _gauss1_one),
    ("activations", "phiphi_expectation", None),
    ("activations", "phiprime_expectation", None),
    ("activations", "relu_one_minus_f", None),
    ("phase", "eoc_curve", None),
    ("phase", "classify", None),
    ("kernels", "dense_layer_arrays", _dense_work),
    ("kernels", "limiting_kernel", None),
    ("regression", "build_gram", None),
    ("regression", "predict", None),
    ("regression", "evolve", None),
    ("asymptotics", "check_expansion", _steps),
    ("asymptotics", "fit_rate", None),
    ("spectral", "zonal_profile", None),
    ("spectral", "decompose", None),
    ("empirical", "sample_net", None),
    ("empirical", "empirical_ntk", None),
    ("cli", "load_dataset", _read_bytes),
    ("cli", "write_csv", _csv_bytes),
    ("cli", "write_json", None),
)


class Tracer:
    """In-memory span recorder.  One per process; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        # span i: name id, start, end, parent span (-1 for none), op id, work, work2
        self.spans: list[tuple | None] = []
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, work_fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                work, work2 = (0, 0) if work_fn is None else \
                    work_fn(bind(*args, **kwargs).arguments, result)
                spans[idx] = (nid, t0, t1, parent, self._op, work, work2)

        return wrapper

    def install(self) -> None:
        """Wrap every TARGETS function at every deepntk import site."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "deepntk" or n.startswith("deepntk.")]
        for modname, fname, work_fn in TARGETS:
            original = getattr(sys.modules[f"deepntk.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, work_fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def op(self, name: str):
        """A top-level ``cli.op.<name>`` span around one op."""
        self.op_names.append(name)
        self._op = len(self.op_names) - 1
        nid = self._name_id(f"cli.op.{name}")
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, -1, self._op, 0, 0)
            self._op = -1

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return child

    def summary(self) -> dict:
        """Per-function aggregates: calls, inclusive s, self s, work sums."""
        child = self._child_time()
        agg = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "work2": 0}
               for name in self.names}
        for i, (nid, t0, t1, _parent, _op, work, work2) in enumerate(self.spans):
            a = agg[self.names[nid]]
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
            a["work"] += work
            a["work2"] += work2
        return agg

    def coverage(self) -> dict:
        """Per op: share of its wall time covered by its direct child spans."""
        child = self._child_time()
        out = {}
        for i, (nid, t0, t1, parent, op, _w, _w2) in enumerate(self.spans):
            if parent < 0 and self.names[nid].startswith("cli.op."):
                out[self.op_names[op]] = child[i] / (t1 - t0) if t1 > t0 else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write the raw spans (parallel arrays) as a compressed .npz file."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path, names=np.array(self.names), op_names=np.array(self.op_names),
            name_id=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int32),
            work=np.array(cols[5], dtype=np.int64),
            work2=np.array(cols[6], dtype=np.int64))

