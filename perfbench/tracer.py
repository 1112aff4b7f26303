"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of the traced vfuncta
modules with wrappers that record one span (name, start, end, parent)
per call, plus the counts the benchmark reports: output bytes of tensor
ops, bytes hashed, rows through the network, and the rise of the
process's peak RSS inside selected spans. Names imported by another
module at import time (`training.backward`, `codec.load_model`,
`manifest.fnv1a64`, `cli.train`, ...) are re-bound too, because the
caller looks the function up under its own module's name.

A span's self time is its duration minus the durations of its direct
children; children always lie inside their parent, so the self times of
all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import resource
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("tensor", "model", "training", "codec", "container",
                 "manifest", "data", "metrics")

# layer methods traced alongside the module-level functions
METHODS = (("model", "MetaModel", "replace_params"),)

TENSOR_OPS = ("matmul", "add_row", "add_blocks", "sine_act", "squared_error",
              "group_mean", "mean", "reshape")

RSS_SPANS = ("codec.encode_video", "training.meta_step", "codec.decode_video")

_NAME, _START, _END, _PARENT, _COUNT, _RSS = range(6)


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nbytes(obj) -> int:
    data = getattr(obj, "data", None)
    return int(getattr(data, "nbytes", 0))


def _graph_bytes(root) -> int:
    """Bytes held by every array reachable from `root` through the tape."""
    seen, stack, total = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        total += _nbytes(node)
        stack.extend(getattr(node, "_parents", ()))
    return total


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _hashed_len(args, kwargs) -> int:
    data = _arg(args, kwargs, 0, "data")
    try:
        return memoryview(data).nbytes
    except TypeError:
        return len(bytes(data))


def _file_size(args, kwargs) -> int:
    try:
        return os.stat(_arg(args, kwargs, 0, "path")).st_size
    except (OSError, TypeError):
        return 0


def _rows(args, kwargs) -> int:
    coords = _arg(args, kwargs, 3, "coords")
    return int(getattr(coords, "shape", (0,))[0])


# count taken from a call's arguments before it runs
_COUNT_BEFORE = {
    "container.fnv1a64": _hashed_len,
    "manifest.hash_file": _file_size,
    "model.forward_batch": _rows,
}


class Tracer:
    """Spans and counts for one traced pass; holds everything in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.graph_bytes_at_backward = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, count: int = 0, rss_mb: float = 0.0) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, count, rss_mb]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        count_before = _COUNT_BEFORE.get(name)
        is_op = name.startswith("tensor.") and name != "tensor.backward"
        is_backward = name == "tensor.backward"
        track_rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            if is_backward:
                self.graph_bytes_at_backward = max(
                    self.graph_bytes_at_backward, _graph_bytes(_arg(args, kwargs, 0, "loss")))
            span = self._open(name, count_before(args, kwargs) if count_before else 0,
                              maxrss_mb() if track_rss else 0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if is_op:
                span[_COUNT] = _nbytes(out)
            if track_rss:
                span[_RSS] = maxrss_mb() - span[_RSS]
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules where it is looked up."""
        import vfuncta  # noqa: F401  (loads every submodule)

        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"vfuncta.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        # re-bind each wrapped function under every name that refers to it
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "vfuncta" and not mod_name.startswith("vfuncta."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"vfuncta.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds, summed counts and RSS rise."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0,
                                   "rss_rise_mb": 0.0})
        for i, s in enumerate(self.spans):
            row = out[s[_NAME]]
            dur = s[_END] - s[_START]
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            row["count"] += s[_COUNT]
            row["rss_rise_mb"] += s[_RSS]
        return dict(out)

