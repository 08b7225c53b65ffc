"""Outside-in span tracer for the hetembed package.

``Tracer.install`` wraps every public module-level function of the package's
layer modules and rebinds the wrapper in every ``hetembed.*`` module that
holds the function. The modules import each other's functions by name
(``optim`` calls ``exp_map``, ``reconstruct`` calls ``forman``), so rebinding
only the home module would miss those internal calls. Nothing in ``src/`` is
edited; ``uninstall`` puts the original functions back.

A span is ``(name, start_ns, end_ns, parent, counts)``; ``parent`` is the index
of the enclosing span or -1. Counts come from the hooks in ``COUNTERS``, which
read a call's arguments and result at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("graph", "manifold", "optim", "metrics", "reconstruct", "randgraph", "clique",
          "fileio", "cli")


def _gradient_counts(call, result):
    pairs = call.arguments["pairs"].shape[0]
    width = sum(f.block_dim for f in call.arguments["emb"].spec.factors)
    # xi and xj gathered for every factor, float64: computed, not measured
    return {"pairs": pairs, "skipped_pairs": result.skipped_pairs,
            "gather_bytes": 2 * 8 * pairs * width}


def _write_embedding_counts(call, result):
    return {"bytes": os.path.getsize(call.arguments["path"])}


def _correction_counts(call, result):
    log = result.correction_log
    return {"worklist_nodes": len(log), "accepted": sum(1 for _, _, ok in log if ok)}


def _clique_counts(call, result):
    return {"exact": int(result[1])}


COUNTERS = {
    "optim.gradients": _gradient_counts,
    "fileio.write_embedding": _write_embedding_counts,
    "reconstruct.curvature_correction": _correction_counts,
    "clique.max_clique": _clique_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one CLI command."""
        sid = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, start, None)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int, counts: dict | None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (name, start, end, self._stack[-1] if self._stack else -1, counts)

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter_ns()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    counts = hook(signature.bind(*args, **kwargs), result)
                return result
            finally:
                self._close(sid, name, start, counts)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hetembed.{layer}"]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "hetembed"]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrappers[id(value)])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()


def aggregate(spans: list[tuple], first: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ns, self ns and summed counts, over spans[first:]."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid in range(first, len(spans)):
        name, start, end, _, counts = spans[sid]
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += end - start - child_ns[sid]
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
