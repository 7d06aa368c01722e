"""Span tracer for the traced benchmark run.

`Tracer.install` wraps every plain public function of the seven `qni_lab`
layers and rebinds each module-level name that refers to one, including the
names a module imported from another (`from .linalg import eigh_jacobi`) and
the entries of module-level dicts such as `harness._SEED_RUNNERS`. Classes are
left alone so `isinstance` still works; their methods count as self time of
the traced function that called them. `uninstall` restores every binding, so
untraced operations run the program exactly as shipped.

Spans live in flat arrays while operations run and are written out at the end.
A parent's self time is its duration minus its children's spans, less the
cost each child's wrapper spends outside its own span (`span_cost`), which
would otherwise be charged to the parent.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

import qni_lab
from qni_lab import bandit, harness, identify, linalg, module_net, qnn_core, transfer

LAYERS = ("qnn_core", "identify", "bandit", "transfer", "module_net", "linalg", "harness")
_MODULES = (qnn_core, identify, bandit, transfer, module_net, linalg, harness)

_FIT_FUNCTION = "qnn_core.train_gd"

# Calibration of span_cost: wrapped no-op calls per timing, and timings.
_CALIBRATION_CALLS = 20000
_CALIBRATION_REPEATS = 9


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.fits: list[tuple[int, bool]] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._wrappers = {}
        self._patches: list[tuple[object, object, object]] = []
        for layer, mod in zip(LAYERS, _MODULES):
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, on_result = self._stack, self.fits.append if name == _FIT_FUNCTION else None
        name_ids, parents, ops, starts, ends = self.name_id, self.parent, self.op, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result((int(result.iterations), bool(result.converged)))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        for mod in (*_MODULES, qni_lab):
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType):
                    self._patch(ns, attr, obj)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType):
                            self._patch(obj, key, val)

    def _patch(self, container, key, original) -> None:
        wrapper = self._wrappers.get(original)
        if wrapper is not None:
            container[key] = wrapper
            self._patches.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def span_cost(self) -> float:
        """Seconds per call a wrapper spends outside its own span.

        Array appends, stack push and pop and part of the clock calls fall
        between the caller and the span, so they land in the caller's self
        time. Timed on a wrapped no-op, net of an empty loop of the same
        length; the median of several timings.
        """
        noop = self._wrap("calibration.noop", lambda: None)
        clock = time.perf_counter
        costs = []
        for _ in range(_CALIBRATION_REPEATS):
            first = len(self.start)
            t0 = clock()
            for _ in range(_CALIBRATION_CALLS):
                noop()
            t1 = clock()
            for _ in range(_CALIBRATION_CALLS):
                pass
            t2 = clock()
            spans = sum(self.end[i] - self.start[i] for i in range(first, len(self.start)))
            costs.append(((t1 - t0) - (t2 - t1) - spans) / _CALIBRATION_CALLS)
            for arr in (self.name_id, self.parent, self.op, self.start, self.end):
                del arr[first:]
        self.names.pop()
        return max(statistics.median(costs), 0.0)

    def summary(self, span_cost: float) -> dict:
        """Self time, call counts and fit counters, summed over all spans.

        A span's self time is its duration minus the durations of its direct
        children and `span_cost` per direct child, keyed both by layer and by
        `layer.function`. `raw_self_s` leaves `span_cost` out.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        n_children = array("l", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                n_children[p] += 1
        self_s, raw_self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i in range(n):
            name = self.names[self.name_id[i]]
            raw = self.end[i] - self.start[i] - child[i]
            for key in (name, name.split(".", 1)[0]):
                raw_self_s[key] += raw
                self_s[key] += raw - span_cost * n_children[i]
                calls[key] += 1
        return {
            "self_s": dict(self_s),
            "raw_self_s": dict(raw_self_s),
            "calls": dict(calls),
            "fits": len(self.fits),
            "gd_iters": sum(it for it, _ in self.fits),
            "gd_converged": sum(conv for _, conv in self.fits),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")
