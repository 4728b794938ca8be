"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces the public qlesim functions that ``qlesim.cli``
and ``qlesim.runner`` call into (the names bound in those two modules, plus
``TogglingFunction.shifted``) with wrappers that record one span per call, and
puts the originals back when the block ends.  A layer is named after the
module that defines the function.  ``noise`` and ``rng`` calls are left
unwrapped, so their time counts as ``runner`` self time.

Spans stay in memory as ``(id, parent, op, name, start, end)`` tuples until
``write`` puts them on disk; ``summarize`` derives busy and self times from
them.  Spans opened on a worker thread of the sweep pool hang under the op's
``runner.run_scenario`` span.
"""

import functools
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("config", "runner", "state", "sequences", "analysis", "fitting", "output")
BUSY_LAYERS = ("config", "state", "sequences", "analysis", "fitting", "output")
SELF_LAYERS = ("cli", "runner")
WRITERS = ("emit_csv", "emit_json_table", "write_json", "write_json_atomic")


def wrap_targets():
    """(owner, attribute, layer) for every function the tracer replaces."""
    from qlesim import cli, runner
    from qlesim.sequences import TogglingFunction

    targets = []
    for module in (cli, runner):
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ == module.__name__:
                continue
            layer = obj.__module__.rsplit(".", 1)[-1]
            if layer in LAYERS:
                targets.append((module, name, layer))
    targets.append((TogglingFunction, "shifted", "sequences"))
    return targets


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent, op, name, start, end)
        self.counts = []     # (op, name, value)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._runner_span = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._runner_span
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, self.op, name, start, end))

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, fn, name, layer):
        tracer = self
        after = self._after_hook(fn.__name__, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            if layer == "runner":
                tracer._runner_span = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
                if layer == "runner":
                    tracer._runner_span = 0
            if after is not None:
                after(result)
            return result

        return traced

    def _after_hook(self, fn_name, layer):
        if layer == "output" and fn_name in WRITERS:
            def count_bytes(path):
                self.counts.append((self.op, "output.bytes", os.stat(path).st_size))
            return count_bytes
        if layer == "fitting":
            def count_fit(result):
                self.counts.append((self.op, "fitting.iterations", int(result.iterations)))
                self.counts.append((self.op, "fitting.converged", int(bool(result.converged))))
            return count_fit
        return None

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, layer in wrap_targets():
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, f"{layer}.{attr}", layer))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path: Path, extra: dict):
        """Write the spans and counts as one JSON document."""
        names = sorted({s[3] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "op", "name", "start_s", "end_s"]
        doc["names"] = names
        doc["spans"] = [[sid, parent, op, index[name], start, end]
                        for sid, parent, op, name, start, end in self.spans]
        doc["counts"] = [list(c) for c in self.counts]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans, counts, factors) -> dict:
    """Per-layer metrics as means per op over the ops in ``factors``, which
    maps each traced op to the factor its span times are scaled by."""
    n_ops = len(factors)
    spans = [s for s in spans if s[2] in factors]
    children = {}
    for sid, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    busy = dict.fromkeys(BUSY_LAYERS, 0.0)
    calls = dict.fromkeys(BUSY_LAYERS, 0)
    self_time = dict.fromkeys(SELF_LAYERS, 0.0)
    for sid, _, op, name, start, end in spans:
        layer = name.split(".", 1)[0]
        if layer in self_time:
            own = (end - start) - _covered(children.get(sid, ()))
            self_time[layer] += own * factors[op]
        else:
            busy[layer] += (end - start) * factors[op]
            calls[layer] += 1
    totals = {}
    for op, name, value in counts:
        if op in factors:
            totals[name] = totals.get(name, 0) + value
    fits = calls["fitting"]
    out = {
        "cli.self_s": self_time["cli"] / n_ops,
        "config.busy_s": busy["config"] / n_ops,
        "runner.self_s": self_time["runner"] / n_ops,
    }
    for layer in ("state", "sequences", "analysis", "fitting"):
        out[f"{layer}.busy_s"] = busy[layer] / n_ops
        out[f"{layer}.calls"] = calls[layer] / n_ops
    out["fitting.iterations"] = totals.get("fitting.iterations", 0) / n_ops
    out["fitting.converged_frac"] = totals.get("fitting.converged", 0) / fits if fits else 0.0
    out["output.busy_s"] = busy["output"] / n_ops
    out["output.bytes"] = totals.get("output.bytes", 0) / n_ops
    out["output.mb_per_s"] = (totals.get("output.bytes", 0) / 1e6 / busy["output"]
                              if busy["output"] else 0.0)
    return out
