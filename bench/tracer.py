"""Span tracer that wraps gridbias's public functions from outside.

Each wrapped call records a span: name, start, end, parent span and the id
of the CLI call (trace) it belongs to.  Spans stay in memory; the caller
exports them when the run ends.  The hottest leaf functions are not given a
span each (``zeta-oscillator`` makes ~60k ``matexp`` calls per CLI call);
instead each call adds to a count and a summed time on the span that was
open when it was made.

Parenting does not rely on thread-local or context-variable inheritance:
the CLI runs every cell on a ``ThreadPoolExecutor`` worker, so a span
opened on a thread with no open span of its own is linked explicitly to the
innermost open span of the thread that opened the root span (``cli.main``),
i.e. to the command that is waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time

MODULES = ("linalg2", "sde", "estimands", "estimation", "config", "cli")

# Aggregated as count + summed time on the enclosing span.
LEAVES = frozenset(
    {
        "linalg2.matexp",
        "sde.unit_stream",
        "estimands.plan_integral",
        "estimation.gformula_plugin",
    }
)

# Public, but called only from inside ``matexp``: wrapping them would add
# two more wrapper calls to the hottest leaf and measure nothing new.
SKIPPED = frozenset({"linalg2.eigen2", "linalg2.s0s1"})

# ``unit_stream`` is public but not exported in ``sde.__all__``.
EXTRA = {"sde": ("unit_stream",)}


def _panel_j(panel) -> int:
    return int(panel.grid.J)


# Per-span attributes read from a call's arguments or its effects.
ANNOTATE = {
    "estimation.bootstrap_ci": lambda a, kw, r: {
        "n_boot": int(a[3] if len(a) > 3 else kw["n_boot"]),
        "J": _panel_j(a[0]),
    },
    "estimation.zeta": lambda a, kw, r: {"J": _panel_j(a[0])},
    "estimands.theta_g": lambda a, kw, r: {"J": int(a[2] if len(a) > 2 else kw["J"])},
    "sde.write_panel_csv": lambda a, kw, r: {
        "bytes": os.path.getsize(a[1] if len(a) > 1 else kw["path"])
    },
}


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end", "leaves", "attrs")

    def __init__(self, span_id: int, name: str, parent: "Span | None", trace: int):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.trace = trace
        self.start = time.perf_counter()
        self.end = None
        self.leaves: dict[str, list] = {}
        self.attrs: dict = {}

    def export(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "trace": self.trace,
            "start": self.start,
            "end": self.end,
            "leaves": self.leaves,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for every wrapped call; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.orphan_leaves: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._root: Span | None = None
        self._root_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        root_stack = self._root_stack
        return root_stack[-1] if root_stack else None

    def _open(self, name: str) -> Span:
        parent = self._current()
        trace = parent.trace if parent is not None else next(self._traces)
        span = Span(next(self._ids), name, parent, trace)
        stack = self._stack()
        if parent is None:
            self._root = span
            self._root_stack = stack
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span is self._root:
            self._root = None
            self._root_stack = []
        self.spans.append(span)

    def _add_leaf(self, name: str, seconds: float) -> None:
        owner = self._current()
        table = owner.leaves if owner is not None else self.orphan_leaves
        with self._lock:
            entry = table.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def span_wrapper(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def leaf_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_leaf(name, time.perf_counter() - start)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules in every
        ``gridbias`` namespace that binds it (``cli`` imports ``zeta``,
        ``theta_g``, ... by name; ``sde`` does the same with ``matexp`` and
        ``plan_integral``).  Raises if any namespace still holds an unwrapped
        original afterwards."""
        import importlib

        pkg = importlib.import_module("gridbias")
        targets = {}
        for short in MODULES:
            module = importlib.import_module(f"gridbias.{short}")
            for attr in (*module.__all__, *EXTRA.get(short, ())):
                fn = getattr(module, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(fn) and name not in SKIPPED:
                    targets[id(fn)] = (name, fn)
        namespaces = [pkg] + [m for k, m in sys.modules.items() if k.startswith("gridbias.")]
        for name, fn in targets.values():
            make = self.leaf_wrapper if name in LEAVES else self.span_wrapper
            wrapped = make(name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if targets.get(id(value), (None, None))[1] is value:
                    raise RuntimeError(f"{ns.__name__}.{attr} still holds the unwrapped function")

    def export(self) -> dict:
        if self._root is not None or any(self._stack()):
            raise RuntimeError("export with spans still open")
        return {
            "spans": [s.export() for s in self.spans],
            "orphan_leaves": self.orphan_leaves,
        }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def aggregate(export: dict) -> dict:
    """Per-name totals of one traced CLI call.

    Returns ``{name: {"calls", "total_s", "self_s", "durations", "attrs"}}``
    where ``self_s`` is each span's duration minus the part covered by its
    child spans.  Leaf calls are not spans: their time stays in the self time
    of the span they ran in, and is also reported under the leaf's own name
    with ``total_s == self_s``.  ``attrs`` sums the numeric span attributes;
    ``durations`` lists ``(seconds, attrs, leaf call counts)`` per span.
    """
    spans = export["spans"]
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, dict] = {}

    def entry(name):
        return out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}}
        )

    def add_leaves(leaves):
        for name, (count, seconds) in leaves.items():
            e = entry(name)
            e["calls"] += count
            e["total_s"] += seconds
            e["self_s"] += seconds

    for s in spans:
        dur = s["end"] - s["start"]
        e = entry(s["name"])
        e["calls"] += 1
        e["total_s"] += dur
        e["self_s"] += dur - _covered(children.get(s["id"], []))
        e["durations"].append((dur, s["attrs"], {k: v[0] for k, v in s["leaves"].items()}))
        for key, value in s["attrs"].items():
            e["attrs"][key] = e["attrs"].get(key, 0) + value
        add_leaves(s["leaves"])
    add_leaves(export["orphan_leaves"])
    return out
