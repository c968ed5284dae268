"""Span tracing of the ascentlab layers from outside the library.

``Tracer.installed()`` replaces every public function, every public plain
method and every constructor of the layer modules with a wrapper that
records a span; the library source is not edited.  Hot functions are called
about a million times per round, so spans are not stored one by one: they
are aggregated into a calling-context tree, one node per call path, holding
the number of calls and the self time (duration minus the time covered by
wrapped children).  Generator functions (the ``moves`` neighbourhoods) are
timed per resumption and count the items they yield.

Spans are recorded only inside ``Tracer.call``, which is how the benchmark
makes its timed calls; anything the benchmark itself calls to check results
runs through the wrappers untraced.  The node of each timed call is the root,
so the self times of all nodes add up to the traced time of the timed calls.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time

PACKAGE = "ascentlab"

# The modules of src/ascentlab that do work on the benchmark's workloads;
# `cli` and `report` only format results.
LAYERS = ("search", "winding", "counting", "vcsp", "landscapes", "rules",
          "analysis", "symbols")

BENCH = "bench"

# Spans of a landscape's delta method, whichever family it belongs to, and of
# the two ascent engines.
DELTA_SPANS = (
    "winding.WindingLandscape.delta",
    "counting.SymbolCountingLandscape.delta",
    "landscapes.VcspLandscape.delta",
    "landscapes.Landscape.delta",
)
ASCENT_SPANS = ("search.steepest_ascent", "search.first_improvement_ascent")

# Private methods wrapped all the same: construction is set-up work.
CONSTRUCTORS = ("__init__", "__post_init__")


class Node:
    """Aggregated spans of one call path."""

    __slots__ = ("name", "children", "calls", "self_s", "yielded")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, path=()):
        """Yield (call path, node) for this node and every descendant."""
        path = path + (self.name,)
        yield path, self
        for child in self.children.values():
            yield from child.walk(path)


class Tracer:
    """Wraps the layer modules and aggregates their spans."""

    def __init__(self):
        self.root = Node(BENCH)
        self.active = False
        self._top = self.root
        self._children_s = 0.0

    # -- recording ----------------------------------------------------------

    def call(self, fn, *args, **kwargs):
        """Run one timed call as a root span and return its result."""
        root = self.root
        self._top = root
        self._children_s = 0.0
        self.active = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.active = False
            root.calls += 1
            root.self_s += elapsed - self._children_s

    def _wrap_function(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._top
            node = parent.children.get(name) or parent.child(name)
            tracer._top = node
            outer_children = tracer._children_s
            tracer._children_s = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                node.calls += 1
                node.self_s += duration - tracer._children_s
                tracer._children_s = outer_children + duration
                tracer._top = parent

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def resumptions(inner):
            while True:
                parent = tracer._top
                node = parent.children.get(name) or parent.child(name)
                tracer._top = node
                outer_children = tracer._children_s
                tracer._children_s = 0.0
                start = clock()
                done = False
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    duration = clock() - start
                    node.calls += 1
                    node.self_s += duration - tracer._children_s
                    tracer._children_s = outer_children + duration
                    tracer._top = parent
                if done:
                    return
                node.yielded += 1
                yield item

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return resumptions(inner) if tracer.active else inner

        traced.__wrapped__ = fn
        return traced

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' public functions and methods for the duration.

        A function imported by name into another module (``rules`` imports
        ``steepest_move``, the package re-exports everything) is replaced
        there too, so every call path goes through the same wrapper.
        """
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        patched: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth in CONSTRUCTORS):
                            patched.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and items yielded, summed over
        every call path."""
        out: dict[str, dict[str, float]] = {}
        for _, node in self.root.walk():
            agg = out.setdefault(node.name, {"calls": 0, "self_s": 0.0, "yielded": 0})
            agg["calls"] += node.calls
            agg["self_s"] += node.self_s
            agg["yielded"] += node.yielded
        return out

    def calls_under(self, names, ancestors) -> int:
        """Calls of any span in ``names`` made (at any depth) inside a span
        in ``ancestors``."""
        names, ancestors = set(names), set(ancestors)
        return sum(node.calls for path, node in self.root.walk()
                   if node.name in names and ancestors.intersection(path[:-1]))

    def self_s_total(self) -> float:
        return sum(node.self_s for _, node in self.root.walk())
