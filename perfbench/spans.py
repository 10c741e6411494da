"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces the public functions of every kgtopos
module, and the methods of `IntMatrix` and `Presheaf`, with wrappers
that open a span per call.  It patches every place that holds the
original object: the defining module, each module that bound it with
`from ... import`, and module-level dicts such as `cli.MATRIX_BUILDERS`.
`uninstall()` puts every original back.  An untraced run never installs.

Spans are kept in memory as a calling-context tree: calls with the same
name under the same parent span share one node, which records the first
start, the last end, the number of calls, the summed duration and the
summed duration of its children.  Hot helpers (`freecat.compose`,
`IntMatrix.get`) are called millions of times per pass, so one record per
call would not fit in memory; the merged node keeps self time exact.
A node's self time is its duration minus the time covered by its
children; a layer's busy time is the self time of its nodes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

MODULES = ("kg", "matrices", "linegraph", "freecat", "sites", "sheaves", "randgen", "verify", "cli")
TRACED_METHODS = {"matrices": ("IntMatrix",), "sheaves": ("Presheaf",)}


class Node:
    """All calls of one name under one parent span."""

    __slots__ = ("name", "parent", "children", "calls", "start", "end", "total", "child_total")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.start = None
        self.end = None
        self.total = 0.0
        self.child_total = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child_total

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "start": self.start,
            "end": self.end,
            "seconds": self.total,
            "self_seconds": self.self_time,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root = Node("root", None)
        self.current = self.root
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------

    def enter(self, name: str) -> tuple[Node, float]:
        parent = self.current
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, parent)
        self.current = node
        start = self.clock()
        if node.start is None:
            node.start = start
        return node, start

    def leave(self, node: Node, start: float) -> None:
        end = self.clock()
        node.calls += 1
        node.end = end
        node.total += end - start
        node.parent.child_total += end - start
        self.current = node.parent

    def span(self, name: str, fn: Callable, *args, **kwargs):
        node, start = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(node, start)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node, start = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(node, start)
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return traced

    # --- installation ---------------------------------------------------

    def install(self, package: str = "kgtopos") -> None:
        modules = {name: sys.modules[f"{package}.{name}"] for name in MODULES}
        holders = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        replacements: dict[int, Callable] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                replacements[id(value)] = self.wrap(
                    f"{short}.{attr}", value, COUNTER_HOOKS.get(f"{short}.{attr}"))
            for cls_name in TRACED_METHODS.get(short, ()):
                self._wrap_methods(short, getattr(module, cls_name))
        verify = modules["verify"]
        self._patch(verify, "_run", self._check_runner(verify._run))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in replacements:
                    self._patch(holder, attr, replacements[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in replacements:
                            self._patch_item(value, key, replacements[id(item)])

    def _wrap_methods(self, short: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in ("__post_init__", "__matmul__", "__sub__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            hook = COUNTER_HOOKS.get(name)
            if isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, value.__func__, hook)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self.wrap(name, value, hook))

    def _check_runner(self, run: Callable) -> Callable:
        """verify._run(name, fn) runs one check; its span is named after it."""
        tracer = self

        @functools.wraps(run)
        def traced(name, fn):
            return tracer.span(f"verify.check.{check_key(name)}", run, name, fn)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_item(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- results --------------------------------------------------------

    def nodes(self):
        for child in self.root.children.values():
            yield from child.walk()

    def busy(self) -> Counter:
        """Self time per layer (the name's first component)."""
        busy: Counter = Counter()
        for node in self.nodes():
            busy[node.layer] += node.self_time
        return busy

    def outermost(self, name: str) -> tuple[int, float]:
        """Calls and seconds of spans named `name` with no ancestor of the
        same name, so that recursion is not counted twice."""
        calls, seconds = 0, 0.0
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            if node.name == name:
                calls += node.calls
                seconds += node.total
            else:
                stack.extend(node.children.values())
        return calls, seconds

    def under(self, parent: str, child: str) -> int:
        """Calls of `child` made directly from a span named `parent`."""
        return sum(
            n.children[child].calls
            for n in self.nodes()
            if n.name == parent and child in n.children
        )

    def span_seconds(self) -> dict[str, float]:
        """Outermost seconds of every span name, for the recorded entries."""
        names = sorted({node.name for node in self.nodes()})
        return {name: self.outermost(name)[1] for name in names}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [c.to_dict() for c in self.root.children.values()],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def check_key(check_name: str) -> str:
    """'suite.omega[10]' -> 'suite.omega': metric names carry no case count."""
    return check_name.split("[", 1)[0]


# --- counters computed from arguments and results ----------------------


def _matmul(counters, args, result):
    left, right = args
    counters["matrices.matmul_madds"] += left.rows * left.cols * right.cols


def _cells(counters, args, result):
    matrix = args[0]
    counters["matrices.cells_built"] += matrix.rows * matrix.cols


def _line_edges(counters, args, result):
    counters["linegraph.edges"] += sum(len(adj) for adj in result.adjacency)


def _category(counters, args, result):
    counters["freecat.categories_built"] += 1
    counters["freecat.morphisms"] += result.total_morphisms


def _sieves(counters, args, result):
    cat, obj = args[0], args[1]
    counters["sites.sieve_masks_scanned"] += 1 << len(cat.morphisms_into(obj))
    counters["sites.sieves_kept"] += len(result)


def _topology(counters, args, result):
    counters["sites.topologies_built"] += 1
    counters["sites.covering_sieves"] += sum(len(s) for s in result.covering.values())


def _families(counters, args, result):
    counters["sheaves.matching_families"] += len(result)


def _small_category(counters, args, result):
    counters["randgen.categories_kept"] += 1


def _verification(counters, args, result):
    counters["verify.checks_skipped"] += sum(1 for c in result.checks if c.status == "skipped")


COUNTER_HOOKS = {
    "matrices.IntMatrix.__matmul__": _matmul,
    "matrices.IntMatrix.__post_init__": _cells,
    "linegraph.build_out_line": _line_edges,
    "linegraph.build_in_line": _line_edges,
    "freecat.build_free_category": _category,
    "sites.enumerate_sieves": _sieves,
    "sites.generate_topology": _topology,
    "sheaves.enumerate_matching_families": _families,
    "randgen.random_small_category": _small_category,
    "verify.run_verification": _verification,
}

