"""Outside-in span recorder for the sepack layers.

The traced run wraps the package from the outside; no file of the package
changes.  Every public function of each layer module is replaced, in every
``sepack`` namespace that binds it, by a recorder: names imported into other
modules, such as ``packio.build_contact_graph``, are wrapped too.
``cKDTree`` is replaced by a counting factory in the modules that build
trees.  Spans are kept in memory; the harness writes them out at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

LAYERS = (
    "generators", "core", "contact", "separability", "packio",
    "diagonal", "contact_numbers", "svgfig", "catalog", "cli",
)
KDTREE_MODULES = ("core", "contact", "generators")


def _size_of(position: int, keyword: str):
    def count(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        return os.path.getsize(path)
    return count


# per-span counts: the work a call did, taken from its arguments and result
_COUNTS = {
    "generators.generate_named": lambda a, k, r: r.n_spheres,
    "contact.build_contact_graph": lambda a, k, r: r.edge_count,
    "separability.certify_total_separability": lambda a, k, r: len(r.violations),
    "separability.separability_measure": lambda a, k, r: len(r.violations),
    "contact_numbers.enumerate_fixed_polyforms": lambda a, k, r: len(r),
    "packio.save_packing": _size_of(1, "path"),
    "packio.load_packing": _size_of(0, "path"),
    "packio.write_report": _size_of(1, "path"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    item: str | None
    count: int = 0


class Tracer:
    """Records spans and KD-tree builds for whatever runs while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kdtree_builds: list[tuple[str | None, str]] = []  # (item, module)
        self.item: str | None = None
        self._stack: list[int] = []

    def reset(self):
        self.spans, self.kdtree_builds, self._stack = [], [], []

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        def recorder(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.item)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        recorder.__wrapped__ = fn
        recorder.__name__ = getattr(fn, "__name__", name)
        return recorder

    def _kdtree_factory(self, module: str, tree_class):
        def build(*args, **kwargs):
            self.kdtree_builds.append((self.item, module))
            return tree_class(*args, **kwargs)
        return build

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers for the duration of the block, then restore them."""
        layers = {name: sys.modules[f"sepack.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                    and inspect.isfunction(inspect.unwrap(obj))
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patches = []
        namespaces = [m for n, m in sys.modules.items() if n == "sepack" or n.startswith("sepack.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for layer in KDTREE_MODULES:
            module = layers[layer]
            patches.append((module, "cKDTree", module.cKDTree))
            module.cKDTree = self._kdtree_factory(layer, module.cKDTree)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class PassTrace:
    """Per-name and per-layer totals over the spans of one traced pass."""

    def __init__(self, spans, kdtree_builds):
        self.spans = spans
        self.kdtree_builds = kdtree_builds
        self.self_time = self_times(spans)

    def _named(self, names):
        return [i for i, s in enumerate(self.spans) if s.name in names]

    def _outermost(self, index) -> bool:
        name, parent = self.spans[index].name, self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return False
            parent = self.spans[parent].parent
        return True

    def s(self, *names) -> float:
        """Inclusive time of the calls, not counting a call nested in a call of the same name."""
        return sum(
            self.spans[i].end - self.spans[i].start
            for i in self._named(names) if self._outermost(i)
        )

    def self_s(self, *names) -> float:
        return sum(self.self_time[i] for i in self._named(names))

    def calls(self, *names) -> int:
        return len(self._named(names))

    def count(self, *names, outermost: bool = False) -> int:
        return sum(
            self.spans[i].count
            for i in self._named(names) if not outermost or self._outermost(i)
        )

    def calls_in(self, name, items) -> int:
        return sum(1 for s in self.spans if s.name == name and s.item in items)

    def kdtree_builds_in(self, items) -> int:
        return sum(1 for item, _ in self.kdtree_builds if item in items)

    def layer_self_s(self, layer) -> float:
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self.self_time) if s.name.startswith(prefix))

    def total_self_s(self) -> float:
        return sum(self.self_time)
