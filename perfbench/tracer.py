"""Span tracer for the traced benchmark run.

Wraps polychrome functions from outside: each function is replaced at every
name a polychrome module holds it by (``polychrome.resolution.bad_faces``,
``polychrome.polytope.validate``, ...), so calls between modules are seen
too. Spans are recorded only while an instance is open; the wrappers pass
straight through otherwise, so the checker and the set-up run unobserved.

A span keeps its name, start, end, parent and instance id. Work counts are
derived from call arguments and results by per-layer hooks. The time a
wrapper spends on its own bookkeeping lies outside the span it records, and
a parent's self time subtracts each child's full wrapper interval, so that
bookkeeping is charged to no layer.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: int  # ns, around the wrapped call only
    end: int
    parent: int  # index into the span list, -1 for a root
    instance: str
    outer_start: int  # ns, including the wrapper's own bookkeeping
    outer_end: int


# (defining module, function, span name); several functions may share a span
LAYERS = (
    ("polychrome.gf2", "circuits", "gf2.circuits"),
    ("polychrome.polytope", "validate", "polytope.validate"),
    ("polychrome.polytope", "truncate_face", "polytope.truncate_face"),
    ("polychrome.charmap", "bad_faces", "charmap.bad_faces"),
    ("polychrome.resolution", "resolution_vector", "resolution.resolution_vector"),
    ("polychrome.resolution", "resolve", "resolution.resolve"),
    ("polychrome.pipelines", "replay_bad_history", "pipelines.replay_bad_history"),
    ("polychrome.pipelines", "reproduce", "pipelines.reproduce"),
    ("polychrome.chromatic", "chromatic_number", "chromatic.chromatic_number"),
    ("polychrome.chromatic", "chromatic_of_graph", "chromatic.chromatic_of_graph"),
    ("polychrome.chromatic", "_certify", "chromatic.certify"),
    ("polychrome.chromatic", "max_clique", "chromatic.max_clique"),
    ("polychrome.chromatic", "greedy_coloring", "chromatic.greedy_coloring"),
    ("polychrome.generators", "dual_cyclic", "generators.dual_cyclic"),
    ("polychrome.generators", "product", "generators.product"),
    ("polychrome.serialize", "save_polytope", "serialize.save"),
    ("polychrome.serialize", "save_charmap", "serialize.save"),
    ("polychrome.serialize", "load_polytope", "serialize.load"),
    ("polychrome.serialize", "load_charmap", "serialize.load"),
    ("polychrome.cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))


def _colours_if_proper(adj: list[int], colouring) -> int | None:
    if len(colouring) != len(adj):
        return None
    for v, mask in enumerate(adj):
        for u in range(v + 1, len(adj)):
            if (mask >> u) & 1 and colouring[u] == colouring[v]:
                return None
    return len(set(colouring))


class Tracer:
    """Records spans and work counts while installed and an instance is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # a call in flight holds None at its index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._last_vertices: dict[str, frozenset] = {}
        self._last_greedy_colours = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "polychrome" or name.startswith("polychrome.")]
        for mod_name, attr, span in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- instances ----------------------------------------------------------

    def open_instance(self, instance_id: str) -> None:
        self._instance = instance_id
        self._last_vertices.clear()

    def close_instance(self) -> None:
        self._instance = None

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            outer_start = clock()
            self.counts[name + ".calls"] += 1
            if before is not None:
                before(args)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self._instance, outer_start, end)
            if after is not None:
                after(args, result)
            self.spans[idx] = self.spans[idx]._replace(outer_end=clock())
            return result

        traced.__wrapped__ = fn
        return traced

    # Work counts: _before_<span> sees the arguments, _after_<span> the result.

    def _fresh(self, key: str, vertices) -> int:
        current = frozenset(vertices)
        fresh = len(current - self._last_vertices.get(key, frozenset()))
        self._last_vertices[key] = current
        return fresh

    def _before_polytope_validate(self, args) -> None:
        P = args[0]
        self.counts["polytope.validate.vertices_checked"] += len(P.vertices)
        self.counts["polytope.validate.fresh_vertices"] += self._fresh("validate", P.vertices)

    def _before_charmap_bad_faces(self, args) -> None:
        P = args[0]
        self.counts["charmap.bad_faces.vertices_scanned"] += len(P.vertices)
        self.counts["charmap.bad_faces.fresh_vertices"] += self._fresh("bad_faces", P.vertices)

    def _after_resolution_resolve(self, args, report) -> None:
        self.counts["resolution.resolve.steps"] += len(report.steps)

    def _after_resolution_resolution_vector(self, args, w) -> None:
        oriented = args[1].mode == "oriented"
        self.counts["resolution.resolution_vector.candidates"] += sum(
            1 for c in range(1, w + 1) if not oriented or c.bit_count() % 2
        )

    def _after_chromatic_greedy_coloring(self, args, colouring) -> None:
        self._last_greedy_colours = len(set(colouring))

    def _before_chromatic_certify(self, args) -> None:
        self._last_greedy_colours = 0

    def _after_chromatic_certify(self, args, cert) -> None:
        # branch and bound ran iff the clique fell short of the best colouring
        # known before it: greedy, or a proper hint
        adj, hints = args[0], args[1]
        if not adj:
            return
        upper = min(
            [self._last_greedy_colours]
            + [k for h in hints if (k := _colours_if_proper(adj, h)) is not None]
        )
        self.counts["chromatic.certify.bnb"] += upper > len(cert.clique)

    def _after_generators_dual_cyclic(self, args, P) -> None:
        n, m = args[0], args[1]
        self.counts["generators.dual_cyclic.vertices"] += len(P.vertices)
        self.counts["generators.dual_cyclic.subsets_tested"] += math.comb(m, n)

    def _after_serialize_save(self, args, result) -> None:
        self.counts["serialize.bytes"] += os.path.getsize(args[1])

    def _before_serialize_load(self, args) -> None:
        self.counts["serialize.bytes"] += os.path.getsize(args[0])

    # -- reporting ----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per span name: (inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a layer
        that calls itself is not counted twice. Self time is the span's
        duration minus the wrapper intervals of its direct children.
        """
        return layer_times(self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    child_cover = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_cover[s.parent] += s.outer_end - s.outer_start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for i, s in enumerate(spans):
        duration = s.end - s.start
        self_time[s.name] += duration - child_cover[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            inclusive[s.name] += duration
    return {name: (inclusive[name] / 1e9, self_time[name] / 1e9) for name in inclusive}
