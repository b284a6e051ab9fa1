"""Spans around calls into mbea, recorded from outside the program.

`Tracer` replaces every public function and method of the traced modules
with a wrapper that times the call, for as long as it is installed. Spans
stay in memory (one int64 quadruple each: function index, depth, start and
end in nanoseconds) and are written out once, by `write_spans`, when the run
ends. A function's self time is its span's duration minus the spans of the
traced calls made inside it; time spent in untraced helpers stays with the
nearest traced caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

MODULES = ("graphs", "leaf_removal", "rsg", "solver", "oracle", "space", "experiments", "cli")

# Constant-time accessors and per-node state setters are left untraced: a
# span costs about a microsecond, they run several times per node, and their
# time belongs to the caller that uses them.
UNTRACED = frozenset(
    {
        "graphs.Graph.degree",
        "graphs.GenConfig.edge_count",
        "graphs.GenConfig.validate",
        "rsg.ReducedSolutionGraph.begin_step",
        "rsg.ReducedSolutionGraph.activate",
        "rsg.ReducedSolutionGraph.freeze_pos",
        "rsg.ReducedSolutionGraph.freeze_neg",
        "rsg.ReducedSolutionGraph.release_one",
        "rsg.ReducedSolutionGraph.set_double",
        "rsg.ReducedSolutionGraph.edge_kind",
        "space.Assignment.covered",
    }
)

# Layer of each traced function; the rest fall back to MODULE_LAYER.
LAYER = {
    "rsg.ReducedSolutionGraph.break_odd_cycles": "rsg.closure",
    "rsg.ReducedSolutionGraph.compatible_minus_one": "rsg.dispatch",
    "rsg.ReducedSolutionGraph.would_refreeze": "rsg.dispatch",
    "rsg.ReducedSolutionGraph.has_foreign_pos_neighbour": "rsg.dispatch",
    "rsg.ReducedSolutionGraph.releasing": "rsg.release",
    "rsg.ReducedSolutionGraph.rechecking": "rsg.release",
    "rsg.ReducedSolutionGraph.freezing": "rsg.freeze",
    "rsg.ReducedSolutionGraph.unfrozen_components": "rsg.minimise",
    "rsg.ReducedSolutionGraph.min_component_assignment": "rsg.minimise",
    "rsg.ReducedSolutionGraph.enumerate_assignments": "rsg.enumerate",
    "rsg.ReducedSolutionGraph.to_json_doc": "rsg.export",
    "rsg.ReducedSolutionGraph.export_json": "rsg.export",
    "rsg.ReducedSolutionGraph.export_dot": "rsg.export",
    "rsg.dot_from_json": "rsg.export",
    "space.diff_spaces": "space.diff",
    "space.summarize_space": "space.diff",
    "graphs.parse_edge_list": "graphs.parse",
    "graphs.write_edge_list": "graphs.write",
    "graphs.generate_er": "graphs.generate",
    "graphs.path_graph": "graphs.generate",
    "graphs.cycle_graph": "graphs.generate",
    "graphs.complete_graph": "graphs.generate",
    "oracle.exact_min_cover": "oracle.exact",
    "oracle.enumerate_min_covers": "oracle.enumerate",
}
MODULE_LAYER = {
    "graphs": "graphs.other",
    "leaf_removal": "leaf_removal",
    "rsg": "rsg.other",
    "solver": "solver",
    "oracle": "oracle.other",
    "space": "space.other",
    "experiments": "experiments",
    "cli": "cli",
}
LAYERS = tuple(sorted(set(LAYER.values()) | set(MODULE_LAYER.values())))


def _traceable(package: str):
    """(key, owner, attribute name, function, wrap-as) for every public
    function and method defined in the traced modules."""
    for short in MODULES:
        module = sys.modules[f"{package}.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", module, name, obj, None
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    key = f"{short}.{name}.{attr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        yield key, obj, attr, member.__func__, type(member)
                    elif inspect.isfunction(member):
                        yield key, obj, attr, member, None


class Tracer:
    """Installs timing wrappers on the package's public functions and methods.

    Use as a context manager; it restores every original on exit and may be
    installed again. Counters accumulate across installs.
    """

    def __init__(self, package: str = "mbea"):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans = array("q")
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self._hooks = {
            "solver.run_mbea": self._count_cases,
            "rsg.ReducedSolutionGraph.min_component_assignment": self._measure_component,
        }

    # ---------------------------------------------------------------- hooks

    def _count_cases(self, args, kwargs, result) -> None:
        for case, k in result.case_counts.items():
            key = f"solver.case_{case}"
            self.counts[key] = self.counts.get(key, 0) + k

    def _measure_component(self, args, kwargs, result) -> None:
        rsg, comp = args[0], args[1]
        members = set(comp)
        adj = rsg.graph.adjacency
        edges = sum(1 for u in comp for w in adj[u] if w in members) // 2
        self.counts["rsg.minimise.components"] = self.counts.get("rsg.minimise.components", 0) + 1
        for key, value in (
            ("rsg.minimise.max_component", len(comp)),
            ("rsg.minimise.max_cycle_rank", edges - len(comp) + 1),
        ):
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -------------------------------------------------------------- install

    def _wrap(self, key: str, fn):
        idx = len(self.names)
        self.names.append(key)
        self.layer_of.append(LAYER.get(key, MODULE_LAYER[key.split(".", 1)[0]]))
        self.self_ns.append(0)
        self.total_ns.append(0)
        self.calls.append(0)
        hook = self._hooks.get(key)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self.self_ns[idx] += dur - stack.pop()
                self.total_ns[idx] += dur
                self.calls[idx] += 1
                self.spans.extend((idx, len(stack), t0, t1))
                if stack:
                    stack[-1] += dur
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                h = clock() - h0
                if stack:  # the tracer's own work is charged to no layer
                    stack[-1] += h
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [sys.modules[self.package]] + [
            sys.modules[f"{self.package}.{m}"] for m in MODULES
        ]
        for key, owner, name, fn, kind in _traceable(self.package):
            if key in UNTRACED:
                continue
            wrapped = self._wrapped.get(id(fn))
            if wrapped is None:
                wrapped = self._wrapped[id(fn)] = self._wrap(key, fn)
            if inspect.isclass(owner):
                self._saved.append((owner, name, vars(owner)[name]))
                setattr(owner, name, kind(wrapped) if kind else wrapped)
                continue
            # functions are also bound by name in every module that imported them
            for module in modules:
                if getattr(module, name, None) is fn:
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self._stack.clear()

    # -------------------------------------------------------------- results

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds, calls)."""
        out = {layer: [0, 0] for layer in LAYERS}
        for idx, layer in enumerate(self.layer_of):
            out[layer][0] += self.self_ns[idx]
            out[layer][1] += self.calls[idx]
        return {k: (ns / 1e9, calls) for k, (ns, calls) in out.items()}

    def total_s(self, key: str) -> float:
        """Inclusive seconds of one traced function, e.g. 'solver.run_mbea'."""
        return self.total_ns[self.names.index(key)] / 1e9 if key in self.names else 0.0

    def write_spans(self, path) -> None:
        """Write the spans as gzipped CSV: function, depth, start_ns, end_ns."""
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("function,depth,start_ns,end_ns\n")
            for i in range(0, len(spans), 4):
                out.write(f"{self.names[spans[i]]},{spans[i + 1]},{spans[i + 2]},{spans[i + 3]}\n")
