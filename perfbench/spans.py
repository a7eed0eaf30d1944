"""Span tracing of the ``token_covers`` layers from outside the package.

``Recorder.install`` replaces the public functions of each package module
(and a few public methods) with wrappers that record a span per call:
name, start, end, parent span and the operation it belongs to, plus counts
read from the call's input or result.  Every module attribute bound to a
wrapped function is rebound, so calls across modules (``voltage`` calling
``symmetry.is_isomorphic``, ``symmetry`` calling ``search``) are seen too.
Nothing under ``src/`` is edited.  Spans stay in memory until the
repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("graphs", "algebra", "tokens", "search", "symmetry", "voltage", "report", "cli")

# public methods traced besides module-level functions
METHODS = {
    "symmetry": (("AutGroup", "order"), ("AutGroup", "closure")),
    "report": (("VerificationReport", "to_json"),),
}

# ``search`` re-exports the active kernel's entry points
SEARCH_ENTRIES = ("automorphism_generators", "isomorphism_witness")


def _lift_pairs(cvg):
    """Coset pairs ``lift`` examines: index_u * index_v per base edge, and
    index_u per loop (one translate per coset)."""
    index = [s.index for s in cvg.vertex_groups]
    return sum(index[u] if u == v else index[u] * index[v] for u, v in cvg.base.edges)


# span name -> function(args, result) -> {count metric: increment}
COUNTERS = {
    "voltage.lift": lambda a, r: {"voltage.lift_pairs": _lift_pairs(a[0]),
                                  "voltage.lift_edges": r.graph.edge_count},
    "search.automorphism_generators": lambda a, r: {"search.aut_generators": len(r)},
    "algebra.group_closure": lambda a, r: {"algebra.closure_elements": len(r.elements)},
    "tokens.token_graph": lambda a, r: {"tokens.token_graph_vertices": r.vertex_count},
    "report.VerificationReport.to_json": lambda a, r: {"report.bytes": len(r.encode())},
}

# per-layer metric -> (unit, how it is read from the spans): "incl" sums the
# wall time of the named spans, "calls" counts them, "self" sums a layer's
# span time not covered by child spans, "count" sums a counter.
METRICS = {
    "voltage.lift_s": ("s", "incl", ("voltage.lift",)),
    "voltage.lift_calls": ("count", "calls", ("voltage.lift",)),
    "voltage.lift_pairs": ("count", "count", ()),
    "voltage.lift_edges": ("count", "count", ()),
    "voltage.quotient_s": ("s", "incl", ("voltage.quotient_cyclic", "voltage.quotient_free")),
    "voltage.quotient_calls": ("count", "calls", ("voltage.quotient_cyclic", "voltage.quotient_free")),
    "voltage.self_s": ("s", "self", ("voltage",)),
    "search.iso_s": ("s", "incl", ("search.isomorphism_witness",)),
    "search.iso_calls": ("count", "calls", ("search.isomorphism_witness",)),
    "search.aut_s": ("s", "incl", ("search.automorphism_generators",)),
    "search.aut_calls": ("count", "calls", ("search.automorphism_generators",)),
    "search.aut_generators": ("count", "count", ()),
    "symmetry.self_s": ("s", "self", ("symmetry",)),
    "symmetry.edge_orbits_s": ("s", "incl", ("symmetry.edge_orbits",)),
    "algebra.closure_s": ("s", "incl", ("algebra.group_closure",)),
    "algebra.closure_calls": ("count", "calls", ("algebra.group_closure",)),
    "algebra.closure_elements": ("count", "count", ()),
    "tokens.token_graph_s": ("s", "incl", ("tokens.token_graph",)),
    "tokens.token_graph_vertices": ("count", "count", ()),
    "graphs.underlying_simple_s": ("s", "incl", ("graphs.underlying_simple",)),
    "report.to_json_s": ("s", "incl", ("report.VerificationReport.to_json",)),
    "report.bytes": ("bytes", "count", ()),
    "cli.write_s": ("s", "incl", ("cli.write_file",)),
    "cli.self_s": ("s", "self", ("cli",)),
}


class Recorder:
    """Spans of one repetition.  A span is [name, layer, start, end, parent
    index or None, time covered by children, operation index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.operation = 0
        self._stack = []

    def wrap(self, name, layer, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, layer, 0.0, 0.0, parent, 0.0, self.operation]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[3] - span[2]
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every traced function and rebind each module attribute that
        refers to one; call after ``token_covers`` is imported."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"token_covers.{layer}")
            if layer == "search":
                targets = [(name, getattr(module, name)) for name in SEARCH_ENTRIES]
            else:
                targets = [(name, fn) for name, fn in inspect.getmembers(module, inspect.isfunction)
                           if not name.startswith("_") and fn.__module__ == module.__name__]
            for name, fn in targets:
                replaced[id(fn)] = (fn, self.wrap(f"{layer}.{name}", layer, fn))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", layer,
                                               getattr(cls, method)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "token_covers" or mod_name.startswith("token_covers."):
                for attr, value in list(vars(module).items()):
                    original, traced = replaced.get(id(value), (None, None))
                    if original is value:
                        setattr(module, attr, traced)


def layer_metrics(spans, counts):
    """Per-layer metric values (see METRICS) from one repetition's spans."""
    incl, calls, self_time = {}, {}, {}
    for name, layer, start, end, _parent, children, _op in spans:
        incl[name] = incl.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_time[layer] = self_time.get(layer, 0.0) + (end - start - children)
    values = {}
    for metric, (_unit, how, names) in METRICS.items():
        if how == "incl":
            values[metric] = sum(incl.get(n, 0.0) for n in names)
        elif how == "calls":
            values[metric] = sum(calls.get(n, 0) for n in names)
        elif how == "self":
            values[metric] = sum(self_time.get(n, 0.0) for n in names)
        else:
            values[metric] = counts.get(metric, 0)
    return values
