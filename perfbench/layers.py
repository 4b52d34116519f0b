"""Per-layer tracing from outside the library.

``Tracer`` wraps the public functions of each layer (module) in every
package module that imported them, records one span per call in memory,
and restores the original attributes on exit.  A span keeps its layer, the
workload call (request) it belongs to, its parent span, and its start, end
and self time; self time is the span's duration minus the time its child
spans cover.  Sizes are read from returned objects right after the call;
the reading is excluded from every span's time.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "transdist"

#: (module, function) of every traced layer entry point
LAYERS = (
    ("transducers", "same_domain"), ("transducers", "joint_product"),
    ("transducers", "pair_automaton"),
    ("pairauto", "delay_range"), ("pairauto", "identity_witness"),
    ("pairauto", "synchronize"),
    ("conjugacy", "state_elimination"), ("conjugacy", "sumfree_decompose"),
    ("conjugacy", "common_witness"), ("conjugacy", "verify_witness"),
    ("conjugacy", "to_pair_automaton"),
    ("substitution", "close_hamming"), ("substitution", "close_transposition"),
    ("substitution", "distance_subst"),
    ("kapprox", "distance"), ("kapprox", "close_verdict"),
    ("kapprox", "kclose"), ("kapprox", "build_kapprox"),
    ("automata", "determinize"), ("automata", "equiv_unambiguous"),
    ("automata", "intersection_is_empty"),
    ("words", "word_distance"),
    ("relations", "diameter"), ("relations", "relation_included"),
    ("relations", "power_upto"), ("relations", "compose"),
)


def _k_arg(args, kwargs):
    return kwargs["k"] if "k" in kwargs else args[3]


#: layer -> {size name: reader(result, args, kwargs)}
SIZES = {
    "transducers.joint_product": {"states": lambda r, a, k: r.nfa.n_states},
    "conjugacy.sumfree_decompose": {"summands": lambda r, a, k: len(r)},
    "conjugacy.state_elimination": {
        "expr_size": lambda r, a, k: _expr_size(r)},
    "conjugacy.verify_witness": {"hits": lambda r, a, k: int(bool(r))},
    "kapprox.kclose": {"k": lambda r, a, k: _k_arg(a, k)},
    "kapprox.build_kapprox": {"nodes": lambda r, a, k: len(r.nodes),
                              "edges": lambda r, a, k: len(r.edges)},
    "automata.determinize": {"states": lambda r, a, k: r.n_states},
}


def _expr_size(e) -> int:
    """Node count of a pair expression (Cat/Sum have parts, Star a child)."""
    size, todo = 0, [e]
    while todo:
        node = todo.pop()
        size += 1
        todo.extend(getattr(node, "parts", ()))
        child = getattr(node, "child", None)
        if child is not None:
            todo.append(child)
    return size


def layer_names():
    return [f"{mod}.{fn}" for mod, fn in LAYERS]


class Tracer:
    """Context manager: installs the wrappers on enter, removes them on exit."""

    def __init__(self):
        self.names = layer_names()
        self.request = -1
        # one column per span field, so millions of spans stay compact
        self.span = array("q")
        self.layer = array("H")
        self.req = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.sizes: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- install / remove ---------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def __enter__(self):
        modules = self._modules()
        for idx, (mod, fn) in enumerate(LAYERS):
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(home, fn, None)
            if not callable(original):
                continue
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)
        return False

    def _wrap(self, idx, fn):
        name = self.names[idx]
        readers = SIZES.get(name, {})
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._record(idx, span, parent, t0, t1, t1 - t0 - frame[1])
                if stack:
                    stack[-1][1] += t1 - t0
            for size, read in readers.items():
                self.sizes.setdefault((name, size), []).append(
                    read(result, args, kwargs))
            if readers and stack:
                stack[-1][1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, idx, span, parent, t0, t1, self_s):
        self.span.append(span)
        self.layer.append(idx)
        self.req.append(self.request)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        self.self_s.append(self_s)

    def begin(self, request: int):
        """Attribute the following spans to workload call ``request``."""
        self.request = request
        self._stack.clear()

    # -- metrics --------------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """name -> (value, unit); counts and times are per workload call."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx, s in zip(self.layer, self.self_s):
            calls[idx] += 1
            self_s[idx] += s
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[idx] / requests, "count/call")
            out[f"{name}.self_ms"] = (1000.0 * self_s[idx] / requests,
                                      "ms/call")
        for (layer, size), (metric, unit) in SIZE_METRICS.items():
            values = self.sizes.get((layer, size), [])
            if size == "k":
                value = max(values, default=0)
            else:
                value = sum(values) / len(values) if values else 0.0
            out[f"{layer}.{metric}"] = (value, unit)
        distances = out["kapprox.distance.calls"][0]
        probes = out["kapprox.kclose.calls"][0]
        out["kapprox.probes_per_distance"] = (
            probes / distances if distances else 0.0, "count")
        return out


#: (layer, size) -> (metric suffix, unit); sizes are means per layer call,
#: except the k of kclose, which is the largest probed
SIZE_METRICS = {
    ("transducers.joint_product", "states"): ("states", "states"),
    ("conjugacy.sumfree_decompose", "summands"): ("summands", "count"),
    ("conjugacy.state_elimination", "expr_size"): ("expr_size", "nodes"),
    ("conjugacy.verify_witness", "hits"): ("hit_ratio", "ratio"),
    ("kapprox.kclose", "k"): ("max_k", "k"),
    ("kapprox.build_kapprox", "nodes"): ("nodes", "nodes"),
    ("kapprox.build_kapprox", "edges"): ("edges", "edges"),
    ("automata.determinize", "states"): ("states", "states"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in layer_names():
        out.append((f"{name}.calls", "count/call", "lower"))
        out.append((f"{name}.self_ms", "ms/call", "lower"))
    for (layer, _), (metric, unit) in SIZE_METRICS.items():
        better = "higher" if metric == "hit_ratio" else "lower"
        out.append((f"{layer}.{metric}", unit, better))
    out.append(("kapprox.probes_per_distance", "count", "lower"))
    out.append(("trace_overhead_ratio", "ratio", "higher"))
    return out
