"""Spans around calls into orbitpn's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in its own module and in every orbitpn module that
imported it by name (``orbitpn.engine.eval_guard``, ``orbitpn.algebra.fire``,
...); ``uninstall`` restores the originals.  ``src/`` is never edited.

A span has a name (``layer.function``), start and end (``perf_counter_ns``),
parent span, query id, and the exception type it ended with, if any.  Spans
are kept in memory in flat arrays and written out once, by ``dump``.  A call
a function makes to itself (``eval_guard`` walking a guard tree) is not a
new call into the layer and gets no span of its own.

A few functions also feed counters (states, edges, lines, events, ...) from
their arguments and results, so that ratios are measured where the work is.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("netfile", "model", "expr", "engine", "algebra", "trace_io", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _parse_net(t, args, kwargs, result, dur):
    t.count["netfile.lines"] += len(_arg(args, kwargs, 0, "text").splitlines())


def _enabling_failure(t, args, kwargs, result, dur):
    t.count["engine.enabled"] += result is None


def _reachability_graph(t, args, kwargs, result, dur):
    t.count["algebra.bfs_states"] += len(result.nodes)
    t.count["algebra.bfs_edges"] += len(result.edges)


def _witness(t, args, kwargs, result, dur):
    if result is None:
        n = len(_arg(args, kwargs, 0, "net").transitions)
        bound = _arg(args, kwargs, 3, "max_total_firings")
        t.count["algebra.witness_space"] += math.comb(bound + n, n)
        t.count["algebra.no_witness_ns"] += dur


def _trace_document(t, args, kwargs, result, dur):
    t.count["trace_io.events"] += len(result["events"])


def _replay(t, args, kwargs, result, dur):
    t.count["trace_io.replayed_events"] += len(_arg(args, kwargs, 1, "doc")["events"])


HOOKS = {
    "netfile.parse_net": _parse_net,
    "engine.enabling_failure": _enabling_failure,
    "algebra.reachability_graph": _reachability_graph,
    "algebra.check_reachability_condition": _witness,
    "trace_io.trace_document": _trace_document,
    "trace_io.replay": _replay,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.errors: list[str] = [""]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.error = array("i")
        self.count: dict[str, int] = defaultdict(int)
        self.query_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _error_id(self, exc: BaseException) -> int:
        name = type(exc).__name__
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.error.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, exc: BaseException | None = None) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if exc is not None:
            self.error[idx] = self._error_id(exc)

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, e.g. around one query."""
        idx = self._open(self._name_id(name) if name not in self.names else self.names.index(name))
        try:
            yield
        except BaseException as exc:
            self._close(idx, exc)
            raise
        self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        stack, names_col = self._stack, self.name

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names_col[top] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result, self.end[idx] - self.start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"orbitpn.{layer}")
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{fname}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "orbitpn" and not modname.startswith("orbitpn."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def spans(self) -> dict:
        return {"names": self.names, "errors": self.errors, "counters": dict(self.count),
                "name": list(self.name), "start_ns": list(self.start), "end_ns": list(self.end),
                "parent": list(self.parent), "query": list(self.query), "error": list(self.error)}


def dump(spans: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(spans, fh, separators=(",", ":"))


def merge(parts: list[tuple[int, dict]]) -> dict:
    """Concatenate span dumps of separate processes, one query id per dump."""
    out = {"names": [], "errors": [""], "counters": defaultdict(int), "name": [], "start_ns": [],
           "end_ns": [], "parent": [], "query": [], "error": []}
    for qid, part in parts:
        base = len(out["name"])
        out["name"] += [_intern(out["names"], part["names"][n]) for n in part["name"]]
        out["error"] += [_intern(out["errors"], part["errors"][e]) if e else 0 for e in part["error"]]
        out["parent"] += [p + base if p >= 0 else -1 for p in part["parent"]]
        out["query"] += [qid] * len(part["name"])
        out["start_ns"] += part["start_ns"]
        out["end_ns"] += part["end_ns"]
        for key, value in part["counters"].items():
            out["counters"][key] += value
    return out


def _intern(table: list[str], name: str) -> int:
    if name not in table:
        table.append(name)
    return table.index(name)


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans: dict) -> dict[str, tuple[float, str]]:
    """Counts, self times and ratios per layer from a span dump."""
    names = spans["names"]
    n = len(spans["name"])
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    child = [0] * n
    raised_child = [False] * n
    not_enabled = spans["errors"].index("NotEnabledError") if "NotEnabledError" in spans["errors"] else -1
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
            if spans["error"][i] == not_enabled:
                raised_child[p] = True
    calls = defaultdict(int)
    incl = defaultdict(int)
    self_ns = defaultdict(int)
    engine_top_ns = 0
    refusals = 0
    for i in range(n):
        name = names[spans["name"][i]]
        calls[name] += 1
        incl[name] += dur[i]
        self_ns[name] += dur[i] - child[i]
        if name.startswith("engine."):
            p = spans["parent"][i]
            if p < 0 or not names[spans["name"][p]].startswith("engine."):
                engine_top_ns += dur[i]
            if spans["error"][i] == not_enabled and not raised_child[i]:
                refusals += 1
    cnt = defaultdict(int, spans["counters"])

    def sec(ns):
        return ns / 1e9

    def rate(work, ns):
        return work / sec(ns) if ns else 0.0

    checks = calls["engine.enabling_failure"]
    fires = calls["engine.fire"]
    return {
        "netfile.parse_calls": (calls["netfile.parse_net"], "count"),
        "netfile.parse_ms": (self_ns["netfile.parse_net"] / 1e6, "ms"),
        "netfile.lines_per_s": (rate(cnt["netfile.lines"], incl["netfile.parse_net"]), "lines/s"),
        "netfile.load_ms": (incl["netfile.load_net"] / 1e6, "ms"),
        "model.validate_calls": (calls["model.validate_net"], "count"),
        "model.validate_ms": (incl["model.validate_net"] / 1e6, "ms"),
        "expr.eval_guard_calls": (calls["expr.eval_guard"], "count"),
        "expr.eval_guard_s": (sec(self_ns["expr.eval_guard"]), "s"),
        "expr.parse_weight_calls": (calls["expr.parse_weight_expr"], "count"),
        "expr.parse_weight_s": (sec(incl["expr.parse_weight_expr"]), "s"),
        "engine.enabling_checks": (checks, "count"),
        "engine.enabled_set_calls": (calls["engine.enabled_set"], "count"),
        "engine.fire_calls": (fires, "count"),
        "engine.checks_per_firing": (checks / fires if fires else 0.0, "ratio"),
        "engine.enabled_ratio": (cnt["engine.enabled"] / checks if checks else 0.0, "ratio"),
        "engine.enabling_s": (sec(self_ns["engine.enabling_failure"]), "s"),
        "engine.fire_s": (sec(self_ns["engine.fire"]), "s"),
        "engine.firings_per_s": (rate(fires, engine_top_ns), "1/s"),
        "engine.not_enabled": (refusals, "count"),
        "algebra.bfs_states": (cnt["algebra.bfs_states"], "count"),
        "algebra.bfs_edges": (cnt["algebra.bfs_edges"], "count"),
        "algebra.bfs_s": (sec(self_ns["algebra.reachability_graph"]), "s"),
        "algebra.bfs_edges_per_s": (rate(cnt["algebra.bfs_edges"], incl["algebra.reachability_graph"]), "1/s"),
        "algebra.witness_queries": (calls["algebra.check_reachability_condition"], "count"),
        "algebra.witness_space": (cnt["algebra.witness_space"], "count"),
        "algebra.witness_s": (sec(incl["algebra.check_reachability_condition"]), "s"),
        "algebra.witness_space_per_s": (rate(cnt["algebra.witness_space"], cnt["algebra.no_witness_ns"]), "1/s"),
        "algebra.incidence_calls": (calls["algebra.incidence_matrix"], "count"),
        "algebra.state_eq_s": (sec(incl["algebra.apply_state_equation"]), "s"),
        "trace_io.events": (cnt["trace_io.events"], "count"),
        "trace_io.document_s": (sec(incl["trace_io.trace_document"]), "s"),
        "trace_io.document_bytes": (cnt["trace_io.document_bytes"], "bytes"),
        "trace_io.replay_s": (sec(incl["trace_io.replay"]), "s"),
        "trace_io.replay_events_per_s": (rate(cnt["trace_io.replayed_events"], incl["trace_io.replay"]), "1/s"),
    }


def query_durations_ms(spans: dict, name: str) -> dict[int, float]:
    """Inclusive duration of the spans called ``name``, per query id."""
    if name not in spans["names"]:
        return {}
    nid = spans["names"].index(name)
    out: dict[int, float] = defaultdict(float)
    for i, n in enumerate(spans["name"]):
        if n == nid:
            out[spans["query"][i]] += (spans["end_ns"][i] - spans["start_ns"][i]) / 1e6
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
