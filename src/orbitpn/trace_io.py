"""Trace documents: JSON serialization of firing traces, plus replay.

Schema::

    {
      "net": str,
      "mode": "subset" | "exact",
      "initial": {place: weight-expression},
      "events": [{"step": int, "transition": str,
                  "env": {name: number}, "marking": {place: weight-expression}}],
      "final": {place: weight-expression},
      "deadlock": bool
    }

Markings serialize as weight-expression strings per place, empty places
omitted, so documents are readable and reparse through the same grammar the
net files use.  `replay` re-executes a document against its net and checks
every intermediate marking, which is how round-trip integrity is tested.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import expr
from .engine import FiringEvent, NotEnabledError, Trace, enabled_set, fire
from .model import Marking, Net
from .multiset import Multiset


class ReplayError(ValueError):
    """A trace document is malformed, names another net, or does not replay."""


def _field(record: dict, key: str, step: int | None = None):
    """record[key], or a ReplayError naming the key and the 1-based event step."""
    try:
        return record[key]
    except KeyError:
        where = "document" if step is None else f"step {step}"
        raise ReplayError(f"{where}: missing {key!r}") from None


def _marking_field(record: dict, key: str, colors, step: int | None = None) -> Marking:
    """record[key] parsed as a marking, or a ReplayError naming the key or step."""
    try:
        return marking_from_strings(_field(record, key, step), colors)
    except expr.ParseError as err:
        where = f"document: {key!r}" if step is None else f"step {step}: {key!r}"
        raise ReplayError(f"{where}: {err}") from None


def marking_to_strings(m: Marking) -> dict[str, str]:
    return {place: str(tokens) for place, tokens in m.items()}


def marking_from_strings(data: dict[str, str], colors) -> Marking:
    assignment: dict[str, Multiset] = {}
    for place, text in data.items():
        assignment[place] = expr.parse_weight_expr(text, colors)
    return Marking(assignment)


def trace_document(net: Net, trace: Trace, mode: str = "subset",
                   final_env: dict[str, float] | None = None) -> dict:
    """Serialize a trace; the deadlock flag reports whether anything is still
    enabled at the final marking under `final_env` (default: the last event's
    environment, or an empty one for an event-free trace)."""
    if final_env is None:
        final_env = dict(trace.events[-1].env_snapshot) if trace.events else {}
    deadlock = not enabled_set(net, trace.final, final_env, mode)
    return {
        "net": trace.net_name,
        "mode": mode,
        "initial": marking_to_strings(trace.initial),
        "events": [
            {
                "step": ev.step,
                "transition": ev.transition,
                "env": dict(ev.env_snapshot),
                "marking": marking_to_strings(ev.marking_after),
            }
            for ev in trace.events
        ],
        "final": marking_to_strings(trace.final),
        "deadlock": deadlock,
    }


def trace_from_document(doc: dict, colors) -> Trace:
    initial = _marking_field(doc, "initial", colors)
    events = tuple(
        FiringEvent(
            step=_field(ev, "step", k),
            transition=_field(ev, "transition", k),
            env_snapshot={n: float(v) for n, v in _field(ev, "env", k).items()},
            marking_after=_marking_field(ev, "marking", colors, k),
        )
        for k, ev in enumerate(_field(doc, "events"), start=1)
    )
    return Trace(_field(doc, "net"), initial, events)


def write_trace(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_trace(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def replay(net: Net, doc: dict) -> Marking:
    """Re-fire every event of the document and return the resulting marking.

    Raises ReplayError if the document lacks a field, is for another net,
    holds a marking that does not parse, names an unknown transition or one
    that is not enabled, or records an intermediate or final marking that
    differs from what the engine reproduces.
    """
    trace = trace_from_document(doc, net.colors)
    if trace.net_name != net.name:
        raise ReplayError(f"document is for net {trace.net_name!r}, not {net.name!r}")
    mode = doc.get("mode", "subset")
    m = trace.initial
    for ev in trace.events:
        if ev.transition not in net.transition_index:
            raise ReplayError(f"step {ev.step}: unknown transition {ev.transition!r}")
        try:
            m = fire(net, m, ev.transition, ev.env_snapshot, mode)
        except NotEnabledError as err:
            raise ReplayError(f"step {ev.step}: {err}") from None
        if m != ev.marking_after:
            raise ReplayError(
                f"step {ev.step}: replay produced {m}, document records {ev.marking_after}"
            )
    final = _marking_field(doc, "final", net.colors)
    if m != final:
        raise ReplayError(f"final marking diverges: replay {m}, document {final}")
    return m
