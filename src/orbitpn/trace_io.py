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

import functools
import json
from pathlib import Path

from . import expr
from .engine import MODES, FiringEvent, NotEnabledError, Trace, enabled_set, fire_sequence
from .expr import UnboundVariableError, guard_variables
from .model import Marking, Net


class ReplayError(ValueError):
    """A trace document is malformed, names another net, or does not replay."""


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def _field(record: dict, key: str, step: int | None = None, kind: type | None = None):
    """record[key], or a ReplayError naming the key and the 1-based event step
    if it is missing or, given `kind`, not of that JSON type."""
    where = "document" if step is None else f"step {step}"
    try:
        value = record[key]
    except KeyError:
        raise ReplayError(f"{where}: missing {key!r}") from None
    if kind is not None and not isinstance(value, kind):
        raise ReplayError(f"{where}: {key!r} is not a JSON {_JSON_NAMES[kind]}")
    return value


def _weights(colors):
    """`expr.parse_weight_expr` over `colors`, parsing each distinct text once."""
    return functools.cache(functools.partial(expr.parse_weight_expr, colors=colors))


def _marking_field(record: dict, key: str, parse, step: int | None = None) -> Marking:
    """record[key] parsed as a marking, or a ReplayError naming the key or step."""
    where = f"document: {key!r}" if step is None else f"step {step}: {key!r}"
    assignment = {}
    for place, text in _field(record, key, step, dict).items():
        if not isinstance(text, str):
            raise ReplayError(f"{where}: place {place!r} holds {text!r}, not a weight expression")
        try:
            assignment[place] = parse(text)
        except expr.ParseError as err:
            raise ReplayError(f"{where}: {err}") from None
    return Marking._of(assignment)  # parsed weights are never empty


def _env_field(record: dict, step: int) -> dict[str, float]:
    """The event's environment as floats, or a ReplayError naming the variable."""
    env = {}
    for name, value in _field(record, "env", step, dict).items():
        try:
            env[name] = float(value)
        except (TypeError, ValueError):
            raise ReplayError(f"step {step}: 'env': {name!r} is {value!r}, not a number") from None
    return env


def marking_to_strings(m: Marking) -> dict[str, str]:
    return {place: str(tokens) for place, tokens in m.items()}


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
    """The trace a document records; raises ReplayError for a missing field,
    a field of the wrong JSON type or a marking that does not parse."""
    if not isinstance(doc, dict):
        raise ReplayError("document is not a JSON object")
    parse = _weights(colors)
    initial = _marking_field(doc, "initial", parse)
    events = []
    for k, ev in enumerate(_field(doc, "events", kind=list), start=1):
        if not isinstance(ev, dict):
            raise ReplayError(f"step {k}: event is not a JSON object")
        events.append(FiringEvent(
            step=_field(ev, "step", k),
            transition=_field(ev, "transition", k, str),
            env_snapshot=_env_field(ev, k),
            marking_after=_marking_field(ev, "marking", parse, k),
        ))
    return Trace(_field(doc, "net"), initial, events)


def write_trace(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_trace(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def replay(net: Net, doc: dict) -> Marking:
    """Re-fire every event of the document and return the resulting marking.

    Raises ReplayError if the document lacks a field, has one of the wrong
    JSON type, is for another net, has an unknown mode, holds a marking that
    does not parse, names an unknown transition, one that is not enabled or
    one whose guard reads a variable its `env` lacks, or records a marking
    that differs from what the engine reproduces.  Errors are reported for
    the earliest step at which they occur.

    The events are re-fired in one `engine.fire_sequence` call, up to the
    first unknown transition.
    """
    trace = trace_from_document(doc, net.colors)
    if trace.net_name != net.name:
        raise ReplayError(f"document is for net {trace.net_name!r}, not {net.name!r}")
    mode = doc.get("mode", "subset")
    events = trace.events
    if events and mode not in MODES:
        raise ReplayError(f"step {events[0].step}: unknown containment mode {mode!r}")
    known = next((i for i, ev in enumerate(events) if ev.transition not in net.transition_index),
                 len(events))

    def refire(stop: int) -> Trace:
        return fire_sequence(net, trace.initial, [ev.transition for ev in events[:stop]],
                             [ev.env_snapshot for ev in events[:stop]], mode)

    failure = None
    try:
        fired = refire(known)
    except NotEnabledError as err:
        fired = err.trace
        failure = ReplayError(f"step {events[err.step - 1].step}: transition {err.transition!r} "
                              f"not enabled: {err.reason}")
    except UnboundVariableError as err:
        # it comes without the prefix that did fire: that is every event
        # before the first whose environment lacks a variable its guard reads
        stop = next(i for i, ev in enumerate(events) if not guard_variables(
            net.transition(ev.transition).guard) <= ev.env_snapshot.keys())
        fired = refire(stop)
        failure = ReplayError(f"step {events[stop].step}: {err}")
    for ev, got in zip(events, fired.events):
        if got.marking_after != ev.marking_after:
            raise ReplayError(
                f"step {ev.step}: replay produced {got.marking_after}, document records {ev.marking_after}"
            )
    if failure is not None:
        raise failure
    if known < len(events):
        raise ReplayError(f"step {events[known].step}: unknown transition {events[known].transition!r}")
    m = fired.final
    final = _marking_field(doc, "final", _weights(net.colors))
    if m != final:
        raise ReplayError(f"final marking diverges: replay {m}, document {final}")
    return m
