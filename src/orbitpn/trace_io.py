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
every intermediate marking, which is how round-trip integrity is tested; it
fires and compares markings as the packed ints of `core.CompiledNet`.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from . import expr
from .engine import Trace, enabled_set, enabling_failure
from .expr import UnboundVariableError
from .model import MODES, Marking, Net


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


def _weight(place, text, parse, where: str):
    """`text` parsed as what `place` holds, or a ReplayError led by `where`."""
    if not isinstance(text, str):
        raise ReplayError(f"{where}: place {place!r} holds {text!r}, not a weight expression")
    try:
        return parse(text)
    except expr.ParseError as err:
        raise ReplayError(f"{where}: {err}") from None


def _marking(entries: dict, parse, where: str) -> Marking:
    """The marking of (place, text) `entries`; parsed weights are never empty."""
    return Marking._of({place: _weight(place, text, parse, where) for place, text in entries.items()})


def _env_field(record: dict, step: int) -> dict[str, float]:
    """The event's environment as floats, or a ReplayError naming the variable."""
    env = {}
    for name, value in _field(record, "env", step, dict).items():
        try:
            env[name] = float(value)
        except (TypeError, ValueError, OverflowError):  # an int past float range overflows
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


def write_trace(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_trace(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def replay(net: Net, doc: dict) -> Marking:
    """Re-fire every event of the document and return the resulting marking.

    Raises ReplayError if the document lacks a field, has one of the wrong
    JSON type, is for another net, has an unknown mode, holds a marking that
    does not parse, has an `initial` naming a place the net lacks, names an
    unknown transition, one that is not enabled or one whose guard reads a
    variable its `env` lacks, or records a marking that differs from what the
    engine reproduces.  The first fault in this order is reported: the shape
    of `initial` and its places, then of the events, step by step; a missing
    or wrong `net`; an unknown `mode`; the replay's faults, step by step;
    then `final`, its shape or a divergence.

    One pass reads the events, each event's fields in order, and packs each
    recorded (place, text) once, with `CompiledNet.share`; a second fires them
    on the packed marking, as `engine.fire_sequence` does, comparing one int
    per step.  Only the final marking, and one an error prints, is decoded.
    """
    if not isinstance(doc, dict):
        raise ReplayError("document is not a JSON object")
    parse = functools.cache(functools.partial(expr.parse_weight_expr, colors=net.colors))
    initial = _marking(_field(doc, "initial", kind=dict), parse, "document: 'initial'")
    view = net.compiled
    try:
        vec = view.encode(initial)
    except KeyError as err:
        raise ReplayError(f"document: 'initial': {err.args[0]}") from None
    events = _field(doc, "events", kind=list)
    m, size = view.pack(vec, len(events))
    worth: dict[tuple, int] = {}  # (place, text) -> its packed share

    recorded = []
    for k, ev in enumerate(events, start=1):
        if not isinstance(ev, dict):
            raise ReplayError(f"step {k}: event is not a JSON object")
        step, t = _field(ev, "step", k), _field(ev, "transition", k, str)
        env, entries = _env_field(ev, k), _field(ev, "marking", k, dict)
        after = 0
        for place, text in entries.items():
            share = worth.get((place, text)) if isinstance(text, str) else None
            if share is None:
                weight = _weight(place, text, parse, f"step {k}: 'marking'")
                share = worth[place, text] = view.share(place, weight, size)
            after += share
        recorded.append((step, t, env, after, entries))

    name = _field(doc, "net")
    if name != net.name:
        raise ReplayError(f"document is for net {name!r}, not {net.name!r}")
    mode = doc.get("mode", "subset")
    if recorded:
        if mode not in MODES:
            raise ReplayError(f"step {recorded[0][0]}: unknown containment mode {mode!r}")
        tests = view.token_tests(mode, size)
    for step, t, env, after, entries in recorded:
        i = net.transition_index.get(t)
        if i is None:
            raise ReplayError(f"step {step}: unknown transition {t!r}")
        try:
            move = view.guards[i](env) and tests[i](m)
        except UnboundVariableError as err:
            raise ReplayError(f"step {step}: {err}") from None
        if not move:
            reason = enabling_failure(net, view.decode([m], size)[0], t, env, mode)
            raise ReplayError(f"step {step}: transition {t!r} not enabled: {reason}")
        m += move[1]
        if m != after:
            raise ReplayError(f"step {step}: replay produced {view.decode([m], size)[0]}, "
                              f"document records {_marking(entries, parse, '')}")  # read once: no fault
    got = view.decode([m], size)[0]
    final = _marking(_field(doc, "final", kind=dict), parse, "document: 'final'")
    if got != final:
        raise ReplayError(f"final marking diverges: replay {got}, document {final}")
    return got
