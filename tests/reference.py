"""Reference semantics that the differential tests compare `orbitpn` against.

The firing rule stated on `Marking`s in `Multiset` arithmetic, guards
evaluated by walking the tree, and the incidence matrix built arc by arc.
`orbitpn` runs all three on the compiled net (`Net.compiled`,
`expr.compile_guard`); nothing here touches that path.

Also the canonical text of a formal sum, formatted afresh on every call,
the records (`orbitpn.multiset.Record`) defined as frozen dataclasses, and
trace replay as a whole-document pipeline: the document read into a `Trace`,
its transitions re-fired by `engine.fire_sequence` and the two traces
compared marking by marking.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Mapping

from orbitpn import (
    AndExpr,
    Comparison,
    Environment,
    Marking,
    Multiset,
    Net,
    NotEnabledError,
    NotExpr,
    NumLit,
    OrExpr,
    SignedMultiset,
    TRUE,
    TrueLiteral,
    UnboundVariableError,
    VarRef,
)
from orbitpn import expr
from orbitpn.engine import MODES, FiringEvent, Trace, fire_sequence
from orbitpn.expr import guard_variables
from orbitpn.multiset import Record
from orbitpn.trace_io import ReplayError

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _eval_num(e, env: Mapping[str, float]) -> float:
    if isinstance(e, NumLit):
        return e.value
    if isinstance(e, VarRef):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    lhs = _eval_num(e.lhs, env)
    rhs = _eval_num(e.rhs, env)
    return lhs + rhs if e.op == "+" else lhs - rhs


def eval_guard(g, env: Mapping[str, float]) -> bool:
    """Evaluate a guard against variable bindings; unbound names are an error."""
    if isinstance(g, TrueLiteral):
        return True
    if isinstance(g, Comparison):
        return _COMPARE[g.op](_eval_num(g.lhs, env), _eval_num(g.rhs, env))
    if isinstance(g, NotExpr):
        return not eval_guard(g.operand, env)
    if isinstance(g, (AndExpr, OrExpr)):
        # evaluate both sides: an unbound variable must raise even when the
        # other side already decides the result
        lhs = eval_guard(g.lhs, env)
        rhs = eval_guard(g.rhs, env)
        return (lhs and rhs) if isinstance(g, AndExpr) else (lhs or rhs)
    raise TypeError(f"not a guard expression: {g!r}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown containment mode {mode!r}; expected one of {MODES}")


def enabling_failure(net: Net, m: Marking, t: str, env: Environment,
                     mode: str = "subset") -> str | None:
    """Why `t` is not enabled at `m`, or None if it is.

    The guard is always evaluated, even when token calling already fails, so
    an unbound environment variable surfaces as an error rather than being
    masked by a structural refusal.
    """
    _check_mode(mode)
    guard_ok = eval_guard(net.transition(t).guard, env)
    inputs = net.inputs[t]
    if not inputs:
        return "no input arcs (source transitions are never enabled)"
    for place, called in inputs:
        held = m[place]
        if not held:
            return f"input place {place!r} is empty"
        if mode == "subset":
            if not called <= held:
                return f"token calling unsatisfied at {place!r}: arc calls {called}, place holds {held}"
        elif held != called:
            return f"exact-mode mismatch at {place!r}: arc calls {called}, place holds {held}"
    if not guard_ok:
        return "guard is false"
    return None


def enabled(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> bool:
    """True iff `t` can fire at `m` under `env`."""
    return enabling_failure(net, m, t, env, mode) is None


def fire(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> Marking:
    """Fire `t`, returning the new marking; the input marking is untouched."""
    failure = enabling_failure(net, m, t, env, mode)
    if failure is not None:
        raise NotEnabledError(t, failure)
    assignment = m.as_dict()
    for place, called in net.inputs[t]:
        assignment[place] = assignment[place] - called
    for place, deposited in net.outputs[t]:
        assignment[place] = assignment.get(place, Multiset()) + deposited
    return Marking(assignment)


def enabled_set(net: Net, m: Marking, env: Environment, mode: str = "subset") -> list[str]:
    """All enabled transitions, in declaration order."""
    return [t for t in net.transition_ids if enabled(net, m, t, env, mode)]


def incidence_entries(net: Net) -> tuple[tuple[SignedMultiset, ...], ...]:
    """Entry (p, t) = output weight w(t->p) minus input weight w(p->t), from
    the arcs (`net.inputs`, `net.outputs`); rows are places."""
    deposited, called = {}, {}
    for t in net.transition_ids:
        for place, w in net.outputs[t]:
            deposited[(place, t)] = SignedMultiset(w)
        for place, w in net.inputs[t]:
            called[(place, t)] = SignedMultiset({c: -n for c, n in w.items()})
    zero = SignedMultiset()
    return tuple(
        tuple(deposited.get((p, t), zero) + called.get((p, t), zero) for t in net.transition_ids)
        for p in net.place_ids
    )


def format_sum(coeffs: Mapping[str, int]) -> str:
    """Canonical text of a formal sum: positive terms before negative ones,
    each run sorted by color, a coefficient of 1 left out; "0" when empty."""
    terms = sorted(((c, n) for c, n in coeffs.items() if n), key=lambda t: (t[1] < 0, t[0]))
    text = "".join(("-" if n < 0 else "+") + ("" if abs(n) == 1 else str(abs(n))) + c
                   for c, n in terms)
    return text.removeprefix("+") or "0"


class DataclassTwins:
    """Each `Record` of orbitpn as the frozen dataclass it was before `Record`:
    the same class name, fields, defaults and field conversions."""

    @dataclasses.dataclass(frozen=True)
    class NumLit:
        value: float

    @dataclasses.dataclass(frozen=True)
    class VarRef:
        name: str

    @dataclasses.dataclass(frozen=True)
    class Arith:
        op: str
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class TrueLiteral:
        pass

    @dataclasses.dataclass(frozen=True)
    class Comparison:
        op: str
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class NotExpr:
        operand: object

    @dataclasses.dataclass(frozen=True)
    class AndExpr:
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class OrExpr:
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class Place:
        id: str
        rotation: int

    @dataclasses.dataclass(frozen=True)
    class Transition:
        id: str
        guard: object = TRUE

    @dataclasses.dataclass(frozen=True)
    class Arc:
        source: str
        target: str
        weight: Multiset

    @dataclasses.dataclass(frozen=True)
    class Net:
        name: str
        colors: tuple
        places: tuple
        transitions: tuple
        arcs: tuple
        initial_marking: Marking = dataclasses.field(default_factory=Marking)

        def __post_init__(self):
            object.__setattr__(self, "colors", tuple(self.colors))
            object.__setattr__(self, "places", tuple(self.places))
            object.__setattr__(self, "transitions", tuple(self.transitions))
            object.__setattr__(self, "arcs", tuple(self.arcs))

    @dataclasses.dataclass(frozen=True)
    class FiringEvent:
        step: int
        transition: str
        env_snapshot: dict
        marking_after: Marking

    @dataclasses.dataclass(frozen=True)
    class Trace:
        net_name: str
        initial: Marking
        events: tuple = ()

        def __post_init__(self):
            object.__setattr__(self, "events", tuple(self.events))

    @dataclasses.dataclass(frozen=True)
    class IncidenceMatrix:
        place_ids: tuple
        transition_ids: tuple
        entries: tuple

    @dataclasses.dataclass(frozen=True)
    class ReachabilityGraph:
        nodes: tuple
        depths: tuple
        edges: tuple
        deadlocks: tuple
        truncated: bool


def dataclass_twin(value):
    """`value` with every `Record` or twin in it, also inside tuples and
    lists, rebuilt as its `DataclassTwins` class."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(dataclass_twin, value))
    if isinstance(value, Record) or dataclasses.is_dataclass(value):
        twin = getattr(DataclassTwins, type(value).__name__)
        return twin(*(dataclass_twin(getattr(value, f)) for f in type(value).__match_args__))
    return value


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


def replay(net: Net, doc: dict) -> Marking:
    """Re-fire every event of the document and return the resulting marking.

    Reads the whole document into a `Trace` first, so every fault of its
    shape comes before any fault of its replay; then re-fires the events in
    one `engine.fire_sequence` call, up to the first unknown transition, and
    compares the two traces.
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
