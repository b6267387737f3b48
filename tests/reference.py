"""Reference semantics that the differential tests compare `orbitpn` against.

The firing rule stated on `Marking`s in `Multiset` arithmetic, guards
evaluated by walking the tree, and the incidence matrix built arc by arc.
`orbitpn` runs all three on the compiled net (`Net.compiled`,
`expr.compile_guard`); nothing here touches that path.

Also the canonical text of a formal sum, formatted afresh on every call, and
the records (`orbitpn.multiset.Record`) defined as frozen dataclasses.
"""

from __future__ import annotations

import dataclasses
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
from orbitpn.engine import MODES
from orbitpn.multiset import Record

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
