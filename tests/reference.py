"""Reference semantics that the differential tests compare `orbitpn` against.

The firing rule stated on `Marking`s in `Multiset` arithmetic, and guards
evaluated by walking the tree.  `orbitpn` runs both on the compiled net
(`Net.compiled`, `expr.compile_guard`); nothing here touches that path.
"""

from __future__ import annotations

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
    TrueLiteral,
    UnboundVariableError,
    VarRef,
)
from orbitpn.engine import MODES

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
