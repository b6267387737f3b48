"""Enabling and firing semantics: tokens move between orbits by token calling.

A transition is enabled when it has at least one input arc, every input arc's
called tokens are available in its place, and the guard holds under the
current environment.  Firing removes the called tokens from each input place
and deposits each output arc's tokens; a transition without output arcs is a
sink and consumes its called tokens outright.

Two containment readings of "the tokens can be called" are supported:

* ``subset`` (default) - the called multiset is contained in the place, so
  bystander tokens in the same orbit do not block the transition;
* ``exact``  - the place content must equal the called multiset.

Every bundled model behaves identically under both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import eval_guard
from .model import Environment, Marking, Net
from .multiset import Multiset

MODES = ("subset", "exact")


class NotEnabledError(RuntimeError):
    """Firing was requested for a transition that is not enabled."""

    def __init__(self, transition: str, reason: str, step: int | None = None,
                 trace: "Trace | None" = None):
        at = f" (step {step})" if step is not None else ""
        super().__init__(f"transition {transition!r} not enabled{at}: {reason}")
        self.transition = transition
        self.reason = reason
        self.step = step
        self.trace = trace


@dataclass(frozen=True)
class FiringEvent:
    """One firing: 1-based step index, transition id, and the state it produced."""
    step: int
    transition: str
    env_snapshot: dict[str, float]
    marking_after: Marking


@dataclass(frozen=True)
class Trace:
    net_name: str
    initial: Marking
    events: tuple[FiringEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def final(self) -> Marking:
        return self.events[-1].marking_after if self.events else self.initial


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown containment mode {mode!r}; expected one of {MODES}")


def enabling_failure(net: Net, m: Marking, t: str, env: Environment,
                     mode: str = "subset") -> str | None:
    """Why `t` is not enabled at `m`, or None if it is.

    The guard is always evaluated, even when token calling already fails, so
    an unbound environment variable surfaces as an error rather than being
    masked by a structural refusal.

    `core.CompiledNet.enabled_moves` is the same token test on slot vectors,
    used by `algebra.reachability_graph`; a change to the rule here must be
    made there too (`test_agrees_with_reference_bfs` compares the two).
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
    """True iff `t` can fire at `m` under `env` (see module docstring)."""
    return enabling_failure(net, m, t, env, mode) is None


def fire(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> Marking:
    """Fire `t`, returning the new marking; the input marking is untouched."""
    failure = enabling_failure(net, m, t, env, mode)
    if failure is not None:
        raise NotEnabledError(t, failure)
    return _move(net, m, t)


def _move(net: Net, m: Marking, t: str) -> Marking:
    """The token move of firing `t` at `m`; the caller has checked that `t` is enabled."""
    assignment = m.as_dict()
    for place, called in net.inputs[t]:
        assignment[place] = assignment[place] - called
    for place, deposited in net.outputs[t]:
        assignment[place] = assignment.get(place, Multiset()) + deposited
    return Marking(assignment)


def enabled_set(net: Net, m: Marking, env: Environment, mode: str = "subset") -> list[str]:
    """All enabled transitions, in declaration order."""
    return [t for t in net.transition_ids if enabled(net, m, t, env, mode)]


def fire_sequence(net: Net, m0: Marking, seq: Sequence[str],
                  envs: Sequence[Environment], mode: str = "subset") -> Trace:
    """Fire the transitions of `seq` in order, one environment snapshot each.

    Fails atomically at the first transition that is not enabled; the raised
    error carries the 1-based step index and the trace of the prefix that did
    execute.
    """
    if len(seq) != len(envs):
        raise ValueError(f"sequence has {len(seq)} firings but {len(envs)} environments")
    events: list[FiringEvent] = []
    m = m0
    for k, (t, env) in enumerate(zip(seq, envs), start=1):
        failure = enabling_failure(net, m, t, env, mode)
        if failure is not None:
            prefix = Trace(net.name, m0, tuple(events))
            raise NotEnabledError(t, failure, step=k, trace=prefix)
        m = _move(net, m, t)
        events.append(FiringEvent(k, t, dict(env), m))
    return Trace(net.name, m0, tuple(events))


def step(net: Net, m: Marking, env: Environment, policy: str = "sweep",
         mode: str = "subset") -> tuple[Marking, list[str]]:
    """One simulation step; returns the new marking and the transitions fired.

    ``sweep`` tries every transition in declaration order, firing each one
    that is enabled against the current intermediate marking; ``single`` stops
    after the first firing.  An empty fired list means quiescence (deadlock
    under the given environment), which is a normal outcome.
    """
    trace = simulate(net, m, env, 1, policy, mode)
    return trace.final, [ev.transition for ev in trace.events]


def simulate(net: Net, m0: Marking, env: Environment, steps: int,
             policy: str = "sweep", mode: str = "subset") -> Trace:
    """Run up to `steps` steps (see `step`), halting early on quiescence."""
    if policy not in ("sweep", "single"):
        raise ValueError(f"unknown policy {policy!r}; expected 'sweep' or 'single'")
    events: list[FiringEvent] = []
    m = m0
    k = 0
    for _ in range(steps):
        fired_any = False
        for t in net.transition_ids:
            if enabled(net, m, t, env, mode):
                m = _move(net, m, t)
                k += 1
                events.append(FiringEvent(k, t, dict(env), m))
                fired_any = True
                if policy == "single":
                    break
        if not fired_any:
            break
    return Trace(net.name, m0, tuple(events))
