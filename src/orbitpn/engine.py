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

All of it runs on the compiled net (`Net.compiled`): a marking is one packed
int (`CompiledNet.pack`), each transition's token test is built once per
mode and field size (`CompiledNet.token_tests`), a firing adds a packed
incidence column and each guard is a Python function compiled with the net.
`enabling_failure` asks the same view (`CompiledNet.refusal`) what failed.
The mode is checked before the marking.  A run under one environment reads
every guard before its first token test (`CompiledNet.live`); `fire_sequence`,
whose environment varies, reads each guard at its step.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .core import check_mode
from .model import Environment, Marking, Net
from .multiset import Record


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


class FiringEvent(Record):
    """One firing: 1-based step index, transition id, and the state it produced."""
    __slots__ = __match_args__ = ("step", "transition", "env_snapshot", "marking_after")


class Trace(Record):
    __slots__ = __match_args__ = ("net_name", "initial", "events")

    def __init__(self, net_name: str, initial: Marking, events=()):
        super().__init__(net_name, initial, tuple(events))

    @property
    def final(self) -> Marking:
        return self.events[-1].marking_after if self.events else self.initial


def enabling_failure(net: Net, m: Marking, t: str, env: Environment,
                     mode: str = "subset") -> str | None:
    """Why `t` is not enabled at `m`, or None if it is.

    The guard is always evaluated, even when token calling already fails, so
    an unbound environment variable surfaces as an error rather than being
    masked by a structural refusal.  A failed token test is named by the
    view (`CompiledNet.refusal`) before a false guard.
    """
    check_mode(mode)
    view = net.compiled
    k = net.transition_index[net.transition(t).id]  # KeyError names an unknown t
    guard_ok = view.guards[k](env)
    return view.refusal(k, view.encode(m), mode) or (None if guard_ok else "guard is false")


def enabled(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> bool:
    """True iff `t` can fire at `m` under `env` (see module docstring)."""
    return enabling_failure(net, m, t, env, mode) is None


def fire(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> Marking:
    """Fire `t`, returning the new marking; the input marking is untouched.

    A one-step `fire_sequence`; its refusal carries no step and no trace.
    """
    try:
        return fire_sequence(net, m, [t], [env], mode).final
    except NotEnabledError as err:
        raise NotEnabledError(t, err.reason) from None


def enabled_set(net: Net, m: Marking, env: Environment, mode: str = "subset") -> list[str]:
    """All enabled transitions, in declaration order; every guard is read first."""
    check_mode(mode)
    view = net.compiled
    live = view.live(env)
    packed, size = view.pack(view.encode(m))
    return [t for t, _ in view.moves(live, mode, size)(packed)]


def fire_sequence(net: Net, m0: Marking, seq: Sequence[str],
                  envs: Sequence[Environment], mode: str = "subset") -> Trace:
    """Fire the transitions of `seq` in order, one environment snapshot each.

    Fails atomically at the first transition that is not enabled; the raised
    error carries the 1-based step index and the trace of the prefix that did
    execute.

    Markings are decoded once, at the end or at the refusal, and only a
    refusal calls `enabling_failure`, for its reason.
    """
    if len(seq) != len(envs):
        raise ValueError(f"sequence has {len(seq)} firings but {len(envs)} environments")
    check_mode(mode)
    view = net.compiled
    m, size = view.pack(view.encode(m0), len(seq))
    tests = view.token_tests(mode, size)
    packed = [m]
    for t, env in zip(seq, envs):
        k = net.transition_index.get(t)
        move = k is not None and view.guards[k](env) and tests[k](m)
        if not move:
            break
        m += move[1]
        packed.append(m)
    trace = _chain(net, m0, packed, size, seq, envs)
    done = len(trace.events)
    if done < len(seq):
        t, env = seq[done], envs[done]
        failure = enabling_failure(net, trace.final, t, env, mode)
        raise NotEnabledError(t, failure, step=done + 1, trace=trace)
    return trace


def step(net: Net, m: Marking, env: Environment, policy: str = "sweep",
         mode: str = "subset") -> tuple[Marking, list[str]]:
    """One simulation step; returns the new marking and the transitions fired.

    Every guard is evaluated first, once (`CompiledNet.live`).  ``sweep`` then
    tries each transition whose guard holds, in declaration order, firing each
    one that is enabled against the current intermediate marking; ``single``
    stops after the first firing.  An empty fired list means quiescence
    (deadlock under the given environment), which is a normal outcome.
    """
    trace = simulate(net, m, env, 1, policy, mode)
    return trace.final, [ev.transition for ev in trace.events]


def simulate(net: Net, m0: Marking, env: Environment, steps: int,
             policy: str = "sweep", mode: str = "subset") -> Trace:
    """Run up to `steps` steps (see `step`) under guards evaluated once, halting on quiescence."""
    if policy not in ("sweep", "single"):
        raise ValueError(f"unknown policy {policy!r}; expected 'sweep' or 'single'")
    steps = index(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    check_mode(mode)
    view = net.compiled
    live = view.live(env)
    # a sweep fires each live transition at most once
    m, size = view.pack(view.encode(m0), steps * len(live))
    tests = view.token_tests(mode, size)
    fired, packed = [], [m]
    for _ in range(steps):
        before = len(fired)
        for k in live:
            move = tests[k](m)
            if move:
                t, delta = move
                m += delta
                fired.append(t)
                packed.append(m)
                if policy == "single":
                    break
        if len(fired) == before:
            break
    return _chain(net, m0, packed, size, fired, [env] * len(fired))


def _chain(net: Net, m0: Marking, packed: list[int], size: int, fired: Sequence[str],
           envs: Sequence[Environment]) -> Trace:
    """The trace from `m0` along `packed`, m0 first at `size` bytes a field:
    the k-th of `fired`, under the k-th of `envs`, made the k-th marking after
    m0, and only those are decoded."""
    after = net.compiled.decode(packed[1:], size)
    return Trace(net.name, m0, (FiringEvent(k, t, dict(env), marking) for k, (t, env, marking)
                                in enumerate(zip(fired, envs, after), start=1)))
