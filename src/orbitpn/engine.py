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
int (`CompiledNet.pack`), the token test is `CompiledNet.enabled_moves`, a
firing adds a packed incidence column and each guard is compiled to a Python
function.  `enabling_failure` reads the slot tuple to say what failed.
"""

from __future__ import annotations

from typing import Sequence

from .model import MODES, Environment, Marking, Net
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

    # one is built per firing, so the fields are set here, not by `Record`
    def __init__(self, step: int, transition: str, env_snapshot: dict[str, float],
                 marking_after: Marking):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "env_snapshot", env_snapshot)
        object.__setattr__(self, "marking_after", marking_after)


class Trace(Record):
    __slots__ = __match_args__ = ("net_name", "initial", "events")

    def __init__(self, net_name: str, initial: Marking, events=()):
        object.__setattr__(self, "net_name", net_name)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "events", tuple(events))

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
    masked by a structural refusal.  The token test reads the input arcs'
    slot ranges of the compiled net (`CompiledNet.spans`).
    """
    _check_mode(mode)
    k = net.transition_index[net.transition(t).id]  # KeyError names an unknown t
    view = net.compiled.covering(net, m)
    guard_ok = view.guard(k)(env)
    spans = view.spans[k]
    if not spans:
        return "no input arcs (source transitions are never enabled)"
    vec = view.encode(m)
    for (place, called), (lo, hi, counts) in zip(net.inputs[t], spans):
        held = vec[lo:hi]
        if not any(held):
            return f"input place {place!r} is empty"
        if mode == "subset":
            if any(h < n for h, n in zip(held, counts)):
                return f"token calling unsatisfied at {place!r}: arc calls {called}, place holds {m[place]}"
        elif held != counts:
            return f"exact-mode mismatch at {place!r}: arc calls {called}, place holds {m[place]}"
    if not guard_ok:
        return "guard is false"
    return None


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
    """All enabled transitions, in declaration order.

    Every guard is evaluated, in declaration order, before any token test.
    """
    if net.transitions:
        _check_mode(mode)
    view = net.compiled.covering(net, m)
    live = [k for k in range(len(net.transitions)) if view.guard(k)(env)]
    packed, size = view.pack(view.encode(m))
    return [t for t, _ in view.enabled_moves(live, mode, size)(packed)]


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
    if seq:
        _check_mode(mode)
    view = net.compiled.covering(net, m0)
    m, size = view.pack(view.encode(m0), len(seq))
    tests = view.token_tests(mode, size)
    packed = []
    for t, env in zip(seq, envs):
        k = net.transition_index.get(t)
        move = k is not None and view.guard(k)(env) and tests[k](m)
        if not move:
            break
        m += move[0][1]
        packed.append(m)
    events = tuple(FiringEvent(k, t, dict(env), after) for k, (t, env, after)
                   in enumerate(zip(seq, envs, view.decode(packed, size, m0)), start=1))
    trace = Trace(net.name, m0, events)
    if len(events) < len(seq):
        t, env = seq[len(events)], envs[len(events)]
        failure = enabling_failure(net, trace.final, t, env, mode)
        raise NotEnabledError(t, failure, step=len(events) + 1, trace=trace)
    return trace


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
    if steps > 0 and net.transitions:
        _check_mode(mode)
    view = net.compiled.covering(net, m0)
    # a sweep fires each transition at most once
    m, size = view.pack(view.encode(m0), max(steps, 0) * len(net.transitions))
    tests = view.token_tests(mode, size)
    fired, packed = [], []
    for _ in range(steps):
        fired_any = False
        for k, test in enumerate(tests):
            move = view.guard(k)(env) and test(m)
            if move:
                t, delta = move[0]
                m += delta
                fired.append(t)
                packed.append(m)
                fired_any = True
                if policy == "single":
                    break
        if not fired_any:
            break
    events = tuple(FiringEvent(k, t, dict(env), after) for k, (t, after)
                   in enumerate(zip(fired, view.decode(packed, size, m0)), start=1))
    return Trace(net.name, m0, events)
