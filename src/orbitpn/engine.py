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
`enabling_failure` reads the same view to say what failed.
"""

from __future__ import annotations

from operator import ge, index
from typing import Sequence

from .core import check_mode
from .model import Environment, Marking, Net
from .multiset import Multiset, Record


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
    masked by a structural refusal.  The first input arc (`CompiledNet.spans`,
    by place id) that fails is named by its place and calls, read off the view.
    """
    check_mode(mode)
    k = net.transition_index[net.transition(t).id]  # KeyError names an unknown t
    view = net.compiled
    guard_ok = view.guards[k](env)
    vec = view.encode(m)
    spans = view.spans[k]
    if not spans:
        return "no input arcs (source transitions are never enabled)"
    for lo, counts in spans:
        held = vec[lo:lo + len(counts)]
        if any(held) and (held == counts if mode == "exact" else all(map(ge, held, counts))):
            continue
        place = view.slot_names[lo][0]
        if not any(held):
            return f"input place {place!r} is empty"
        called = Multiset({color: n for (_, color), n in zip(view.slot_names[lo:], counts)})
        what = "token calling unsatisfied" if mode == "subset" else "exact-mode mismatch"
        return f"{what} at {place!r}: arc calls {called}, place holds {m[place]}"
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
        check_mode(mode)
    view = net.compiled
    live = view.live(env)
    packed, size = view.pack(view.encode(m))
    tests = view.token_tests(mode, size)
    return [view.transition_ids[k] for k in live if tests[k](packed)]


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
    steps = index(steps)
    if steps > 0 and net.transitions:
        check_mode(mode)
    view = net.compiled
    # a sweep fires each transition at most once
    m, size = view.pack(view.encode(m0), max(steps, 0) * len(net.transitions))
    tests = view.token_tests(mode, size)
    fired, packed = [], [m]
    for _ in range(steps):
        fired_any = False
        for guard, test in zip(view.guards, tests):
            move = guard(env) and test(m)
            if move:
                t, delta = move
                m += delta
                fired.append(t)
                packed.append(m)
                fired_any = True
                if policy == "single":
                    break
        if not fired_any:
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
