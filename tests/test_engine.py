import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    AndExpr,
    Arc,
    Comparison,
    FiringEvent,
    Marking,
    Multiset,
    Net,
    NotEnabledError,
    NumLit,
    Place,
    Trace,
    Transition,
    UnboundVariableError,
    VarRef,
    enabled,
    enabled_set,
    enabling_failure,
    fire,
    fire_sequence,
    simulate,
    step,
)
from orbitpn.model import MODES
import reference
from strategies import live_nets, nets, replace_net, rising_starts

SWAPPED = Marking({"P1": ["y"], "P2": ["x"]})


class TestEnabled:
    def test_swap_ready(self, swap_net):
        assert enabled(swap_net, swap_net.initial_marking, "t1", {}) is True

    def test_swap_calls_specific_tokens(self, swap_net):
        # post-swap, t1 still calls x from P1 but P1 now holds y
        assert enabled(swap_net, SWAPPED, "t1", {}) is False
        assert "token calling" in enabling_failure(swap_net, SWAPPED, "t1", {})

    def test_no_input_arcs_never_enabled(self):
        net = Net(
            name="source",
            colors=("x",),
            places=(Place("P1", 1),),
            transitions=(Transition("t1"),),
            arcs=(Arc("t1", "P1", Multiset(["x"])),),
        )
        assert enabled(net, Marking(), "t1", {}) is False
        assert "no input arcs" in enabling_failure(net, Marking(), "t1", {})

    def test_guard_blocks_despite_tokens(self, satsat_net):
        env = {"collision_prob": 0.0, "clock": 5.0, "T1": 5.0, "eps": 1.0}
        assert enabled(satsat_net, satsat_net.initial_marking, "t1", env) is False
        assert enabling_failure(satsat_net, satsat_net.initial_marking, "t1", env) == "guard is false"

    def test_empty_place_reported(self, debris_net):
        m = Marking({"P1": ["S"]})
        assert "empty" in enabling_failure(debris_net, m, "t1", {"collision_prob": 1.0})

    def test_unknown_transition(self, swap_net):
        with pytest.raises(KeyError):
            enabled(swap_net, swap_net.initial_marking, "t9", {})

    def test_unbound_guard_variable(self, satsat_net):
        with pytest.raises(UnboundVariableError):
            enabled(satsat_net, satsat_net.initial_marking, "t1", {"collision_prob": 1.0})

    def test_exact_mode_blocks_bystanders(self, swap_net):
        crowded = Marking({"P1": ["x", "y"], "P2": ["y"]})
        assert enabled(swap_net, crowded, "t1", {}, mode="subset") is True
        assert enabled(swap_net, crowded, "t1", {}, mode="exact") is False
        # one net fired in both modes: each mode keeps its own token test
        assert fire(swap_net, crowded, "t1", {}, "subset") == Marking({"P1": ["y", "y"], "P2": ["x"]})
        with pytest.raises(NotEnabledError, match="exact-mode mismatch at 'P1'"):
            fire(swap_net, crowded, "t1", {}, "exact")

    def test_unknown_mode(self, swap_net):
        with pytest.raises(ValueError):
            enabled(swap_net, swap_net.initial_marking, "t1", {}, mode="loose")


class TestFire:
    def test_swap(self, swap_net):
        m1 = fire(swap_net, swap_net.initial_marking, "t1", {})
        assert m1 == SWAPPED

    def test_sink_consumes(self, debris_net):
        m = Marking({"P3": ["S"], "P4": ["D"]})
        after = fire(debris_net, m, "t3", {"collision_prob": 1.0})
        assert after == Marking({"P3": ["S"]})
        assert reference.tally(after) == reference.tally(m) - 1

    def test_classifier_two_firings(self, classes_net):
        m = fire(classes_net, classes_net.initial_marking, "t1", {})
        m = fire(classes_net, m, "t2", {})
        assert m == Marking({"P5": ["A", "C"], "P6": ["B", "D"]})

    def test_input_marking_untouched(self, swap_net):
        m0 = swap_net.initial_marking
        fire(swap_net, m0, "t1", {})
        assert m0 == Marking({"P1": ["x"], "P2": ["y"]})

    def test_not_enabled_raises_with_reason(self, swap_net):
        with pytest.raises(NotEnabledError) as exc:
            fire(swap_net, SWAPPED, "t1", {})
        assert exc.value.transition == "t1"
        assert "P1" in exc.value.reason

    def test_deterministic(self, debris_net, debris_env):
        m0 = debris_net.initial_marking
        assert fire(debris_net, m0, "t1", debris_env) == fire(debris_net, m0, "t1", debris_env)

    @given(net=nets(), data=st.data())
    def test_firing_conservation(self, net, data):
        m = net.initial_marking
        options = enabled_set(net, m, {})
        if not options:
            return
        t = data.draw(st.sampled_from(options))
        after = fire(net, m, t, {})
        inputs, outputs = reference.arcs_by_transition(net)
        removed = sum(reference.tally(w) for _, w in inputs[t])
        added = sum(reference.tally(w) for _, w in outputs[t])
        assert reference.tally(after) - reference.tally(m) == added - removed

    @given(net=nets())
    def test_enabled_iff_fireable(self, net):
        m = net.initial_marking
        for t in net.transition_ids:
            if enabled(net, m, t, {}):
                fire(net, m, t, {})
            else:
                with pytest.raises(NotEnabledError):
                    fire(net, m, t, {})


class TestEnabledSet:
    def test_classifier_initially_both(self, classes_net):
        assert enabled_set(classes_net, classes_net.initial_marking, {}) == ["t1", "t2"]

    def test_debris_after_first_move(self, debris_net, debris_env):
        m = fire(debris_net, debris_net.initial_marking, "t1", debris_env)
        assert enabled_set(debris_net, m, debris_env) == ["t2", "t3"]

    def test_empty_marking(self, debris_net, debris_env):
        assert enabled_set(debris_net, Marking(), debris_env) == []


class TestFireSequence:
    def test_maneuver_returns_home(self, satsat_net, satsat_envs):
        trace = fire_sequence(satsat_net, satsat_net.initial_marking, ["t1", "t2"], satsat_envs)
        assert trace.final == satsat_net.initial_marking
        assert trace.events[0].marking_after == SWAPPED
        assert [e.step for e in trace.events] == [1, 2]

    def test_empty_sequence(self, swap_net):
        trace = fire_sequence(swap_net, swap_net.initial_marking, [], [])
        assert trace.events == ()
        assert trace.final == swap_net.initial_marking

    def test_debris_full_scenario(self, debris_net, debris_env):
        trace = fire_sequence(debris_net, debris_net.initial_marking,
                              ["t1", "t2", "t3"], [debris_env] * 3)
        assert trace.final == Marking({"P1": ["S"]})

    def test_envs_length_checked(self, swap_net):
        with pytest.raises(ValueError):
            fire_sequence(swap_net, swap_net.initial_marking, ["t1"], [])

    def test_atomic_failure_carries_prefix(self, swap_net):
        with pytest.raises(NotEnabledError) as exc:
            fire_sequence(swap_net, swap_net.initial_marking, ["t1", "t1"], [{}, {}])
        err = exc.value
        assert err.step == 2
        assert err.trace is not None
        assert len(err.trace.events) == 1
        assert err.trace.final == SWAPPED

    def test_replay_matches_recorded_markings(self, debris_net, debris_env):
        trace = fire_sequence(debris_net, debris_net.initial_marking,
                              ["t1", "t2", "t3"], [debris_env] * 3)
        m = trace.initial
        for ev in trace.events:
            m = fire(debris_net, m, ev.transition, ev.env_snapshot)
            assert m == ev.marking_after


class TestStep:
    def test_classifier_sweep(self, classes_net):
        m, fired = step(classes_net, classes_net.initial_marking, {})
        assert fired == ["t1", "t2"]
        assert m == Marking({"P5": ["A", "C"], "P6": ["B", "D"]})

    def test_debris_sweep_after_first_move(self, debris_net, debris_env):
        m1 = fire(debris_net, debris_net.initial_marking, "t1", debris_env)
        m2, fired = step(debris_net, m1, debris_env)
        assert fired == ["t2", "t3"]
        assert m2 == Marking({"P1": ["S"]})

    def test_quiescence_is_normal(self, debris_net):
        m, fired = step(debris_net, Marking(), {"collision_prob": 1.0})
        assert fired == []
        assert m == Marking()

    def test_single_policy_fires_first_only(self, classes_net):
        m, fired = step(classes_net, classes_net.initial_marking, {}, policy="single")
        assert fired == ["t1"]
        assert m == Marking({"P2": ["B"], "P4": ["D"], "P5": ["A", "C"]})

    def test_unknown_policy(self, classes_net):
        with pytest.raises(ValueError):
            step(classes_net, classes_net.initial_marking, {}, policy="both")


class TestSimulate:
    def test_swap_four_single_steps(self, swap_net):
        trace = simulate(swap_net, swap_net.initial_marking, {}, 4, policy="single")
        assert [e.transition for e in trace.events] == ["t1", "t2", "t1", "t2"]
        assert trace.final == swap_net.initial_marking

    def test_swap_sweep_pairs_per_step(self, swap_net):
        trace = simulate(swap_net, swap_net.initial_marking, {}, 4, policy="sweep")
        assert len(trace.events) == 8
        assert trace.final == swap_net.initial_marking

    def test_halts_on_quiescence(self, debris_net, debris_env):
        trace = simulate(debris_net, debris_net.initial_marking, debris_env, 10)
        assert trace.final == Marking({"P1": ["S"]})
        assert len(trace.events) == 3
        assert enabled_set(debris_net, trace.final, debris_env) == []

    def test_zero_steps(self, swap_net):
        trace = simulate(swap_net, swap_net.initial_marking, {}, 0)
        assert trace.events == ()


def outcome(call, *args):
    """What a call returns, or the type, text and fields of what it raises."""
    try:
        return "returned", call(*args)
    except NotEnabledError as err:
        return "refused", str(err), err.transition, err.reason, err.step, err.trace
    except Exception as err:
        return "raised", type(err), str(err)


def assert_one_step_agrees(net, m, t, env, mode):
    """Public enabled_set, enabling_failure and fire at `m` give the
    reference's outcome."""
    for call, ref, args in ((enabled_set, reference.enabled_set, (net, m, env, mode)),
                            (enabling_failure, reference.enabling_failure, (net, m, t, env, mode)),
                            (fire, reference.fire, (net, m, t, env, mode))):
        assert outcome(call, *args) == outcome(ref, *args)


def chained_fire(net, m0, seq, envs, mode):
    """fire_sequence written as one reference `fire` per step."""
    events, m = [], m0
    for k, (t, env) in enumerate(zip(seq, envs), start=1):
        try:
            m = reference.fire(net, m, t, env, mode)
        except NotEnabledError as err:
            raise NotEnabledError(t, err.reason, step=k,
                                  trace=Trace(net.name, m0, tuple(events))) from None
        events.append(FiringEvent(k, t, dict(env), m))
    return Trace(net.name, m0, tuple(events))


def chained_simulate(net, m0, env, steps, policy, mode):
    """simulate written as sweeps of reference `enabled` and `fire`."""
    events, m = [], m0
    for _ in range(steps):
        fired_any = False
        for t in net.transition_ids:
            if reference.enabled(net, m, t, env, mode):
                m = reference.fire(net, m, t, env, mode)
                events.append(FiringEvent(len(events) + 1, t, dict(env), m))
                fired_any = True
                if policy == "single":
                    break
        if not fired_any:
            break
    return Trace(net.name, m0, tuple(events))


@st.composite
def guarded_nets(draw):
    """`live_nets()` in which some guard reads a variable."""
    net, env = draw(live_nets())
    if not env:
        first = net.transitions[0]
        guard = AndExpr(first.guard, Comparison("<=", VarRef("v"), NumLit(draw(st.floats(0, 10)))))
        net = replace_net(net, transitions=(Transition(first.id, guard),) + net.transitions[1:])
        env = {"v": 0.0}
    return net, env


def some_env(data, env, unbind=False):
    """`env` with fresh values, and with some variables left out if `unbind`
    (several, so that the guard that raises first shows)."""
    fresh = {name: data.draw(st.floats(0, 10, allow_nan=False)) for name in env}
    if unbind:
        for name in data.draw(st.lists(st.sampled_from(sorted(fresh)), min_size=1, unique=True)):
            del fresh[name]
    return fresh


class TestLive:
    """`CompiledNet.live`, the one live-set rule of every analysis that holds
    the environment fixed, against the reference guard walk."""

    @given(case=guarded_nets(), data=st.data())
    def test_live_is_every_guard_in_declaration_order(self, case, data):
        # with several variables unbound, the first guard in declaration
        # order that reads one names it
        net, env = case
        env = some_env(data, env, unbind=data.draw(st.booleans()))
        walk = [t.guard for t in net.transitions]
        assert outcome(net.compiled.live, env) == outcome(
            lambda: [k for k, g in enumerate(walk) if reference.eval_guard(g, env)])


class TestMergedPathsAgree:
    """The engine runs on the compiled slots; check fire_sequence, simulate,
    enabled_set, enabling_failure and fire against the reference rules of
    `tests/reference.py` on guarded nets, refusals and errors (an unknown
    mode among them) included."""

    @given(case=guarded_nets(), policy=st.sampled_from(("sweep", "single")),
           mode=st.sampled_from(("subset", "exact", "loose")), steps=st.integers(0, 4),
           data=st.data())
    def test_simulate_is_chained_step_and_fire(self, case, policy, mode, steps, data):
        net, env = case
        env = some_env(data, env, unbind=data.draw(st.sampled_from((False, False, False, True))))
        got = outcome(simulate, net, net.initial_marking, env, steps, policy, mode)
        assert got == outcome(chained_simulate, net, net.initial_marking, env, steps, policy, mode)
        if got[0] != "returned":
            return
        trace, chained, m = got[1], [], net.initial_marking
        for _ in range(steps):
            m, fired = step(net, m, env, policy, mode)
            if not fired:
                break
            chained += fired
        assert [ev.transition for ev in trace.events] == chained
        assert [ev.step for ev in trace.events] == list(range(1, len(chained) + 1))
        assert trace.final == m

    @given(case=guarded_nets(), mode=st.sampled_from(("subset", "exact", "loose")),
           data=st.data())
    def test_fire_sequence_is_chained_fire(self, case, mode, data):
        # every step fires an enabled transition, except that one step names
        # any transition or an unknown one, and one step leaves variables
        # unbound (either may fall beyond the end), so sequences run long and
        # are also refused; sampled_from leans to its first entries, so long
        # sequences without an unbound step come up often.  Each step also
        # checks the public one-step functions at the walk's marking.  Some
        # nets start within `length` firings of a field-width boundary.
        net, env = case
        length = data.draw(st.sampled_from(range(8, 0, -1)))
        net = data.draw(rising_starts(net, length))
        wild = data.draw(st.integers(0, length))
        unbound = data.draw(st.sampled_from(range(length, -1, -1)))
        walk = "subset" if mode == "loose" else mode  # what an unchecked mode would do
        seq, envs, m = [], [], net.initial_marking
        for k in range(length):
            envs.append(some_env(data, env, unbind=k == unbound))
            try:
                options = reference.enabled_set(net, m, envs[-1], walk)
            except UnboundVariableError:
                options = []
            if options and k != wild:
                seq.append(data.draw(st.sampled_from(options)))
            else:
                seq.append(data.draw(st.sampled_from(net.transition_ids + ("t_unknown",))))
            assert_one_step_agrees(net, m, seq[-1], envs[-1], mode)
            if options and k != wild:
                m = reference.fire(net, m, seq[-1], envs[-1], walk)
        got = outcome(fire_sequence, net, net.initial_marking, seq, envs, mode)
        assert got == outcome(chained_fire, net, net.initial_marking, seq, envs, mode)

    @pytest.mark.parametrize("seq, step, reason", [
        (["t1", "t2", "t2"], 3, "token calling unsatisfied at 'P1'"),  # P1 holds x, not y
        (["t1"], 1, "guard is false"),  # the tokens are there, no collision is predicted
    ], ids=["tokens", "guard"])
    def test_refusal_matches_chained_fire(self, satsat_net, satsat_envs, seq, step, reason):
        envs = list(satsat_envs) + [satsat_envs[1]]
        if reason == "guard is false":
            envs = [dict(env, collision_prob=0.0) for env in envs]
        envs = envs[:len(seq)]
        m0 = satsat_net.initial_marking
        got = outcome(fire_sequence, satsat_net, m0, seq, envs, "subset")
        assert got[0] == "refused" and got[4] == step and got[3].startswith(reason)
        assert got == outcome(chained_fire, satsat_net, m0, seq, envs, "subset")
        assert_one_step_agrees(satsat_net, got[5].final, seq[-1], envs[-1], "subset")
        assert outcome(simulate, satsat_net, m0, envs[0], 2) == outcome(
            chained_simulate, satsat_net, m0, envs[0], 2, "sweep", "subset")

    @pytest.mark.parametrize("mode", ("subset", "exact"))
    def test_empty_call_and_undeclared_bystander(self, mode):
        # an arc calling no tokens still needs a token at its place; a token
        # of an undeclared color is outside the net and refused, not a bystander
        net = Net("empty_call", ("x", "y"), (Place("P1", 1), Place("P2", -1)),
                  (Transition("t1"), Transition("t2")),
                  (Arc("P1", "t1", Multiset()), Arc("t1", "P2", Multiset(["y"])),
                   Arc("P2", "t2", Multiset(["y"])), Arc("t2", "P1", Multiset(["x"]))))
        for held in ([], ["x"], ["x", "y"]):
            m = Marking({"P1": held, "P2": ["y"]})
            for t in net.transition_ids:
                assert_one_step_agrees(net, m, t, {}, mode)
            m = Marking({"P1": held, "P2": ["y", "q"]})
            refused = ("raised", KeyError, repr("marking references unknown color 'q' at place 'P2'"))
            assert outcome(enabled_set, net, m, {}, mode) == refused
            for t in net.transition_ids:
                assert outcome(enabling_failure, net, m, t, {}, mode) == refused
                assert outcome(fire, net, m, t, {}, mode) == refused

    @pytest.mark.parametrize("mode", MODES)
    def test_net_without_colors(self, mode):
        # no place can hold a token, so the first input place by id is named
        # empty: each place keeps a slot range of its own
        net = Net("colorless", (), (Place("P1", 1), Place("P2", -1)), (Transition("t1"),),
                  (Arc("P2", "t1", Multiset()), Arc("P1", "t1", Multiset()), Arc("t1", "P2", Multiset())))
        assert enabling_failure(net, Marking(), "t1", {}, mode) == "input place 'P1' is empty"
        assert_one_step_agrees(net, Marking(), "t1", {}, mode)

    def test_unknown_mode_matches_chained_fire(self, swap_net):
        # the mode is checked when the first firing is tried, not before,
        # whether or not it can be hashed; and no token test is kept for it
        m0 = swap_net.initial_marking
        for mode in ("loose", ["subset"], {"subset": 1}):
            for seq in ([], ["t1"]):
                envs = [{}] * len(seq)
                assert outcome(fire_sequence, swap_net, m0, seq, envs, mode) == outcome(
                    chained_fire, swap_net, m0, seq, envs, mode)
            for steps in (0, 1):
                assert outcome(simulate, swap_net, m0, {}, steps, "sweep", mode) == outcome(
                    chained_simulate, swap_net, m0, {}, steps, "sweep", mode)
            assert_one_step_agrees(swap_net, m0, "t1", {}, mode)
        assert all(key in MODES for key, _ in swap_net.compiled.tests)
