import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    Arc,
    Marking,
    Multiset,
    Net,
    NotEnabledError,
    Place,
    Trace,
    Transition,
    UnboundVariableError,
    enabled,
    enabled_set,
    enabling_failure,
    fire,
    fire_sequence,
    simulate,
    step,
)
from strategies import nets

SWAPPED = Marking({"P1": ["y"], "P2": ["x"]})


def executable_walk(net, data, max_len=6):
    """Draw a random executable firing sequence by walking the enabled sets."""
    seq = []
    m = net.initial_marking
    for _ in range(data.draw(st.integers(0, max_len))):
        options = enabled_set(net, m, {})
        if not options:
            break
        t = data.draw(st.sampled_from(options))
        m = fire(net, m, t, {})
        seq.append(t)
    return seq, m


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
        assert after.total_tokens() == m.total_tokens() - 1

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
        removed = sum(w.total() for _, w in net.inputs[t])
        added = sum(w.total() for _, w in net.outputs[t])
        assert after.total_tokens() - m.total_tokens() == added - removed

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


class TestMergedPathsAgree:
    """simulate, step, fire_sequence and fire share one move; check them against each other."""

    @given(net=nets(), policy=st.sampled_from(("sweep", "single")),
           mode=st.sampled_from(("subset", "exact")), steps=st.integers(0, 4))
    def test_simulate_is_chained_step_and_fire(self, net, policy, mode, steps):
        trace = simulate(net, net.initial_marking, {}, steps, policy, mode)
        chained, m = [], net.initial_marking
        for _ in range(steps):
            m, fired = step(net, m, {}, policy, mode)
            if not fired:
                break
            chained += fired
        assert [ev.transition for ev in trace.events] == chained
        assert [ev.step for ev in trace.events] == list(range(1, len(chained) + 1))
        m = net.initial_marking
        for ev in trace.events:
            m = fire(net, m, ev.transition, {}, mode)
            assert ev.marking_after == m
        assert trace.final == m

    @given(net=nets(), data=st.data())
    def test_fire_sequence_is_chained_fire(self, net, data):
        seq, _ = executable_walk(net, data)
        trace = fire_sequence(net, net.initial_marking, seq, [{}] * len(seq))
        m = net.initial_marking
        for t, ev in zip(seq, trace.events):
            m = fire(net, m, t, {})
            assert ev.marking_after == m
        assert len(trace.events) == len(seq)
