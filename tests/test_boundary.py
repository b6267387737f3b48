"""What a caller hands the analyses: markings within their net, integer counts.

A marking puts the net's own colors on the net's own places, and every public
entry point refuses any other with one KeyError from `CompiledNet.encode`,
before it returns anything; `trace_io.replay` refuses such an `initial` with a
ReplayError.  Each net has one compiled view, whatever is asked of it.
Multiplicities, firing counts, bounds and step counts are integers.
"""

import pytest

from orbitpn import (
    Arc,
    Marking,
    Multiset,
    Net,
    Place,
    Transition,
    UnboundVariableError,
    apply_state_equation,
    check_reachability_condition,
    enabled,
    enabled_set,
    enabling_failure,
    fire,
    fire_sequence,
    firing_counts,
    incidence_matrix,
    models,
    reachability_graph,
    simulate,
    step,
    trace_io,
    verify_sequence_consistency,
)
from orbitpn import core

OUTSIDE = [
    (Marking({"P1": ["x"], "P2": ["y"], "P9": ["x"], "P8": ["y"]}),
     "marking references unknown place 'P8'"),
    (Marking({"P1": ["x", "q"], "P2": ["y"]}),
     "marking references unknown color 'q' at place 'P1'"),
]

# each public entry point that reads a marking, on swap_infinite; the early
# returns of today's code among them (an empty sequence, 0 steps, depth 0)
CALLS = {
    "enabling_failure": lambda net, m: enabling_failure(net, m, "t1", {}),
    "enabled": lambda net, m: enabled(net, m, "t2", {}, "exact"),
    "enabled_set": lambda net, m: enabled_set(net, m, {}),
    "fire": lambda net, m: fire(net, m, "t1", {}),
    "fire_sequence": lambda net, m: fire_sequence(net, m, ["t1", "t2"], [{}, {}]),
    "fire_sequence-empty": lambda net, m: fire_sequence(net, m, [], []),
    "step": lambda net, m: step(net, m, {}, "single"),
    "simulate": lambda net, m: simulate(net, m, {}, 3),
    "simulate-0-steps": lambda net, m: simulate(net, m, {}, 0),
    "reachability_graph": lambda net, m: reachability_graph(net, m, {}, 4, 100, "exact"),
    "reachability_graph-depth-0": lambda net, m: reachability_graph(net, m, {}, 0, 1),
    "apply_state_equation": lambda net, m: apply_state_equation(net, m, (0, 0)),
    "witness-from": lambda net, m: check_reachability_condition(net, m, net.initial_marking, 2),
    "witness-to": lambda net, m: check_reachability_condition(net, net.initial_marking, m, 2),
    "witness-bound-0": lambda net, m: check_reachability_condition(net, m, m, 0),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("m, message", OUTSIDE, ids=["place", "color"])
def test_marking_outside_the_net_refused(swap_net, call, m, message):
    with pytest.raises(KeyError) as exc:
        call(swap_net, m)
    assert exc.value.args == (message,)


@pytest.mark.parametrize("m, message", OUTSIDE, ids=["place", "color"])
def test_refused_before_a_source_transition_answers(m, message):
    # a transition without input arcs is never enabled, whatever the marking
    net = Net("source", ("x", "y"), (Place("P1", 1), Place("P2", -1)), (Transition("t1"),),
              (Arc("t1", "P1", Multiset(["x"])),))
    assert enabling_failure(net, Marking(), "t1", {}).startswith("no input arcs")
    with pytest.raises(KeyError) as exc:
        enabling_failure(net, m, "t1", {})
    assert exc.value.args == (message,)


@pytest.mark.parametrize("m, message", OUTSIDE, ids=["place", "color"])
def test_earlier_checks_keep_their_place(satsat_net, satsat_envs, m, message):
    # the mode, the argument ranges, an unknown transition and, where the
    # environment is fixed or in enabling_failure, a guard's unbound
    # variable come before the marking
    env = satsat_envs[0]
    for call, error in [
        (lambda: enabling_failure(satsat_net, m, "t1", env, "loose"), ValueError),
        (lambda: enabling_failure(satsat_net, m, "t9", env), KeyError),
        (lambda: enabling_failure(satsat_net, m, "t1", {}), UnboundVariableError),
        (lambda: enabled_set(satsat_net, m, env, "loose"), ValueError),
        (lambda: enabled_set(satsat_net, m, {}), UnboundVariableError),
        (lambda: fire_sequence(satsat_net, m, ["t1"], [env], "loose"), ValueError),
        (lambda: fire_sequence(satsat_net, m, ["t1"], []), ValueError),
        (lambda: simulate(satsat_net, m, env, 1, "both"), ValueError),
        (lambda: simulate(satsat_net, m, env, 1, "sweep", "loose"), ValueError),
        (lambda: simulate(satsat_net, m, env, -1), ValueError),
        (lambda: simulate(satsat_net, m, {}, 1), UnboundVariableError),
        (lambda: reachability_graph(satsat_net, m, env, -1, 10), ValueError),
        (lambda: reachability_graph(satsat_net, m, env, 3, 10, "loose"), ValueError),
        (lambda: apply_state_equation(satsat_net, m, (1,)), ValueError),
        (lambda: apply_state_equation(satsat_net, m, (1, -1)), ValueError),
        (lambda: check_reachability_condition(satsat_net, m, m, -1), ValueError),
    ]:
        with pytest.raises(error) as exc:
            call()
        assert exc.value.args != (message,)


def test_replay_refuses_initial_outside_the_net(swap_net):
    # before the events are read, so their shape fault is not the one reported
    trace = fire_sequence(swap_net, swap_net.initial_marking, ["t1"], [{}])
    doc = trace_io.trace_document(swap_net, trace)
    doc["initial"].update(P9="x", P8="y")
    doc["events"] = "not an array"
    with pytest.raises(trace_io.ReplayError) as exc:
        trace_io.replay(swap_net, doc)
    assert str(exc.value) == "document: 'initial': marking references unknown place 'P8'"


def test_one_compiled_view_per_net(monkeypatch):
    # every entry point, in both modes, on markings inside and outside the net
    built = []
    compile_net = core.CompiledNet.__init__

    def counting(self, net):
        built.append(net.name)
        compile_net(self, net)

    monkeypatch.setattr(core.CompiledNet, "__init__", counting)
    net, env = models.load("swap_infinite"), {}
    m0 = net.initial_marking
    trace = fire_sequence(net, m0, ["t1", "t2"], [env, env])
    enabling_failure(net, m0, "t1", env)
    enabled(net, m0, "t2", env, "exact")
    enabled_set(net, m0, env)
    fire(net, m0, "t1", env)
    step(net, m0, env)
    simulate(net, m0, env, 3, "single", "exact")
    reachability_graph(net, m0, env, 4, 100)
    apply_state_equation(net, m0, (1, 1))
    check_reachability_condition(net, m0, trace.events[0].marking_after, 3)
    incidence_matrix(net)
    firing_counts(net, trace)
    verify_sequence_consistency(net, trace)
    assert trace_io.replay(net, trace_io.trace_document(net, trace)) == m0
    for m, _ in OUTSIDE:
        for call in CALLS.values():
            with pytest.raises(KeyError):
                call(net, m)
    assert built == ["swap_infinite"]


class TestIntegers:
    """A float count or bound is a TypeError where it enters, not an
    AttributeError from the packed kernel."""

    def test_firing_counts(self, swap_net):
        with pytest.raises(TypeError):
            apply_state_equation(swap_net, swap_net.initial_marking, (1.0, 0))

    def test_max_depth(self, swap_net):
        with pytest.raises(TypeError):
            reachability_graph(swap_net, swap_net.initial_marking, {}, 2.0, 100)

    def test_max_states(self, swap_net):
        with pytest.raises(TypeError):
            reachability_graph(swap_net, swap_net.initial_marking, {}, 2, 100.0)

    def test_steps(self, swap_net):
        with pytest.raises(TypeError):
            simulate(swap_net, swap_net.initial_marking, {}, 2.0)

    def test_witness_bound(self, swap_net):
        with pytest.raises(TypeError):
            check_reachability_condition(swap_net, swap_net.initial_marking,
                                         swap_net.initial_marking, 2.0)

    def test_integers_of_other_types_still_count(self, swap_net):
        m0 = swap_net.initial_marking
        assert apply_state_equation(swap_net, m0, (True, False)) == fire(swap_net, m0, "t1", {})
        assert len(simulate(swap_net, m0, {}, True).events) == 2
