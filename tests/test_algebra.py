import gc
import itertools
import sys

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from orbitpn import (
    Arc,
    FiringEvent,
    InfeasibleMarkingError,
    Marking,
    Multiset,
    Net,
    Place,
    SignedMultiset,
    Trace,
    Transition,
    UnboundVariableError,
    apply_state_equation,
    check_reachability_condition,
    enabled_set,
    fire_sequence,
    firing_counts,
    format_incidence,
    incidence_matrix,
    models,
    parse_guard,
    reachability_graph,
    render_guard,
    simulate,
    trace_io,
    verify_sequence_consistency,
)
from orbitpn.expr import compile_guard
from orbitpn.model import MODES
from orbitpn.netfile import load_net
import reference
from strategies import live_nets, near_widths, nets, replace_net

sm = SignedMultiset


def brute_force_solutions(net, m0, md, bound):
    """Independent witness oracle: plain dict arithmetic over all count vectors."""
    called = {}
    deposited = {}
    inputs, outputs = reference.arcs_by_transition(net)
    for t in net.transition_ids:
        for p, w in inputs[t]:
            called[(p, t)] = dict(w.items())
        for p, w in outputs[t]:
            deposited[(p, t)] = dict(w.items())

    def delta_for(x):
        out = {}
        for j, t in enumerate(net.transition_ids):
            for p in net.place_ids:
                for color, n in deposited.get((p, t), {}).items():
                    out[(p, color)] = out.get((p, color), 0) + n * x[j]
                for color, n in called.get((p, t), {}).items():
                    out[(p, color)] = out.get((p, color), 0) - n * x[j]
        return {k: v for k, v in out.items() if v}

    target = {}
    for p in net.place_ids:
        for color in net.colors:
            d = md[p].count(color) - m0[p].count(color)
            if d:
                target[(p, color)] = d

    n = len(net.transitions)
    return [
        x
        for x in itertools.product(range(bound + 1), repeat=n)
        if sum(x) <= bound and delta_for(x) == target
    ]


def closure_oracle(net, m0, env):
    """Independent reachability oracle: recursive closure, no BFS bookkeeping."""
    seen = set()

    def explore(m):
        if m in seen:
            return
        seen.add(m)
        for t in reference.enabled_set(net, m, env):
            explore(reference.fire(net, m, t, env))

    explore(m0)
    return seen


def reference_graph(net, m0, env, max_depth, max_states, mode):
    """Independent BFS over the reference engine: enabled_set, then fire."""
    nodes, depths, index = [m0], [0], {m0: 0}
    edges, deadlocks, truncated = [], [], False
    for i, m in enumerate(nodes):
        options = reference.enabled_set(net, m, env, mode)
        if not options:
            deadlocks.append(i)
        elif depths[i] >= max_depth:
            truncated = True
        else:
            for t in options:
                successor = reference.fire(net, m, t, env, mode)
                j = index.get(successor)
                if j is None:
                    if len(nodes) >= max_states:
                        truncated = True
                        continue
                    j = len(nodes)
                    nodes.append(successor)
                    depths.append(depths[i] + 1)
                    index[successor] = j
                edges.append((i, t, j))
    return tuple(nodes), tuple(depths), tuple(edges), tuple(deadlocks), truncated


def reference_state_equation(net, m, u):
    """M + A*u in signed-multiset arithmetic over the arc-level incidence
    matrix; the first negative (place, color, coefficient), or the resulting
    marking."""
    entries = reference.incidence_entries(net)
    result = {}
    for i, pid in enumerate(net.place_ids):
        total = SignedMultiset(m[pid])
        for j, count in enumerate(u):
            total = total + SignedMultiset({c: count * n for c, n in entries[i][j].items()})
        for color, coeff in total.items():
            if coeff < 0:
                return (pid, color, coeff)
        result[pid] = Multiset(total)
    return Marking(result)


def assert_same_graph(net, m0, env, max_depth, max_states, mode):
    graph = reachability_graph(net, m0, env, max_depth, max_states, mode)
    nodes, depths, edges, deadlocks, truncated = reference_graph(
        net, m0, env, max_depth, max_states, mode)
    assert graph.nodes == nodes
    assert graph.depths == depths
    assert graph.edges == edges
    assert graph.deadlocks == deadlocks
    assert graph.truncated is truncated
    assert all(graph.index_of(node) == i for i, node in enumerate(nodes))


class TestIncidenceMatrix:
    def test_classifier_matrix(self, classes_net):
        matrix = incidence_matrix(classes_net)
        assert matrix.shape == (6, 2)
        expected = (
            (sm({"A": -1}), sm()),
            (sm(), sm({"B": -1})),
            (sm({"C": -1}), sm()),
            (sm(), sm({"D": -1})),
            (sm({"A": 1, "C": 1}), sm()),
            (sm(), sm({"B": 1, "D": 1})),
        )
        assert matrix.entries == expected

    def test_satellite_swap_matrix(self, satsat_net):
        matrix = incidence_matrix(satsat_net)
        swap_in = sm({"y": 1, "x": -1})
        swap_out = sm({"x": 1, "y": -1})
        assert matrix.entries == ((swap_in, swap_out), (swap_out, swap_in))

    def test_debris_matrix(self, debris_net):
        matrix = incidence_matrix(debris_net)
        assert matrix.entries == (
            (sm({"S": -1}), sm({"S": 1}), sm()),
            (sm({"D": -1}), sm(), sm()),
            (sm({"S": 1}), sm({"S": -1}), sm()),
            (sm({"D": 1}), sm(), sm({"D": -1})),
        )

    def test_no_arcs_all_zero(self):
        from orbitpn import Net, Place, Transition

        net = Net("bare", ("x",), (Place("P1", 1), Place("P2", -1)),
                  (Transition("t1"),), ())
        matrix = incidence_matrix(net)
        assert all(e == sm() for row in matrix.entries for e in row)

    def test_grid_format(self, satsat_net):
        grid = format_incidence(incidence_matrix(satsat_net))
        lines = grid.splitlines()
        assert lines[0].split() == ["t1", "t2"]
        assert lines[1].split() == ["P1", "y-x", "x-y"]
        assert lines[2].split() == ["P2", "x-y", "y-x"]

    def test_entry_lookup(self, debris_net):
        matrix = incidence_matrix(debris_net)
        assert matrix.entry("P4", "t3") == sm({"D": -1})

    @given(net=nets())
    def test_agrees_with_arc_level_oracle(self, net):
        assert incidence_matrix(net).entries == reference.incidence_entries(net)


class TestApplyStateEquation:
    def test_classifier_batch(self, classes_net):
        result = apply_state_equation(classes_net, classes_net.initial_marking, (1, 1))
        assert result == Marking({"P5": ["A", "C"], "P6": ["B", "D"]})

    def test_zero_vector_identity(self, all_nets):
        for net in all_nets:
            zeros = (0,) * len(net.transitions)
            assert apply_state_equation(net, net.initial_marking, zeros) == net.initial_marking

    def test_debris_full_counts(self, debris_net):
        result = apply_state_equation(debris_net, debris_net.initial_marking, (1, 1, 1))
        assert result == Marking({"P1": ["S"]})

    def test_infeasible_counts_rejected(self, debris_net):
        # returning the satellite before it ever left P1 drives P3 negative
        with pytest.raises(InfeasibleMarkingError) as exc:
            apply_state_equation(debris_net, debris_net.initial_marking, (0, 1, 0))
        assert exc.value.place == "P3"
        assert exc.value.color == "S"

    def test_vector_length_checked(self, debris_net):
        with pytest.raises(ValueError):
            apply_state_equation(debris_net, debris_net.initial_marking, (1, 1))

    # (place, color, coefficient) of the first InfeasibleMarkingError for every
    # u in {0,1,2}^n from the initial marking, as the signed-multiset
    # implementation of apply_state_equation reported them
    FIRST_NEGATIVE = {
        "swap_infinite": {
            (0, 1): ("P1", "y", -1), (0, 2): ("P1", "y", -2), (1, 2): ("P1", "y", -1),
            (2, 0): ("P1", "x", -1),
        },
        "orbit_classes": {
            (0, 2): ("P2", "B", -1), (1, 2): ("P2", "B", -1), (2, 0): ("P1", "A", -1),
            (2, 1): ("P1", "A", -1), (2, 2): ("P1", "A", -1),
        },
        "satellite_swap": {
            (0, 1): ("P1", "y", -1), (0, 2): ("P1", "y", -2), (1, 2): ("P1", "y", -1),
            (2, 0): ("P1", "x", -1),
        },
        "debris_disposal": {
            (0, 0, 1): ("P4", "D", -1), (0, 0, 2): ("P4", "D", -2), (0, 1, 0): ("P3", "S", -1),
            (0, 1, 1): ("P3", "S", -1), (0, 1, 2): ("P3", "S", -1), (0, 2, 0): ("P3", "S", -2),
            (0, 2, 1): ("P3", "S", -2), (0, 2, 2): ("P3", "S", -2), (1, 0, 2): ("P4", "D", -1),
            (1, 1, 2): ("P4", "D", -1), (1, 2, 0): ("P3", "S", -1), (1, 2, 1): ("P3", "S", -1),
            (1, 2, 2): ("P3", "S", -1), (2, 0, 0): ("P1", "S", -1), (2, 0, 1): ("P1", "S", -1),
            (2, 0, 2): ("P1", "S", -1), (2, 1, 0): ("P2", "D", -1), (2, 1, 1): ("P2", "D", -1),
            (2, 1, 2): ("P2", "D", -1), (2, 2, 0): ("P2", "D", -1), (2, 2, 1): ("P2", "D", -1),
            (2, 2, 2): ("P2", "D", -1),
        },
    }

    @pytest.mark.parametrize("name", models.NAMES)
    def test_infeasible_fields_unchanged(self, name):
        net = models.load(name)
        found = {}
        for u in itertools.product(range(3), repeat=len(net.transitions)):
            try:
                apply_state_equation(net, net.initial_marking, u)
            except InfeasibleMarkingError as err:
                found[u] = (err.place, err.color, err.coefficient)
        assert found == self.FIRST_NEGATIVE[name]

    @given(net=nets(), data=st.data())
    def test_agrees_with_signed_arithmetic(self, net, data):
        u = tuple(data.draw(st.lists(st.integers(0, 3), min_size=len(net.transitions),
                                     max_size=len(net.transitions))))
        expected = reference_state_equation(net, net.initial_marking, u)
        try:
            result = apply_state_equation(net, net.initial_marking, u)
        except InfeasibleMarkingError as err:
            result = (err.place, err.color, err.coefficient)
        assert result == expected

    def test_undeclared_color_in_marking(self, swap_net):
        # refused whatever `u` is, before any arithmetic
        m = Marking({"P1": ["x", "q"], "P2": ["y"]})
        for u in ((0, 0), (1, 0), (2, 0)):
            with pytest.raises(KeyError, match="unknown color 'q' at place 'P1'"):
                apply_state_equation(swap_net, m, u)

    @given(net=nets(), data=st.data())
    def test_unit_vector_matches_fire(self, net, data):
        m = net.initial_marking
        options = reference.enabled_set(net, m, {})
        if not options:
            return
        t = data.draw(st.sampled_from(options))
        unit = tuple(1 if tid == t else 0 for tid in net.transition_ids)
        assert apply_state_equation(net, m, unit) == reference.fire(net, m, t, {})

    def test_unknown_place_rejected(self, classes_net):
        with pytest.raises(KeyError, match="unknown place 'nope'"):
            apply_state_equation(classes_net, Marking({"nope": ["A"]}), (0, 0))


class TestReachabilityCondition:
    def test_classifier_witness(self, classes_net):
        target = Marking({"P5": ["A", "C"], "P6": ["B", "D"]})
        assert check_reachability_condition(classes_net, classes_net.initial_marking,
                                            target, 4) == (1, 1)

    def test_swap_self_reachability_least_witness(self, satsat_net):
        m0 = satsat_net.initial_marking
        witness = check_reachability_condition(satsat_net, m0, m0, 4)
        solutions = brute_force_solutions(satsat_net, m0, m0, 4)
        assert witness == (0, 0)
        assert witness == min(solutions)
        # the full maneuver (one firing of each transition) also solves it
        assert (1, 1) in solutions

    def test_debris_witness(self, debris_net):
        target = Marking({"P1": ["S"]})
        witness = check_reachability_condition(debris_net, debris_net.initial_marking,
                                               target, 6)
        assert witness == (1, 1, 1)
        assert brute_force_solutions(debris_net, debris_net.initial_marking,
                                     target, 6) == [(1, 1, 1)]

    def test_count_no_firing_changes_has_no_witness(self, debris_net):
        # no transition changes (P1, D), so no bound gives a witness
        target = Marking({"P1": ["S", "D"]})
        for bound in range(7):
            assert check_reachability_condition(debris_net, debris_net.initial_marking,
                                                target, bound) is None
        assert brute_force_solutions(debris_net, debris_net.initial_marking, target, 6) == []

    def test_unreachable_two_tokens_in_one_orbit(self, swap_net):
        target = Marking({"P1": ["x", "y"]})
        assert check_reachability_condition(swap_net, swap_net.initial_marking,
                                            target, 6) is None
        assert brute_force_solutions(swap_net, swap_net.initial_marking, target, 6) == []

    def test_unknown_place_rejected(self, swap_net):
        inside, outside = swap_net.initial_marking, Marking({"P1": ["x"], "nope": ["y"]})
        for m0, md in ((inside, outside), (outside, inside)):
            with pytest.raises(KeyError, match="unknown place 'nope'"):
                check_reachability_condition(swap_net, m0, md, 2)

    def test_bound_zero_only_identity(self, swap_net):
        m0 = swap_net.initial_marking
        assert check_reachability_condition(swap_net, m0, m0, 0) == (0, 0)
        assert check_reachability_condition(
            swap_net, m0, Marking({"P1": ["y"], "P2": ["x"]}), 0) is None

    def test_bound_is_read_through_index(self, swap_net):
        # a bound that is an integer only by `__index__`, which
        # reachability_graph, simulate and apply_state_equation also take
        class Bound:
            def __index__(self):
                return 2

        target = Marking({"P1": ["y"], "P2": ["x"]})
        assert check_reachability_condition(swap_net, swap_net.initial_marking,
                                            target, Bound()) == (1, 0)

    @given(net=nets(max_places=3, max_transitions=3, max_colors=2), data=st.data())
    def test_agrees_with_brute_force(self, net, data):
        bound = data.draw(st.integers(0, 3))
        md = apply_state_equation_or_none(net, data, bound)
        if md is None:
            return
        witness = check_reachability_condition(net, net.initial_marking, md, bound)
        solutions = brute_force_solutions(net, net.initial_marking, md, bound)
        if solutions:
            assert witness == min(solutions)
        else:
            assert witness is None

    @given(net=nets(max_places=3, max_transitions=6, max_colors=2), data=st.data())
    def test_agrees_with_recursive_search(self, net, data):
        """The odometer against the recursive search `reference.least_solution`.
        Targets are Md - M0 = A*X for a drawn X within the bound or up to two
        firings beyond it, some of them moved by one token at a few slots, so
        that some have a witness and some none.  Some nets get a last
        transition with the arcs of another, so that a witness has a twin that
        is not the least."""
        if len(net.transitions) < 6 and data.draw(st.booleans()):
            t = data.draw(st.sampled_from(net.transition_ids))
            copies = tuple(Arc(a.source, "twin", a.weight) if a.target == t
                           else Arc("twin", a.target, a.weight)
                           for a in net.arcs if t in (a.source, a.target))
            net = replace_net(net, transitions=net.transitions + (Transition("twin"),),
                              arcs=net.arcs + copies)
        bound = data.draw(st.integers(0, 5))
        n = len(net.transitions)
        x, left = [0] * n, bound + data.draw(st.sampled_from((0, 0, 1, 2)))
        for j in reversed(range(n)):  # the twin first
            x[j] = data.draw(st.integers(0, left))
            left -= x[j]
        moved = data.draw(st.booleans())
        m0, md = {}, {}
        for p, row in zip(net.place_ids, reference.incidence_entries(net)):
            change = {c: sum(k * e.coefficient(c) for e, k in zip(row, x)) for c in net.colors}
            if moved:
                change = {c: d + data.draw(st.integers(-1, 1)) for c, d in change.items()}
            base = {c: data.draw(st.integers(0, 2)) + max(0, -d) for c, d in change.items()}
            m0[p] = Multiset(base)
            md[p] = Multiset({c: base[c] + d for c, d in change.items()})
        m0, md = Marking(m0), Marking(md)
        expected = reference.state_equation_witness(net, m0, md, bound)
        event("no witness" if expected is None else "witness")
        assert check_reachability_condition(net, m0, md, bound) == expected

    @given(net=nets(max_places=3, max_transitions=3, max_colors=2), big=near_widths, data=st.data())
    def test_agrees_with_recursive_search_at_the_field_edges(self, net, big, data):
        """The packed residual against `reference.state_equation_witness` at
        the edges of its fields.  Some arc weights grow by a count near a
        power of two (`near_widths`), and the target moves some slots from
        A*X by B * max|d| or by a power of two around it, give or take one,
        so that |Md - M0| lies near B * max|d| and past it."""
        net = replace_net(net, arcs=tuple(
            Arc(a.source, a.target, Multiset({c: n + big * data.draw(st.booleans())
                                              for c, n in a.weight.items()}))
            for a in net.arcs))
        bound = data.draw(st.integers(0, 3))
        entries = reference.incidence_entries(net)
        reach = bound * max((abs(n) for row in entries for e in row for _, n in e.items()), default=0)
        edges = [reach, 1 << reach.bit_length(), 2 << reach.bit_length()]
        n = len(net.transitions)
        x, left = [0] * n, bound + data.draw(st.sampled_from((0, 1)))
        for j in range(n):
            x[j] = data.draw(st.integers(0, left))
            left -= x[j]
        m0, md = {}, {}
        for p, row in zip(net.place_ids, entries):
            change = {}
            for c in net.colors:
                change[c] = sum(k * e.coefficient(c) for e, k in zip(row, x))
                if data.draw(st.booleans()):
                    change[c] += data.draw(st.sampled_from((1, -1))) * (
                        data.draw(st.sampled_from(edges)) + data.draw(st.integers(-1, 1)))
            base = {c: data.draw(st.integers(0, 1)) + max(0, -d) for c, d in change.items()}
            m0[p] = Multiset(base)
            md[p] = Multiset({c: base[c] + d for c, d in change.items()})
        m0, md = Marking(m0), Marking(md)
        expected = reference.state_equation_witness(net, m0, md, bound)
        event("no witness" if expected is None else "witness")
        assert check_reachability_condition(net, m0, md, bound) == expected

    @pytest.mark.parametrize("arcs, m0, md, bound, witness", [
        # Md - M0 is +-2**v at P0 and -+1 at P1, the field above it, where
        # v = (B * k).bit_length() + 1 is the width of a field sized for
        # B * k alone; t moves k tokens between them, so P0 reaches +-span
        # at X = (B,)
        ((("P0", "t", 1), ("t", "P1", 1)), {"P1": 1}, {"P0": 2}, 0, None),
        ((("P1", "t", 1), ("t", "P0", 1)), {"P0": 2}, {"P1": 1}, 0, None),
        ((("P0", "t", 5), ("t", "P1", 5)), {"P1": 1}, {"P0": 32}, 3, None),
        ((("P1", "t", 5), ("t", "P0", 5)), {"P0": 32}, {"P1": 1}, 3, None),
        ((("P0", "t", 129), ("t", "P1", 129)), {"P1": 1}, {"P0": 1024}, 2, None),
        # Md - M0 is +-k at P0; `a` moves P0 by k a firing away from zero, to
        # +-span at X = (B, 0), and `b` moves P1 by k the other way
        ((("P0", "a", 1), ("b", "P1", 1)), {}, {"P0": 1}, 8, None),
        ((("a", "P0", 1), ("P1", "b", 1)), {"P0": 1}, {}, 8, None),
        ((("P0", "a", 3), ("b", "P1", 3)), {}, {"P0": 3}, 16, None),
        # span 0: Md = M0 at bound 0, or a net whose firings change nothing
        ((("P0", "a", 1), ("a", "P1", 1)), {"P0": 1}, {"P0": 1}, 0, (0,)),
        ((("P0", "a", 1), ("a", "P0", 1)), {"P0": 1}, {"P0": 1}, 3, (0,)),
    ])
    def test_residual_at_plus_or_minus_span(self, arcs, m0, md, bound, witness):
        """Targets that take a residual to exactly +-span = +-(max|Md - M0| +
        B * max|d|), where a field sized for less would carry into the next
        one."""
        ids = sorted({end for arc in arcs for end in arc[:2] if not end.startswith("P")})
        net = Net("edge", ("x",), (Place("P0", 1), Place("P1", 1)), tuple(map(Transition, ids)),
                  tuple(Arc(a, b, Multiset({"x": k})) for a, b, k in arcs))
        m0, md = (Marking({p: {"x": n} for p, n in m.items()}) for m in (m0, md))
        assert reference.state_equation_witness(net, m0, md, bound) == witness
        assert check_reachability_condition(net, m0, md, bound) == witness

    def test_more_transitions_than_the_recursion_limit(self, fan_path):
        net = load_net(fan_path)
        n, m0 = len(net.transitions), net.initial_marking
        assert n > sys.getrecursionlimit()
        assert check_reachability_condition(net, m0, m0, 0) == (0,) * n
        moved = Marking({"P1": ["x"]})
        assert check_reachability_condition(net, m0, moved, 1) == (0,) * (n - 1) + (1,)


def test_calls_leave_no_cyclic_garbage(debris_net, debris_env):
    """What these calls make is freed by reference counting alone: no cycle is
    left for the collector, so a long run of them does not grow memory.  The
    successor function (`CompiledNet.moves`) holds no reference back to
    itself, nor does the naming rule of `Net.violations`."""
    m0, guard = debris_net.initial_marking, parse_guard("a > 1 and not (b < 2 or c - 1 == d)")
    calls = {
        **{f"reachability_graph {mode}": lambda mode=mode: reachability_graph(
            debris_net, m0, debris_env, 5, 100, mode) for mode in MODES},
        "enabled_set": lambda: enabled_set(debris_net, m0, debris_env),
        "witness found": lambda: check_reachability_condition(
            debris_net, m0, Marking({"P1": ["S"]}), 6),
        "no witness": lambda: check_reachability_condition(
            debris_net, m0, Marking({"P1": ["S", "S"]}), 6),
        # its code object is kept only while a function uses it, so every
        # call here compiles the source afresh
        "compile_guard": lambda: compile_guard(guard),
        "render_guard": lambda: render_guard(guard),
        # a fresh net each call: the parse and the well-formedness walk
        "load_net": lambda: load_net(models.model_path("debris_disposal")),
    }
    for name, call in calls.items():
        call()  # the net compiles on first use
        gc.disable()
        try:
            gc.collect()
            call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


def apply_state_equation_or_none(net, data, bound):
    """Draw a random target marking via the state equation, if one is feasible."""
    counts = data.draw(
        st.lists(st.integers(0, bound), min_size=len(net.transitions),
                 max_size=len(net.transitions)).filter(lambda c: sum(c) <= bound)
    )
    try:
        return apply_state_equation(net, net.initial_marking, tuple(counts))
    except InfeasibleMarkingError:
        return None


class TestSequenceConsistency:
    def test_maneuver_trace(self, satsat_net, satsat_envs):
        trace = fire_sequence(satsat_net, satsat_net.initial_marking, ["t1", "t2"], satsat_envs)
        assert verify_sequence_consistency(satsat_net, trace) is True

    def test_empty_trace(self, swap_net):
        trace = Trace(swap_net.name, swap_net.initial_marking)
        assert verify_sequence_consistency(swap_net, trace) is True

    def test_debris_trace(self, debris_net, debris_env):
        trace = fire_sequence(debris_net, debris_net.initial_marking,
                              ["t1", "t2", "t3"], [debris_env] * 3)
        assert verify_sequence_consistency(debris_net, trace) is True
        assert firing_counts(debris_net, trace) == (1, 1, 1)

    def test_unknown_transition_rejected(self, swap_net):
        bogus = Trace(
            swap_net.name,
            swap_net.initial_marking,
            (FiringEvent(1, "t9", {}, swap_net.initial_marking),),
        )
        with pytest.raises(KeyError):
            verify_sequence_consistency(swap_net, bogus)

    def test_counts_infeasible_from_the_initial_marking(self, swap_net):
        # t2 calls y from P1, which holds only x: the state equation goes negative
        bogus = Trace(swap_net.name, swap_net.initial_marking,
                      (FiringEvent(1, "t2", {}, Marking({"P1": ["x"], "P2": ["y"]})),))
        with pytest.raises(InfeasibleMarkingError):
            apply_state_equation(swap_net, bogus.initial, firing_counts(swap_net, bogus))
        assert verify_sequence_consistency(swap_net, bogus) is False

    def test_tampered_final_detected(self, satsat_net, satsat_envs):
        trace = fire_sequence(satsat_net, satsat_net.initial_marking, ["t1", "t2"], satsat_envs)
        tampered = Trace(
            trace.net_name,
            trace.initial,
            trace.events[:-1]
            + (FiringEvent(2, "t2", dict(satsat_envs[1]), Marking({"P1": ["y"], "P2": ["x"]})),),
        )
        assert verify_sequence_consistency(satsat_net, tampered) is False


def moves_net(name, start, *moves):
    """A guardless net over colors w, x, y, z: the k-th transition t{k+1}
    moves the tokens of its (inputs, outputs) pair, each a {place: colors}
    dict; `start` is the initial marking."""
    places = sorted({p for inputs, outputs in moves for p in (*inputs, *outputs)} | set(start))
    tids = [f"t{k}" for k in range(1, len(moves) + 1)]
    arcs = [arc for t, (inputs, outputs) in zip(tids, moves)
            for arc in [*(Arc(p, t, Multiset(c)) for p, c in inputs.items()),
                        *(Arc(t, p, Multiset(c)) for p, c in outputs.items())]]
    return Net(name, ("w", "x", "y", "z"), tuple(Place(p, 1) for p in places),
               tuple(map(Transition, tids)), tuple(arcs), Marking(start))


#: nets whose transitions form runs of the successor function
#: (`CompiledNet.moves`): a run is the longest stretch of consecutive
#: transitions that read the same input places, memoised on those places
RUN_NETS = {
    # t1 and t3 read P1 but form two runs, split by t2 on P2: the moves
    # keep declaration order
    "split_runs": moves_net("split_runs", {"P1": "xy", "P2": "z"},
                            ({"P1": "x"}, {"P2": "x"}),
                            ({"P2": "z"}, {"P1": "z"}),
                            ({"P1": "xy"}, {"P2": "xy"}),
                            ({"P2": "xy"}, {"P1": "xy"})),
    # t1 reads P1 and P2, t2 only P1: P1 holds x both where t1 is enabled
    # and where it is not
    "two_inputs": moves_net("two_inputs", {"P1": "x", "P3": "y"},
                            ({"P1": "x", "P2": "y"}, {"P3": "xy"}),
                            ({"P1": "x"}, {"P2": "x"}),
                            ({"P3": "y"}, {"P2": "y"})),
    # P1 and P2 trade x and y in runs of two while w circles P3 and P4,
    # so each place's contents recur across states
    "recurring": moves_net("recurring", {"P1": "xy", "P3": "w"},
                           ({"P1": "x"}, {"P2": "x"}),
                           ({"P1": "xy"}, {"P2": "xy"}),
                           ({"P2": "x"}, {"P1": "x"}),
                           ({"P2": "xy"}, {"P1": "xy"}),
                           ({"P3": "w"}, {"P4": "w"}),
                           ({"P4": "w"}, {"P3": "w"})),
}


class TestReachabilityGraph:
    def test_swap_two_state_cycle(self, swap_net):
        graph = reachability_graph(swap_net, swap_net.initial_marking, {}, 3, 100)
        assert len(graph.nodes) == 2
        assert graph.nodes[1] == Marking({"P1": ["y"], "P2": ["x"]})
        assert set(graph.edges) == {(0, "t1", 1), (1, "t2", 0)}
        assert graph.deadlocks == ()
        assert graph.truncated is False

    def test_debris_closure(self, debris_net, debris_env):
        graph = reachability_graph(debris_net, debris_net.initial_marking, debris_env, 5, 100)
        oracle = closure_oracle(debris_net, debris_net.initial_marking, debris_env)
        assert set(graph.nodes) == oracle
        assert len(graph.nodes) == 5
        final = Marking({"P1": ["S"]})
        assert graph.deadlocks == (graph.index_of(final),)
        assert graph.truncated is False

    def test_guard_respected(self, debris_net):
        graph = reachability_graph(debris_net, debris_net.initial_marking,
                                   {"collision_prob": 0.0}, 5, 100)
        assert len(graph.nodes) == 1
        assert graph.deadlocks == (0,)

    def test_depth_zero(self, debris_net, debris_env):
        graph = reachability_graph(debris_net, debris_net.initial_marking, debris_env, 0, 100)
        assert graph.nodes == (debris_net.initial_marking,)
        assert graph.truncated is True  # a transition was live past the bound

    def test_state_cap_truncates(self, debris_net, debris_env):
        graph = reachability_graph(debris_net, debris_net.initial_marking, debris_env, 5, 2)
        assert len(graph.nodes) == 2
        assert graph.truncated is True

    def test_deterministic(self, debris_net, debris_env):
        a = reachability_graph(debris_net, debris_net.initial_marking, debris_env, 5, 100)
        b = reachability_graph(debris_net, debris_net.initial_marking, debris_env, 5, 100)
        assert a == b

    @given(case=live_nets())
    def test_agrees_with_reference_bfs(self, case):
        # every small pair of bounds, so that both truncation paths run
        net, env = case
        for mode, max_depth, max_states in itertools.product(MODES, range(5), range(1, 9)):
            assert_same_graph(net, net.initial_marking, env, max_depth, max_states, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(RUN_NETS))
    def test_token_test_runs(self, name, mode):
        # every state cap up to past the whole graph, so that some caps
        # refuse a successor in the middle of a run's moves
        net = RUN_NETS[name]
        for max_depth, max_states in itertools.product((0, 1, 2, 3, 100), range(1, 18)):
            assert_same_graph(net, net.initial_marking, {}, max_depth, max_states, mode)

    @pytest.mark.parametrize("mode", MODES)
    @given(case=live_nets() | st.sampled_from([(RUN_NETS[name], {}) for name in sorted(RUN_NETS)]),
           data=st.data())
    def test_moves_in_any_order(self, mode, case, data):
        # one successor function applied to the graph's markings in a drawn
        # order, not the BFS's: whatever its memo already holds, each
        # marking's moves are those of the token tests of `live`, in order
        net, env = case
        view, max_depth = net.compiled, 4
        graph = reachability_graph(net, net.initial_marking, env, max_depth, 60, mode)
        _, size = view.pack(view.encode(net.initial_marking), max_depth)  # the graph's fields
        live, tests = view.live(env), view.token_tests(mode, size)
        moves = view.moves(live, mode, size)
        packed = [sum(view.share(p, ms, size) for p, ms in node.items()) for node in graph.nodes]
        for m in data.draw(st.permutations(packed)):
            assert moves(m) == [move for k in live if (move := tests[k](m))]

    @pytest.mark.parametrize("mode", MODES)
    def test_marking_outside_the_net(self, swap_net, mode):
        # an undeclared color or an undeclared place, which validate_net
        # rejects, is refused at every bound
        for m0, message in ((Marking({"P1": ["x", "q"], "P2": ["y"]}), "unknown color 'q' at place 'P1'"),
                            (Marking({"P1": ["x"], "P2": ["y"], "P9": ["z"]}), "unknown place 'P9'")):
            for max_depth, max_states in ((0, 1), (4, 100)):
                with pytest.raises(KeyError, match=message):
                    reachability_graph(swap_net, m0, {}, max_depth, max_states, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_input_arc_calling_no_tokens_is_refused(self, mode):
        # validate_net rejects an arc that calls no tokens, so the search
        # refuses the net at every bound instead of giving it a firing rule
        net = Net("empty_call", ("x", "y"), (Place("P1", 1), Place("P2", -1)),
                  (Transition("t1"), Transition("t2")),
                  (Arc("P1", "t1", Multiset()), Arc("t1", "P2", Multiset(["y"])),
                   Arc("P2", "t2", Multiset(["y"])), Arc("t2", "P1", Multiset(["x"]))),
                  Marking({"P1": ["x"]}))
        for max_depth, max_states in ((0, 1), (4, 100)):
            with pytest.raises(ValueError, match=r"^arc P1->t1: weight expression is empty$"):
                reachability_graph(net, net.initial_marking, {}, max_depth, max_states, mode)

    def test_unbound_guard_variable_raises_without_tokens(self):
        # t2's guard reads an unbound variable; nothing is token-enabled at m0
        net = Net("unbound", ("x",), (Place("P1", 1), Place("P2", -1)),
                  (Transition("t1"), Transition("t2", parse_guard("clock > 1"))),
                  (Arc("P2", "t2", Multiset(["x"])),), Marking({"P1": ["x"]}))
        assert enabled_set(net, net.initial_marking, {"clock": 2.0}) == []
        with pytest.raises(UnboundVariableError) as exc:
            reachability_graph(net, net.initial_marking, {}, 5, 100)
        assert exc.value.name == "clock"

    def test_index_of_absent_marking(self, swap_net):
        graph = reachability_graph(swap_net, swap_net.initial_marking, {}, 3, 100)
        assert graph.index_of(Marking({"P1": ["x", "y"]})) is None

    def test_every_reachable_marking_has_witness(self, all_nets, satsat_envs, debris_env):
        # necessary-condition soundness over all bundled nets
        envs = {
            "swap_infinite": {},
            "orbit_classes": {},
            "satellite_swap": dict(satsat_envs[0]),
            "debris_disposal": dict(debris_env),
        }
        for net in all_nets:
            graph = reachability_graph(net, net.initial_marking, envs[net.name], 6, 200)
            for node, depth in zip(graph.nodes, graph.depths):
                witness = check_reachability_condition(net, net.initial_marking, node, depth)
                assert witness is not None, f"{net.name}: no witness for {node}"


def packed_at(view, m, size):
    """`m` packed at `size` bytes a field, as `CompiledNet.pack` lays it out."""
    return int.from_bytes(b"".join(n.to_bytes(size, "little") for n in view.encode(m)), "little")


class TestSlotNames:
    """`CompiledNet.slot_names` names the place and color each slot of
    `encode` counts."""

    @given(case=live_nets(), mode=st.sampled_from(MODES))
    def test_names_what_each_slot_counts(self, case, mode):
        net, env = case
        view = net.compiled
        for m in reference_graph(net, net.initial_marking, env, 4, 30, mode)[0]:
            vec = view.encode(m)
            assert len(view.slot_names) == len(vec)
            for s, (p, c) in enumerate(view.slot_names):
                assert vec[s] == m[p].count(c)


class TestDecode:
    """`CompiledNet.decode` reads every place of every packed marking; that
    must give back the markings the reference firing rule reaches."""

    @given(case=live_nets(), mode=st.sampled_from(MODES),
           max_depth=st.integers(0, 4), max_states=st.integers(1, 30))
    def test_bfs_graph(self, case, mode, max_depth, max_states):
        # the reference BFS gives the nodes, so that a faulty decoder cannot
        # supply its own input
        net, env = case
        view = net.compiled
        nodes = reference_graph(net, net.initial_marking, env, max_depth, max_states, mode)[0]
        size = view.pack(view.encode(net.initial_marking), min(max_depth, max_states))[1]
        assert view.decode([packed_at(view, m, size) for m in nodes], size) == list(nodes)

    @given(case=live_nets(), mode=st.sampled_from(MODES), data=st.data())
    def test_firing_chain(self, case, mode, data):
        net, env = case
        view = net.compiled
        chain, fired = [net.initial_marking], []
        for _ in range(data.draw(st.integers(0, 8))):
            options = reference.enabled_set(net, chain[-1], env, mode)
            if not options:
                break
            fired.append(data.draw(st.sampled_from(options)))
            chain.append(reference.fire(net, chain[-1], fired[-1], env, mode))
        size = view.pack(view.encode(net.initial_marking), len(fired))[1]
        assert view.decode([packed_at(view, m, size) for m in chain], size) == chain
        trace = fire_sequence(net, net.initial_marking, fired, [env] * len(fired), mode)
        assert [ev.marking_after for ev in trace.events] == chain[1:]


class TestShare:
    """`CompiledNet.share` packs one place of a recorded marking as `pack`
    lays it out, and a place outside the net or a count at a field's top bit
    as the bit above every field."""

    @given(case=live_nets(), mode=st.sampled_from(MODES),
           max_depth=st.integers(0, 4), max_states=st.integers(1, 30))
    def test_shares_sum_to_the_packed_marking(self, case, mode, max_depth, max_states):
        net, env = case
        view = net.compiled
        nodes = reference_graph(net, net.initial_marking, env, max_depth, max_states, mode)[0]
        size = view.pack(view.encode(net.initial_marking), min(max_depth, max_states))[1]
        for m in nodes:
            assert sum(view.share(place, ms, size) for place, ms in m.items()) == packed_at(view, m, size)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_place_outside_the_net(self, swap_net, size):
        past = 1 << 8 * size * 2 * 2  # two places of two colors
        assert swap_net.compiled.share("nope", Multiset(["x"]), size) == past

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_count_at_the_top_bit(self, swap_net, size):
        view, top = swap_net.compiled, 2 ** (8 * size - 1)
        assert view.share("P2", Multiset({"y": top}), size) == 1 << 8 * size * 2 * 2
        below = Multiset({"y": top - 1})
        assert view.share("P2", below, size) == packed_at(view, Marking({"P2": below}), size)


def pump_net(start):
    """`t` calls x from P and deposits 2x there, so each firing adds one x;
    `start` x at P, and a y at Q above P's fields as a bystander."""
    return Net("pump", ("x", "y"), (Place("P", 1), Place("Q", -1)), (Transition("t"),),
               (Arc("P", "t", Multiset(["x"])), Arc("t", "P", Multiset({"x": 2}))),
               Marking({"P": {"x": start}, "Q": ["y"]}))


def merge_net(a, b, c):
    """x flows from A and from B into C, where `tc` calls and puts back one x;
    `a`, `b` and `c` x at A, B and C, and a y at D above C's fields as a
    bystander.  No firing adds tokens, so no count passes a + b + c."""
    return Net("merge", ("x", "y"), (Place("A", 1), Place("B", 1), Place("C", 1), Place("D", -1)),
               (Transition("ta"), Transition("tb"), Transition("tc")),
               (Arc("A", "ta", Multiset(["x"])), Arc("ta", "C", Multiset(["x"])),
                Arc("B", "tb", Multiset(["x"])), Arc("tb", "C", Multiset(["x"])),
                Arc("C", "tc", Multiset(["x"])), Arc("tc", "C", Multiset(["x"]))),
               Marking({"A": {"x": a}, "B": {"x": b}, "C": {"x": c}, "D": ["y"]}))


#: merge starts whose token total, which C ends at, is 127/128 or
#: 32767/32768, above every count they start with
MERGES = [(2, 1, 124), (2, 2, 124), (2, 1, 32764), (2, 2, 32764), (8, 119, 0), (8, 120, 0)]


class TestFieldWidths:
    """The packed kernel sizes its byte fields from the marking: from the
    firings a call can make and, when no firing adds tokens, from the token
    total.  A pump counts P's tokens up through 127/128, 255/256 and
    32767/32768, and a merge gathers its total at C; there a field one byte
    too narrow or without its spare top bit would carry into the next field
    or refuse a firing, and replay would take a recorded count for one it
    does not fire."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("start, max_depth, max_states", [
        *[(start, depth, 10 ** 6) for start in (124, 252, 32764) for depth in (3, 4, 5)],
        *[(start, 10 ** 6, states) for start in (124, 252, 32764) for states in (4, 5, 6)],
        *[(1, depth, 10 ** 6) for depth in (126, 127, 128, 254, 255, 256)],
        *[(1, 10 ** 6, states) for states in (127, 128, 129, 255, 256, 257)],
    ])
    def test_bfs(self, start, max_depth, max_states, mode):
        net = pump_net(start)
        assert_same_graph(net, net.initial_marking, {}, max_depth, max_states, mode)

    @pytest.mark.parametrize("start, length", [
        *[(start, length) for start in (124, 252, 32764) for length in (3, 4, 5)],
        *[(1, length) for length in (126, 127, 128, 254, 255, 256)],
    ])
    def test_fire_sequence_and_simulate(self, start, length):
        net = pump_net(start)
        m = net.initial_marking
        markings = []
        for _ in range(length):
            m = reference.fire(net, m, "t", {})
            markings.append(m)
        assert m["P"] == Multiset({"x": start + length})
        trace = fire_sequence(net, net.initial_marking, ["t"] * length, [{}] * length)
        assert [ev.marking_after for ev in trace.events] == markings
        for policy in ("sweep", "single"):
            trace = simulate(net, net.initial_marking, {}, length, policy)
            assert [ev.marking_after for ev in trace.events] == markings
        assert enabled_set(net, m, {}) == ["t"]

    @pytest.mark.parametrize("start, length", [
        *[(start, length) for start in (124, 252, 32764) for length in (3, 4, 5)],
        *[(1, length) for length in (126, 127, 128, 254, 255, 256)],
    ])
    def test_replay(self, start, length):
        net = pump_net(start)
        trace = fire_sequence(net, net.initial_marking, ["t"] * length, [{}] * length)
        doc = trace_io.trace_document(net, trace)
        assert trace_io.replay(net, doc) == trace.final == reference.replay(net, doc)
        doc["events"][-1]["marking"]["P"] = f"{start + length + 1}x"
        message = (f"step {length}: replay produced P={start + length}x, Q=y, "
                   f"document records P={start + length + 1}x, Q=y")
        for replay in (trace_io.replay, reference.replay):
            with pytest.raises(trace_io.ReplayError) as exc:
                replay(net, doc)
            assert str(exc.value) == message

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("start", MERGES)
    def test_merge_bfs(self, start, mode):
        net = merge_net(*start)
        bounds = [(10 ** 6, 10 ** 6)] + [(depth, 10 ** 6) for depth in range(5)] + [
            (10 ** 6, states) for states in (1, 2, 5, 6, 9)]
        for max_depth, max_states in bounds:
            assert_same_graph(net, net.initial_marking, {}, max_depth, max_states, mode)

    @pytest.mark.parametrize("start", MERGES)
    def test_merge_firing_loops(self, start):
        # all of A's and B's tokens gather at C, and tc fires at the total
        net = merge_net(*start)
        seq = ["ta"] * start[0] + ["tb"] * start[1] + ["tc"]
        markings, m = [], net.initial_marking
        for t in seq:
            m = reference.fire(net, m, t, {})
            markings.append(m)
        assert m["C"] == Multiset({"x": sum(start)})
        trace = fire_sequence(net, net.initial_marking, seq, [{}] * len(seq))
        assert [ev.marking_after for ev in trace.events] == markings
        doc = trace_io.trace_document(net, trace)
        assert trace_io.replay(net, doc) == trace.final == reference.replay(net, doc)
        for m in [net.initial_marking] + markings:
            assert enabled_set(net, m, {}) == reference.enabled_set(net, m, {})
        for policy in ("sweep", "single"):
            m, fired = net.initial_marking, []
            for steps in range(1, 6):
                for t in net.transition_ids:  # one more step of `policy`
                    if reference.enabled(net, m, t, {}):
                        m = reference.fire(net, m, t, {})
                        fired.append((t, m))
                        if policy == "single":
                            break
                trace = simulate(net, net.initial_marking, {}, steps, policy)
                assert [(ev.transition, ev.marking_after) for ev in trace.events] == fired

    def test_conservation_flag(self, all_nets):
        assert all(net.compiled.conserves for net in all_nets)
        assert merge_net(1, 1, 1).compiled.conserves
        assert not pump_net(1).compiled.conserves

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", models.NAMES)
    def test_one_test_list_per_mode(self, name, mode, satsat_envs, debris_env):
        # a bundled model's firing loops and search share one size, so one list
        net = models.load(name)  # its own compiled view, unlike the fixtures'
        env = {"satellite_swap": dict(satsat_envs[0]), "debris_disposal": debris_env}.get(name, {})
        m0 = net.initial_marking
        fired = enabled_set(net, m0, env, mode)[:1]
        fire_sequence(net, m0, fired, [env] * len(fired), mode)
        reachability_graph(net, m0, env, 10 ** 6, 200, mode)
        assert list(net.compiled.tests) == [(mode, 1)]

    def test_replay_count_past_the_cap(self):
        # in one-byte fields P=381x packs to the int of P=125x+y: 381 carries
        # into the y field, so a count at or over a field's top bit must not match
        net = pump_net(124)
        doc = {"net": "pump", "initial": {"P": "124x+y", "Q": "y"},
               "events": [{"step": 1, "transition": "t", "env": {}, "marking": {"P": "381x", "Q": "y"}}],
               "final": {"P": "381x", "Q": "y"}}
        for replay in (trace_io.replay, reference.replay):
            with pytest.raises(trace_io.ReplayError) as exc:
                replay(net, doc)
            assert str(exc.value) == "step 1: replay produced P=125x+y, Q=y, document records P=381x, Q=y"
