import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    AndExpr,
    Arc,
    Marking,
    Multiset,
    Net,
    NumLit,
    OrExpr,
    Place,
    SignedMultiset,
    Transition,
    apply_state_equation,
    check_reachability_condition,
    enabled_set,
    fire,
    incidence_matrix,
    models,
    reachability_graph,
    simulate,
    validate_net,
)
from reference import arcs_by_transition, dataclass_twin, tally
from strategies import guards, live_nets, nets, replace_net


def one_shot_swap():
    """Order-2 swap net in its minimal form: one transition, four arcs."""
    return Net(
        name="one_shot_swap",
        colors=("x", "y"),
        places=(Place("P1", 1), Place("P2", -1)),
        transitions=(Transition("t1"),),
        arcs=(
            Arc("P1", "t1", Multiset(["x"])),
            Arc("P2", "t1", Multiset(["y"])),
            Arc("t1", "P1", Multiset(["y"])),
            Arc("t1", "P2", Multiset(["x"])),
        ),
        initial_marking=Marking({"P1": ["x"], "P2": ["y"]}),
    )


class TestValidateNet:
    def test_minimal_swap_net_valid(self):
        net = one_shot_swap()
        assert net.order == 2
        assert len(net.transitions) == 1
        assert len(net.arcs) == 4
        assert validate_net(net) == []

    def test_bundled_nets_valid(self, all_nets):
        for net in all_nets:
            assert validate_net(net) == []

    def test_place_to_place_arc(self):
        net = Net(
            name="bad",
            colors=("x",),
            places=(Place("P1", 1), Place("P2", 1)),
            transitions=(Transition("t1"),),
            arcs=(Arc("P1", "P2", Multiset(["x"])),),
        )
        violations = validate_net(net)
        assert len(violations) == 1
        assert "one place with one transition" in violations[0]

    def test_marking_color_outside_color_set(self):
        net = Net(
            name="bad",
            colors=("x",),
            places=(Place("P1", 1),),
            transitions=(Transition("t1"),),
            arcs=(),
            initial_marking=Marking({"P1": ["z"]}),
        )
        violations = validate_net(net)
        assert len(violations) == 1
        assert "undeclared color 'z'" in violations[0]

    def test_duplicate_ids_flagged(self):
        net = Net(
            name="bad",
            colors=("x", "x"),
            places=(Place("P1", 1), Place("P1", 1)),
            transitions=(Transition("P1"),),
            arcs=(),
        )
        messages = "\n".join(validate_net(net))
        assert "color 'x': declared more than once" in messages
        assert "place 'P1': duplicate id" in messages
        assert "collides with a place" in messages

    def test_bad_rotation_and_identifier(self):
        net = Net(
            name="bad",
            colors=("1x",),
            places=(Place("P1", 2),),
            transitions=(),
            arcs=(),
        )
        messages = "\n".join(validate_net(net))
        assert "rotation" in messages
        assert "not a legal identifier" in messages

    @pytest.mark.parametrize("changes, message", [
        ({"places": (Place("P1", 1), Place("1P", -1))}, "place '1P': not a legal identifier"),
        ({"transitions": (Transition("t-1"), Transition("t1"))}, "transition 't-1': not a legal identifier"),
        ({"transitions": (Transition("t1"), Transition("t1"))}, "transition 't1': duplicate id"),
        ({"arcs": (Arc("P1", "t1", Multiset(["x"])), Arc("P1", "t9", Multiset(["x"])))},
         "arc P1->t9: unknown target 't9'"),
        ({"arcs": (Arc("P1", "t1", Multiset(["x", "z"])),)}, "arc P1->t1: weight uses undeclared color 'z'"),
        ({"initial_marking": Marking({"P1": ["x"], "P9": ["x"]})}, "marking: unknown place 'P9'"),
    ], ids=["place-id", "transition-id", "duplicate-transition", "arc-target", "weight-color",
            "marking-place"])
    def test_single_violation_text(self, changes, message):
        base = Net("one", ("x",), (Place("P1", 1),), (Transition("t1"),),
                   (Arc("P1", "t1", Multiset(["x"])),), Marking({"P1": ["x"]}))
        assert validate_net(base) == []
        assert validate_net(replace_net(base, **changes)) == [message]

    def test_duplicate_and_empty_arcs(self):
        net = Net(
            name="bad",
            colors=("x",),
            places=(Place("P1", 1),),
            transitions=(Transition("t1"),),
            arcs=(
                Arc("P1", "t1", Multiset(["x"])),
                Arc("P1", "t1", Multiset(["x"])),
                Arc("t1", "P1", Multiset()),
            ),
        )
        messages = "\n".join(validate_net(net))
        assert "duplicate arc" in messages
        assert "weight expression is empty" in messages

    @pytest.mark.parametrize("arcs, label", [
        ((Arc("P1", "t1", Multiset(["x"])), Arc("P1", "t1", Multiset(["y"]))), "arc P1->t1"),
        ((Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P1", Multiset(["x"])),
          Arc("t1", "P1", Multiset(["x"]))), "arc t1->P1"),
        # one weight object for both, as the net-file reader gives a repeated weight text
        ((Arc("P1", "t1", Multiset(["x"])),) * 2, "arc P1->t1"),
        # every input arc is checked before any output arc
        ((Arc("t1", "P1", Multiset(["x"])),) * 2 + (Arc("P1", "t1", Multiset(["x"])),) * 2, "arc P1->t1"),
    ], ids=["inputs-differ", "outputs-equal", "inputs-one-weight", "inputs-first"])
    def test_duplicate_arc_is_a_value_error_in_use(self, arcs, label):
        # analyses of an unvalidated net report the arc that validate_net reports
        net = Net("dup", ("x", "y"), (Place("P1", 1),), (Transition("t1"),), arcs,
                  Marking({"P1": ["x", "y"]}))
        assert f"{label}: duplicate arc" in validate_net(net)
        for use in (lambda: net.compiled, lambda: incidence_matrix(net),
                    lambda: fire(net, net.initial_marking, "t1", {})):
            with pytest.raises(ValueError, match=f"^{label}: duplicate arc$"):
                use()

    def test_duplicate_place_is_a_value_error_in_use(self):
        # the net of the state-equation example with P1 declared twice: every
        # analysis reports the place that validate_net reports, instead of
        # running on one copy of it
        net = Net("dup", ("x",), (Place("P1", 1), Place("P1", -1)), (Transition("t1"),),
                  (Arc("P1", "t1", Multiset(["x"])),), Marking({"P1": ["x"]}))
        assert validate_net(net) == ["place 'P1': duplicate id"]
        m = net.initial_marking
        for use in (lambda: apply_state_equation(net, m, (1,)), lambda: incidence_matrix(net),
                    lambda: enabled_set(net, m, {}), lambda: reachability_graph(net, m, {}, 2, 10),
                    lambda: net.compiled):
            with pytest.raises(ValueError, match="^place 'P1': duplicate id$"):
                use()

    def test_malformed_guard_is_a_type_error_in_use(self):
        # a hand-built tree that is not a guard is refused when the net is
        # compiled, also by analyses that never evaluate a guard; a duplicate
        # arc is still reported before it
        net = Net("bad_guard", ("x",), (Place("P1", 1),), (Transition("t1", NumLit(1.0)),),
                  (Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P1", Multiset(["x"]))),
                  Marking({"P1": ["x"]}))
        m = net.initial_marking
        for use in (lambda: incidence_matrix(net), lambda: check_reachability_condition(net, m, m, 1),
                    lambda: reachability_graph(net, m, {}, 2, 10)):
            with pytest.raises(TypeError) as exc:
                use()
            assert str(exc.value) == "not a guard expression: NumLit(value=1.0)"
        dup = replace_net(net, arcs=net.arcs + net.arcs[:1])
        with pytest.raises(ValueError, match="^arc P1->t1: duplicate arc$"):
            incidence_matrix(dup)

    @given(net=nets())
    def test_generated_nets_valid(self, net):
        assert validate_net(net) == []


class TestMarking:
    def test_absent_place_is_empty(self):
        m = Marking({"P1": ["x"]})
        assert m["P2"] == Multiset()
        assert m["P1"] == Multiset(["x"])

    def test_empty_entries_normalized_away(self):
        assert Marking({"P1": Multiset()}) == Marking()
        assert hash(Marking({"P1": Multiset()})) == hash(Marking())

    def test_value_semantics(self):
        a = Marking({"P1": ["x"], "P2": ["y", "y"]})
        b = Marking({"P2": Multiset({"y": 2}), "P1": Multiset({"x": 1})})
        assert a == b
        assert tally(a) == 3

    def test_str(self):
        assert str(Marking()) == "(empty)"
        assert str(Marking({"P2": ["y"], "P1": ["x"]})) == "P1=x, P2=y"

    def test_repr_immutability_and_type(self):
        m = Marking({"P2": ["y"], "P1": ["x", "x"]})
        assert repr(m) == "Marking({'P1': Multiset({'x': 2}), 'P2': Multiset({'y': 1})})"
        assert repr(Marking()) == "Marking({})"
        assert hash(m) == hash((("P1", Multiset({"x": 2})), ("P2", Multiset({"y": 1}))))
        assert m != Multiset(["x"]) and Marking() != Multiset()
        with pytest.raises(AttributeError, match="Marking is immutable"):
            m._map = {}
        for name in ("_map", "places"):
            with pytest.raises(AttributeError, match="^Marking is immutable$"):
                delattr(m, name)
        assert m == Marking({"P1": ["x", "x"], "P2": ["y"]}) and list(m) == ["P1", "P2"]

    @pytest.mark.parametrize("assignment", [
        {}, {"P1": "x", "Q7": ["y", "y"]}, {"P": ["x"]}, {"A": "x", "B": ["y", "z"], "C": []},
        {"P10": Multiset({"x": 3})}])
    def test_built_from_a_marking_keeps_it(self, assignment):
        m = Marking(assignment)
        assert Marking(m) == m

    def test_iterates_over_occupied_places_sorted(self):
        m = Marking({"Q": ["x"], "P2": [], "P10": ["y"], "P": ["x", "x"]})
        assert list(m) == ["P", "P10", "Q"] == list(m.places())
        assert list(Marking()) == []


def round_trips(x):
    """`x` through `copy.copy`, `copy.deepcopy` and `pickle`."""
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


class TestCopyAndPickle:
    """The immutable values copy and pickle through their constructors."""

    @pytest.mark.parametrize("value", [
        Multiset({"x": 2, "y": 1}), SignedMultiset({"x": 2, "y": -1}),
        Marking({"P": ["x"]}), Marking({"P1": ["x", "x"], "P2": ["y"]}), Marking()])
    def test_values_round_trip_with_their_class(self, value):
        for copied in round_trips(value):
            assert copied == value and type(copied) is type(value)
            assert hash(copied) == hash(value)

    def test_unpickled_signed_multiset_formats_afresh(self):
        value = SignedMultiset({"y": -1, "x": 2})
        assert str(value) == "2x-y"  # and kept in `_text`
        copied = pickle.loads(pickle.dumps(value))
        assert not hasattr(copied, "_text")
        assert str(copied) == "2x-y"

    @pytest.mark.parametrize("name", models.NAMES)
    def test_loaded_net_round_trips(self, name):
        net = models.load(name)
        for copied in round_trips(net):
            assert copied == net and type(copied) is Net

    def test_net_pickled_after_compiling_explores_alike(self):
        net = models.load("swap_infinite")
        graph = reachability_graph(net, net.initial_marking, {}, 5, 100)
        assert "compiled" in vars(net)
        copied = pickle.loads(pickle.dumps(net))
        assert reachability_graph(copied, copied.initial_marking, {}, 5, 100) == graph


class TestMarkingVector:
    """A marking as the compiled net's slot vector: one count per (place,
    color), place-major, colors sorted; packed, one field per slot."""

    def test_classifier_initial_vector(self, classes_net):
        view = classes_net.compiled
        assert view.colors == ("A", "B", "C", "D")
        assert view.encode(classes_net.initial_marking) == (
            1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1) + (0,) * 8

    def test_empty_marking(self, classes_net):
        assert classes_net.compiled.encode(Marking()) == (0,) * 24

    def test_debris_initial_vector(self, debris_net):
        assert debris_net.compiled.encode(debris_net.initial_marking) == (0, 1, 1, 0) + (0,) * 4

    def test_token_count_preserved(self, debris_net):
        m = debris_net.initial_marking
        assert sum(debris_net.compiled.encode(m)) == tally(m)

    @given(net=nets())
    def test_round_trip_bijection(self, net):
        m = net.initial_marking
        view = net.compiled
        packed, size = view.pack(view.encode(m))
        assert view.decode([packed], size) == [m]


class TestDeclarationOrderCanonical:
    @given(net=nets(), data=st.data())
    def test_arc_order_is_immaterial(self, net, data):
        shuffled = tuple(data.draw(st.permutations(net.arcs)))
        reordered = Net(net.name, net.colors, net.places, net.transitions,
                        shuffled, net.initial_marking)
        assert validate_net(reordered) == validate_net(net)
        assert incidence_matrix(reordered) == incidence_matrix(net)
        assert arcs_by_transition(reordered) == arcs_by_transition(net)
        assert reordered.compiled.spans == net.compiled.spans
        assert reordered.compiled.delta == net.compiled.delta

    def test_fire_unaffected_by_arc_order(self, satsat_net, satsat_envs):
        reordered = Net(
            satsat_net.name, satsat_net.colors, satsat_net.places,
            satsat_net.transitions, tuple(reversed(satsat_net.arcs)),
            satsat_net.initial_marking,
        )
        m1 = fire(satsat_net, satsat_net.initial_marking, "t1", satsat_envs[0])
        m2 = fire(reordered, reordered.initial_marking, "t1", satsat_envs[0])
        assert m1 == m2


def _outcome(call):
    """What `call()` returns, or the exception type it raises."""
    try:
        return call()
    except Exception as err:  # the exception type is the outcome
        return type(err)


def _shown(call):
    """The repr of what `call()` returns, twin class names unqualified, or
    the exception type it raises."""
    outcome = _outcome(call)
    return outcome if isinstance(outcome, type) else repr(outcome).replace("DataclassTwins.", "")


class TestRecords:
    """Every `Record` behaves as the frozen dataclass it replaced
    (`reference.DataclassTwins`)."""

    @given(data=st.data())
    def test_records_behave_as_their_dataclass_twins(self, data):
        net, env = data.draw(live_nets())
        trace = simulate(net, net.initial_marking, env, 3)
        drawn = data.draw(st.lists(guards, min_size=1, max_size=3))
        # records of two classes with the same field values
        pairs = [cls(g, g) for g in drawn for cls in (AndExpr, OrExpr)]
        values = [net, *net.places, *net.transitions, *net.arcs, trace, *trace.events,
                  incidence_matrix(net), reachability_graph(net, net.initial_marking, env, 3, 40),
                  *drawn, *pairs]
        values += [type(x)(**{f: getattr(x, f) for f in x.__match_args__}) for x in values]
        twins = [dataclass_twin(x) for x in values]
        for x, twin in zip(values, twins):
            cls, twin_cls = type(x), type(twin)
            assert cls.__name__ == twin_cls.__name__
            assert cls.__match_args__ == twin_cls.__match_args__
            assert repr(x) == repr(twin).replace("DataclassTwins.", "")
            assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(twin))
            assert copy.copy(x) == x
            args = [getattr(x, f) for f in x.__match_args__]
            twin_args = [getattr(twin, f) for f in x.__match_args__]
            # defaults, too few, too many and repeated arguments
            for k in range(len(args) + 2):
                assert _shown(lambda: cls(*args[:k])) == _shown(lambda: twin_cls(*twin_args[:k]))
            assert _outcome(lambda: cls(*args, None)) is _outcome(lambda: twin_cls(*twin_args, None))
            if args:
                name = x.__match_args__[0]
                assert _outcome(lambda: cls(*args, **{name: args[0]})) is TypeError
                assert _outcome(lambda: twin_cls(*twin_args, **{name: twin_args[0]})) is TypeError
            assert _outcome(lambda: cls(*args, unknown=1)) is TypeError
            # keyword construction, sequences given as lists
            listed = {f: list(v) if isinstance(v, tuple) else v for f, v in zip(x.__match_args__, args)}
            twin_listed = {f: list(v) if isinstance(v, tuple) else v
                           for f, v in zip(x.__match_args__, twin_args)}
            assert _shown(lambda: cls(**listed)) == _shown(lambda: twin_cls(**twin_listed))
            # refused assignment and deletion, fields unchanged
            for name in (*x.__match_args__, "other"):
                for change in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
                    # the dataclass raises FrozenInstanceError, an AttributeError
                    assert _outcome(lambda: change(x)) is AttributeError
                    assert issubclass(_outcome(lambda: change(twin)), AttributeError)
            assert dataclass_twin(x) == twin
        for x, twin_x in zip(values, twins):
            for y, twin_y in zip(values, twins):
                assert (x == y) == (twin_x == twin_y)
                assert (x != y) == (twin_x != twin_y)
