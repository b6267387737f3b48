import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    AndExpr,
    Arc,
    Comparison,
    Marking,
    Multiset,
    Net,
    NumLit,
    OrExpr,
    Place,
    SignedMultiset,
    Transition,
    VarRef,
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
from orbitpn import model
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


@st.composite
def damaged_nets(draw):
    """A net from `nets()` with at most one damage of a kind `validate_net` reports."""
    net = draw(nets())
    colors, places, transitions, arcs = net.colors, net.places, net.transitions, net.arcs
    p, q = draw(st.sampled_from(net.place_ids)), draw(st.sampled_from(net.place_ids))
    t, u = draw(st.sampled_from(net.transition_ids)), draw(st.sampled_from(net.transition_ids))
    color = draw(st.sampled_from(colors))
    weight = Multiset([color])
    marking = dict(net.initial_marking.items())
    damage = draw(st.sampled_from((
        None, "place", "transition", "color", "unknown-end", "place-place", "transition-transition",
        "duplicate-arc", "empty-weight", "undeclared-color", "marking-place", "marking-color",
        "identifier", "rotation")))
    if damage == "place":
        places += (Place(p, 1),)
    elif damage == "transition":
        transitions += (Transition(t),)
    elif damage == "color":
        colors += (color,)
    elif damage == "unknown-end":
        arcs += (draw(st.sampled_from((Arc(p, "t99", weight), Arc("P99", t, weight),
                                       Arc(t, "P99", weight), Arc("t99", p, weight)))),)
    elif damage == "place-place":
        arcs += (Arc(p, q, weight),)
    elif damage == "transition-transition":
        arcs += (Arc(t, u, weight),)
    elif damage == "duplicate-arc":
        arcs += (Arc(p, t, weight),) * 2 if not arcs else (draw(st.sampled_from(arcs)),)
    elif damage == "empty-weight":
        arcs += (draw(st.sampled_from((Arc(p, t, Multiset()), Arc(t, p, Multiset())))),)
    elif damage == "undeclared-color":
        arcs += (Arc(p, t, Multiset(["undeclared"])),)
    elif damage == "marking-place":
        marking["P99"] = weight
    elif damage == "marking-color":
        marking[p] = marking.get(p, Multiset()) + Multiset(["undeclared"])
    elif damage == "identifier":
        bad = draw(st.sampled_from(("1x", "", 5, ["x"])))
        kind = draw(st.sampled_from(("color", "place", "transition")))
        if kind == "color":
            colors += (bad,)
        elif kind == "place":
            places += (Place(bad, 1),)
        else:
            transitions += (Transition(bad),)
    elif damage == "rotation":
        places = tuple(Place(s.id, 0) if s.id == p else s for s in places)
    return replace_net(net, colors=colors, places=places, transitions=transitions, arcs=arcs,
                       initial_marking=Marking(marking))


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
        # hand-built values of the wrong type, which compiling would refuse
        ({"places": (Place("P1", 1), Place(3, 1))}, "place 3: not a legal identifier"),
        ({"places": (Place("P1", 1), Place("", 1))}, "place '': not a legal identifier"),
        ({"colors": ("x", 5)}, "color 5: not a legal identifier"),
        ({"transitions": (Transition("t1"), Transition(7))}, "transition 7: not a legal identifier"),
        ({"arcs": (Arc("P1", "t1", "x"),)}, "arc P1->t1: weight 'x' is not a multiset"),
        ({"arcs": (Arc("P1", "t1", {"x": 1}),)}, "arc P1->t1: weight {'x': 1} is not a multiset"),
        # a list is reported, not hashed, and joins no duplicate check
        ({"colors": ("x", ["x"])}, "color ['x']: not a legal identifier"),
        ({"places": (Place("P1", 1), Place(["P1"], 1))}, "place ['P1']: not a legal identifier"),
        ({"transitions": (Transition("t1"), Transition(["t1"]))},
         "transition ['t1']: not a legal identifier"),
        ({"arcs": (Arc("P1", "t1", Multiset(["x"])), Arc(["P1"], "t1", Multiset(["x"])))},
         "arc ['P1']->t1: unknown source ['P1']"),
        # a marking of the wrong type is reported, and its places and colors go unread
        ({"initial_marking": {"P1": ["x"], "P9": ["z"]}},
         "marking: {'P1': ['x'], 'P9': ['z']} is not a Marking"),
        ({"initial_marking": None}, "marking: None is not a Marking"),
    ], ids=["place-id", "transition-id", "duplicate-transition", "arc-target", "weight-color",
            "marking-place", "place-id-int", "place-id-empty", "color-int", "transition-id-int",
            "weight-string", "weight-dict", "color-list", "place-id-list", "transition-id-list",
            "arc-source-list", "marking-dict", "marking-none"])
    def test_single_violation_text(self, changes, message):
        base = Net("one", ("x",), (Place("P1", 1),), (Transition("t1"),),
                   (Arc("P1", "t1", Multiset(["x"])),), Marking({"P1": ["x"]}))
        assert validate_net(base) == []
        net = replace_net(base, **changes)
        assert validate_net(net) == [message]
        with pytest.raises(ValueError) as exc:
            net.compiled
        assert str(exc.value) == message

    def test_every_violation_in_order(self):
        # several faults in every section: the whole list, in the walk's order
        net = Net(
            name="faulty",
            colors=("x", "1y", "x", 5, "y"),
            places=(Place("P1", 1), Place("P1", 2), Place("2P", -1), Place("P2", 0)),
            transitions=(Transition("t1"), Transition("t1"), Transition("P2"), Transition("t-2")),
            arcs=(
                Arc("P1", "t1", Multiset(["x"])),
                Arc("P1", "t1", Multiset(["y"])),
                Arc("P1", "P2", Multiset(["z"])),
                Arc("t9", "t1", "w"),
                Arc("t1", "P1", Multiset()),
            ),
            initial_marking=Marking({"P1": ["x", "q"], "P9": ["x"]}),
        )
        assert validate_net(net) == [
            "color '1y': not a legal identifier",
            "color 'x': declared more than once",
            "color 5: not a legal identifier",
            "place 'P1': duplicate id",
            "place 'P1': rotation must be +1 or -1, got 2",
            "place '2P': not a legal identifier",
            "place 'P2': rotation must be +1 or -1, got 0",
            "transition 't1': duplicate id",
            "transition 'P2': id collides with a place",
            "transition 't-2': not a legal identifier",
            "arc P1->t1: duplicate arc",
            "arc P1->P2: endpoints must pair one place with one transition",
            "arc P1->P2: weight uses undeclared color 'z'",
            "arc t9->t1: unknown source 't9'",
            "arc t9->t1: weight 'w' is not a multiset",
            "arc t1->P1: weight expression is empty",
            "marking at 'P1': undeclared color 'q'",
            "marking: unknown place 'P9'",
        ]

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

    @pytest.mark.parametrize("arcs, message", [
        ((Arc("P1", "t1", Multiset(["x"])), Arc("P1", "t1", Multiset(["y"]))), "arc P1->t1: duplicate arc"),
        ((Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P1", Multiset(["x"])),
          Arc("t1", "P1", Multiset(["x"]))), "arc t1->P1: duplicate arc"),
        # one weight object for both, as the net-file reader gives a repeated weight text
        ((Arc("P1", "t1", Multiset(["x"])),) * 2, "arc P1->t1: duplicate arc"),
        # every duplicate is reported, in arc order
        ((Arc("t1", "P1", Multiset(["x"])),) * 2 + (Arc("P1", "t1", Multiset(["x"])),) * 2,
         "arc t1->P1: duplicate arc; arc P1->t1: duplicate arc"),
        # arcs an analysis once gave a meaning of its own: a sink, none, a
        # color added to the net, a token needed but none called
        ((Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P9", Multiset(["x"]))),
         "arc t1->P9: unknown target 'P9'"),
        ((Arc("P1", "t1", Multiset(["x"])), Arc("P1", "P2", Multiset(["x"])),
          Arc("t1", "t1", Multiset(["x"]))),
         "arc P1->P2: endpoints must pair one place with one transition; "
         "arc t1->t1: endpoints must pair one place with one transition"),
        ((Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P2", Multiset(["q"]))),
         "arc t1->P2: weight uses undeclared color 'q'"),
        ((Arc("P1", "t1", Multiset()), Arc("t1", "P2", Multiset(["x"]))),
         "arc P1->t1: weight expression is empty"),
    ], ids=["inputs-differ", "outputs-equal", "inputs-one-weight", "arc-order",
            "sink", "dropped", "undeclared-color", "empty-weight"])
    def test_malformed_arc_is_a_value_error_in_use(self, arcs, message):
        # analyses of an unvalidated net report what validate_net reports
        net = Net("arcs", ("x", "y"), (Place("P1", 1), Place("P2", -1)), (Transition("t1"),), arcs,
                  Marking({"P1": ["x", "y"]}))
        assert "; ".join(validate_net(net)) == message
        m = net.initial_marking
        for use in (lambda: net.compiled, lambda: incidence_matrix(net), lambda: fire(net, m, "t1", {}),
                    lambda: enabled_set(net, m, {}), lambda: reachability_graph(net, m, {}, 2, 10),
                    lambda: check_reachability_condition(net, m, m, 1)):
            with pytest.raises(ValueError) as exc:
                use()
            assert str(exc.value) == message

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

    @pytest.mark.parametrize("guard", [NumLit(1.0), Comparison("~", VarRef("a"), NumLit(1.0))],
                             ids=["number", "operator"])
    def test_malformed_guard_is_a_value_error_in_use(self, guard):
        # a hand-built tree that is not a guard is refused when the net is
        # compiled, also by analyses that never evaluate a guard, with the
        # ValueError every other malformed net gets; validate_net does not
        # walk guards, and a duplicate arc is still reported before it
        net = Net("bad_guard", ("x",), (Place("P1", 1),), (Transition("t0"), Transition("t1", guard)),
                  (Arc("P1", "t1", Multiset(["x"])), Arc("t1", "P1", Multiset(["x"]))),
                  Marking({"P1": ["x"]}))
        assert validate_net(net) == []
        m = net.initial_marking
        for use in (lambda: incidence_matrix(net), lambda: check_reachability_condition(net, m, m, 1),
                    lambda: reachability_graph(net, m, {}, 2, 10)):
            with pytest.raises(ValueError) as exc:
                use()
            assert str(exc.value) == f"transition 't1': not a guard expression: {guard!r}"
        dup = replace_net(net, arcs=net.arcs + net.arcs[:1])
        with pytest.raises(ValueError, match="^arc P1->t1: duplicate arc$"):
            incidence_matrix(dup)

    def test_loaded_net_is_walked_once(self, monkeypatch):
        # load_net validates the net; its first analysis reads that result
        # instead of walking the net again
        net = models.load("debris_disposal")  # load_net, and a net of its own
        walks = []
        monkeypatch.setattr(model.Net.violations, "func", lambda net: walks.append(net) or ())
        incidence_matrix(net)
        assert walks == []
        assert validate_net(net) == [] and validate_net(net) is not validate_net(net)
        assert validate_net(replace_net(net)) == [] and len(walks) == 1  # a new net is walked

    @given(net=nets())
    def test_generated_nets_valid(self, net):
        assert validate_net(net) == []

    @given(net=damaged_nets())
    def test_analyses_share_one_definition_of_well_formed(self, net):
        # every analysis refuses exactly the nets validate_net rejects, with its text
        message = "; ".join(validate_net(net))
        m = net.initial_marking
        for use in (lambda: net.compiled, lambda: incidence_matrix(net), lambda: enabled_set(net, m, {}),
                    lambda: reachability_graph(net, m, {}, 2, 20)):
            if message:
                with pytest.raises(ValueError) as exc:
                    use()
                assert str(exc.value) == message
            else:
                use()


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
