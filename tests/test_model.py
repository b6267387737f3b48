import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    Arc,
    Marking,
    Multiset,
    Net,
    Place,
    Transition,
    fire,
    incidence_matrix,
    marking_from_vector,
    marking_vector,
    validate_net,
)
from strategies import nets


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
        assert a.total_tokens() == 3

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


class TestMarkingVector:
    def test_classifier_initial_vector(self, classes_net):
        vec = marking_vector(classes_net, classes_net.initial_marking)
        assert vec == [
            Multiset(["A"]), Multiset(["B"]), Multiset(["C"]), Multiset(["D"]),
            Multiset(), Multiset(),
        ]

    def test_empty_marking(self, classes_net):
        assert marking_vector(classes_net, Marking()) == [Multiset()] * 6

    def test_debris_initial_vector(self, debris_net):
        vec = marking_vector(debris_net, debris_net.initial_marking)
        assert vec == [Multiset(["S"]), Multiset(["D"]), Multiset(), Multiset()]

    def test_unknown_place_rejected(self, classes_net):
        with pytest.raises(KeyError):
            marking_vector(classes_net, Marking({"nope": ["A"]}))

    def test_token_count_preserved(self, debris_net):
        m = debris_net.initial_marking
        assert sum(ms.total() for ms in marking_vector(debris_net, m)) == m.total_tokens()

    @given(net=nets())
    def test_round_trip_bijection(self, net):
        m = net.initial_marking
        assert marking_from_vector(net, marking_vector(net, m)) == m

    def test_from_vector_length_checked(self, classes_net):
        with pytest.raises(ValueError):
            marking_from_vector(classes_net, [Multiset()])


class TestDeclarationOrderCanonical:
    @given(net=nets(), data=st.data())
    def test_arc_order_is_immaterial(self, net, data):
        shuffled = tuple(data.draw(st.permutations(net.arcs)))
        reordered = Net(net.name, net.colors, net.places, net.transitions,
                        shuffled, net.initial_marking)
        assert validate_net(reordered) == validate_net(net)
        assert incidence_matrix(reordered) == incidence_matrix(net)
        for t in net.transition_ids:
            assert net.inputs[t] == reordered.inputs[t]
            assert net.outputs[t] == reordered.outputs[t]

    def test_fire_unaffected_by_arc_order(self, satsat_net, satsat_envs):
        reordered = Net(
            satsat_net.name, satsat_net.colors, satsat_net.places,
            satsat_net.transitions, tuple(reversed(satsat_net.arcs)),
            satsat_net.initial_marking,
        )
        m1 = fire(satsat_net, satsat_net.initial_marking, "t1", satsat_envs[0])
        m2 = fire(reordered, reordered.initial_marking, "t1", satsat_envs[0])
        assert m1 == m2
