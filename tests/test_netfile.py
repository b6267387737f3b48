import pytest

from orbitpn import (
    Marking,
    Multiset,
    NetFileError,
    load_net,
    parse_guard,
    parse_marking_spec,
    parse_net,
    validate_net,
)
from orbitpn import models
import reference

MINIMAL = """
[net]
name = demo

[colors]
a, b

[places]
P1 +
P2 -

[transitions]
t1
t2 : a_limit > 0

[arcs]
P1 -> t1 : a
t1 -> P2 : a

[marking]
P1 = a
"""


class TestParseNet:
    def test_minimal(self):
        net = parse_net(MINIMAL)
        assert net.name == "demo"
        assert net.colors == ("a", "b")
        assert net.order == 2
        assert net.places[0].rotation == 1 and net.places[1].rotation == -1
        assert net.transition_ids == ("t1", "t2")
        assert net.transitions[1].guard == parse_guard("a_limit > 0")
        assert net.initial_marking == Marking({"P1": ["a"]})
        assert validate_net(net) == []

    def test_sections_in_any_order(self):
        reordered = "\n".join(
            [
                "[marking]", "P1 = a",
                "[arcs]", "P1 -> t1 : a", "t1 -> P2 : a",
                "[transitions]", "t1", "t2 : a_limit > 0",
                "[places]", "P1 +", "P2 -",
                "[colors]", "a, b",
                "[net]", "name = demo",
            ]
        )
        assert parse_net(reordered) == parse_net(MINIMAL)

    def test_comments_and_blank_lines(self):
        text = MINIMAL.replace("P1 -> t1 : a", "P1 -> t1 : a   # calls the a token")
        assert parse_net("# header comment\n" + text) == parse_net(MINIMAL)

    def test_missing_sections_mean_empty(self):
        net = parse_net("[places]\nP1 +\n", default_name="stub")
        assert net.name == "stub"
        assert net.colors == ()
        assert net.transitions == ()
        assert validate_net(net) == []

    def test_unknown_section(self):
        with pytest.raises(NetFileError) as exc:
            parse_net("[weird]\n")
        assert exc.value.line == 1

    def test_content_before_section(self):
        with pytest.raises(NetFileError) as exc:
            parse_net("x, y\n[colors]\n")
        assert exc.value.line == 1

    def test_bad_rotation(self):
        with pytest.raises(NetFileError) as exc:
            parse_net("[places]\nP1 *\n")
        assert exc.value.line == 2

    def test_weight_error_located(self):
        text = "[colors]\na\n[places]\nP1 +\n[transitions]\nt1\n[arcs]\nP1 -> t1 : zz\n"
        with pytest.raises(NetFileError) as exc:
            parse_net(text)
        assert exc.value.line == 8
        assert "zz" in str(exc.value)

    def test_guard_error_located(self):
        text = "[transitions]\nt1 : clock >\n"
        with pytest.raises(NetFileError) as exc:
            parse_net(text)
        assert exc.value.line == 2

    def test_duplicate_marking_line(self):
        text = "[colors]\na\n[places]\nP1 +\n[marking]\nP1 = a\nP1 = a\n"
        with pytest.raises(NetFileError) as exc:
            parse_net(text)
        assert exc.value.line == 7

    @pytest.mark.parametrize("text, message", [
        ("[net]\nname =\n", "line 2: net name is empty"),
        ("[transitions]\nt1 t2\n", "line 2: expected '<transition id> [: guard]', got 't1 t2'"),
        ("[transitions]\n: a > 1\n", "line 2: expected '<transition id> [: guard]', got ': a > 1'"),
    ], ids=["empty-name", "two-ids", "no-id"])
    def test_line_error_text(self, text, message):
        with pytest.raises(NetFileError) as exc:
            parse_net(text)
        assert str(exc.value) == message


SHARED = """
[colors]
a, b

[places]
P1 +
P2 -
P3 +

[transitions]
t1 : clock - T1 <= eps and not hold == 1
t2 : clock - T1 <= eps and not hold == 1
t3 : clock - T1 <= eps and not hold == 1   # the same text before a comment
t4 : clock  -  T1 <= eps and not hold == 1
t5

[arcs]
P1 -> t1 : 2a+b
t1 -> P2 : 2a+b
P2 -> t2 : 2a+b
t2 -> P3 : a
P3 -> t3 : a
t3 -> P1 : a
P1 -> t4 : b
t4 -> P1 : b

[marking]
P1 = 2a+b
P3 = a
"""


class TestRepeatedTexts:
    """A guard or weight text repeated in a file is parsed once and shared."""

    def test_shared_values_equal_fresh_parses(self):
        net = parse_net(SHARED)
        texts = [line.split(":", 1)[1].split("#")[0].strip()
                 for line in SHARED.splitlines() if line.startswith("t") and ":" in line
                 and "->" not in line]
        guarded = [t for t in net.transitions if t.id != "t5"]
        assert [t.guard for t in guarded] == [parse_guard(text) for text in texts]
        assert guarded[0].guard is guarded[1].guard is guarded[2].guard
        assert guarded[3].guard is not guarded[0].guard  # another text, parsed again
        weights = {arc.weight for arc in net.arcs}
        assert weights == {Multiset({"a": 2, "b": 1}), Multiset({"a": 1}), Multiset({"b": 1})}
        assert net.arcs[0].weight is net.arcs[1].weight is net.initial_marking["P1"]
        assert validate_net(net) == []

    def test_agrees_with_reference(self):
        assert parse_net(SHARED) == reference.parse_net(SHARED)

    def test_error_on_repeated_text_located(self):
        # the first line with the bad text is the one reported
        text = SHARED.replace("P2 -> t2 : 2a+b", "P2 -> t2 : 2a+c").replace(
            "P3 -> t3 : a", "P3 -> t3 : 2a+c")
        with pytest.raises(NetFileError) as exc:
            parse_net(text)
        assert exc.value.line == 20
        assert str(exc.value) == str(pytest.raises(NetFileError, reference.parse_net, text).value)


class TestLoadNet:
    def test_bundled_files_load(self, tmp_path):
        for name in models.NAMES:
            net = load_net(models.model_path(name))
            assert net.name == name
            assert validate_net(net) == []

    def test_arc_to_undeclared_place_reported(self, tmp_path):
        bad = tmp_path / "bad.opn"
        bad.write_text("[colors]\na\n[places]\nP1 +\n[transitions]\nt1\n[arcs]\nP9 -> t1 : a\n")
        with pytest.raises(NetFileError) as exc:
            load_net(bad)
        assert any("P9" in v for v in exc.value.violations)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_net(tmp_path / "absent.opn")

    def test_default_name_is_stem(self, tmp_path):
        f = tmp_path / "my_model.opn"
        f.write_text("[places]\nP1 +\n")
        assert load_net(f).name == "my_model"


class TestParseMarkingSpec:
    def test_two_places(self, classes_net):
        m = parse_marking_spec("P5 = A+C; P6 = B+D", classes_net.colors, classes_net.place_ids)
        assert m == Marking({"P5": ["A", "C"], "P6": ["B", "D"]})

    def test_empty_spec_is_empty_marking(self, classes_net):
        assert parse_marking_spec("", classes_net.colors, classes_net.place_ids) == Marking()

    def test_unknown_place(self, classes_net):
        with pytest.raises(NetFileError):
            parse_marking_spec("P9 = A", classes_net.colors, classes_net.place_ids)

    @pytest.mark.parametrize("text, message", [
        ("P5", "expected '<place> = <tokens>', got 'P5'"),
        (" = A", "expected '<place> = <tokens>', got '= A'"),
        ("P5 = A; P5 = C", "place 'P5' assigned twice in marking spec"),
        ("P5 = A+Z", "tokens of 'P5': unknown color 'Z'"),
    ], ids=["no-equals", "no-place", "twice", "bad-tokens"])
    def test_error_text(self, classes_net, text, message):
        with pytest.raises(NetFileError) as exc:
            parse_marking_spec(text, classes_net.colors, classes_net.place_ids)
        assert str(exc.value) == message
        assert exc.value.line is None

    def test_multiplicity(self, classes_net):
        m = parse_marking_spec("P5 = 2A", classes_net.colors, classes_net.place_ids)
        assert m["P5"] == Multiset({"A": 2})
