import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (
    AndExpr,
    Arith,
    Comparison,
    Multiset,
    NumLit,
    OrExpr,
    ParseError,
    TRUE,
    UnboundVariableError,
    VarRef,
    eval_guard,
    parse_guard,
    parse_weight_expr,
    render_guard,
    render_weight_expr,
)
from orbitpn.expr import MAX_GUARD_DEPTH, compile_guard
import reference
from reference import guard_variables
from strategies import color_lists, guards, identifiers, multisets_over

COLORS = ("A", "B", "C", "D", "x", "y", "S")


class TestParseWeightExpr:
    def test_two_terms(self):
        assert parse_weight_expr("A+C", COLORS) == Multiset({"A": 1, "C": 1})

    def test_single(self):
        assert parse_weight_expr("x", COLORS) == Multiset({"x": 1})

    def test_repeated_identifiers_sum(self):
        assert parse_weight_expr("2x+x", COLORS) == Multiset({"x": 3})

    def test_whitespace_insensitive(self):
        assert parse_weight_expr(" 2 x + y ", ("x", "y")) == Multiset({"x": 2, "y": 1})

    def test_subtraction_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_weight_expr("x-y", COLORS)
        assert exc.value.position == 1

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_weight_expr("", COLORS)
        with pytest.raises(ParseError):
            parse_weight_expr("   ", COLORS)

    def test_unknown_color(self):
        with pytest.raises(ParseError) as exc:
            parse_weight_expr("A+z", COLORS)
        assert "z" in str(exc.value)
        assert exc.value.position == 2

    def test_zero_coefficient(self):
        with pytest.raises(ParseError):
            parse_weight_expr("0x", COLORS)

    def test_fractional_coefficient(self):
        with pytest.raises(ParseError):
            parse_weight_expr("2.5x", COLORS)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_weight_expr("x y", COLORS)

    def test_operator_where_a_color_belongs(self):
        for text, name, offset in (("x + +", "+", 4), ("x+ -", "-", 3)):
            with pytest.raises(ParseError) as exc:
                parse_weight_expr(text, COLORS)
            assert (exc.value.message, exc.value.position) == (f"expected color name, got {name!r}", offset)

    def test_coefficient_too_long_for_int(self):
        # `int` refuses to convert more than 4300 digits from text
        with pytest.raises(ParseError, match="coefficient has 5000 digits") as exc:
            parse_weight_expr("1" * 5000 + "x", COLORS)
        assert exc.value.position == 0

    def test_digits_are_ascii(self):
        # '٣' is ARABIC-INDIC DIGIT THREE: no coefficient, and no part of a name
        for text, offset in (("٣x", 0), ("x+٣x", 2), ("x+2٣x", 3)):
            with pytest.raises(ParseError, match="unexpected character '٣'") as exc:
                parse_weight_expr(text, COLORS)
            assert exc.value.position == offset


class TestRenderWeightExpr:
    def test_sorted_terms(self):
        assert render_weight_expr(Multiset({"C": 1, "A": 1})) == "A+C"

    def test_coefficient_rendering(self):
        assert render_weight_expr(Multiset({"x": 3})) == "3x"
        assert render_weight_expr(Multiset({"y": 1})) == "y"

    def test_empty_invalid(self):
        with pytest.raises(ValueError):
            render_weight_expr(Multiset())


class TestParseGuard:
    def test_conjunction_of_comparisons(self):
        g = parse_guard("collision_prob > 0 and clock == T1")
        assert g == AndExpr(
            Comparison(">", VarRef("collision_prob"), NumLit(0.0)),
            Comparison("==", VarRef("clock"), VarRef("T1")),
        )

    def test_arithmetic_operand(self):
        g = parse_guard("clock - T1 <= eps")
        assert guard_variables(g) == {"clock", "T1", "eps"}

    def test_trailing_token(self):
        for text, token in (("a > 1 b", "b"), ("a > 1 )", ")")):
            with pytest.raises(ParseError) as exc:
                parse_guard(text)
            assert (exc.value.message, exc.value.position) == (f"unexpected trailing {token!r}", 6)

    def test_true_constant(self):
        assert parse_guard("true") == TRUE

    def test_symbol_aliases(self):
        assert parse_guard("a > 1 && b < 2") == parse_guard("a > 1 and b < 2")
        assert parse_guard("a > 1 || !(b < 2)") == parse_guard("a > 1 or not (b < 2)")

    def test_precedence_or_lower_than_and(self):
        g = parse_guard("a > 1 or b > 1 and c > 1")
        assert isinstance(g, OrExpr)
        assert isinstance(g.rhs, AndExpr)
        assert render_guard(g) == "a > 1 or b > 1 and c > 1"

    def test_parenthesized_boolean(self):
        g = parse_guard("(a > 1 or b > 1) and c > 1")
        assert eval_guard(g, {"a": 0, "b": 2, "c": 2}) is True
        assert eval_guard(g, {"a": 0, "b": 2, "c": 0}) is False

    def test_malformed(self):
        for bad in ("", "a >", "and a > 1", "a > 1 and", "(a > 1", "a # b", "1 +"):
            with pytest.raises(ParseError):
                parse_guard(bad)

    def test_error_position_at_or_before_offense(self):
        for text, offset in (("clock > $", 8), ("x < 1e999", 4)):
            with pytest.raises(ParseError) as exc:
                parse_guard(text)
            assert exc.value.position == offset

    def test_digits_are_ascii(self):
        for text, offset in (("a < ٣", 4), ("a < 1٣", 5), ("a < 1.٣", 6), ("a < 1e٣", 6),
                             ("a٣ < 1", 1)):
            with pytest.raises(ParseError) as exc:
                parse_guard(text)
            assert exc.value.position == offset

    def test_nesting_depth_bounded(self):
        n = MAX_GUARD_DEPTH
        nested = ["(" * k + "a > 1" + ")" * k for k in (n, n + 1, 1500)]
        negated = ["not " * (k - 1) + "a > 1" for k in (n, n + 1, 3001)]
        chained = [" and ".join(["a > 1"] * k) for k in (n, n + 1, 1500)]
        summed = [" + ".join(["a"] * k) + " > 1" for k in (n, n + 1, 1500)]
        for at_limit, over, far_over in (nested, negated, chained, summed):
            g = parse_guard(at_limit)
            assert parse_guard(render_guard(g)) == g
            assert eval_guard(g, {"a": 2}) in (True, False)
            assert compile_guard(g)({"a": 2}) is reference.eval_guard(g, {"a": 2})
            for text in (over, far_over):
                with pytest.raises(ParseError, match="nested more than"):
                    parse_guard(text)


class TestEvalGuard:
    def test_collision_positive(self):
        g = parse_guard("collision_prob > 0")
        assert eval_guard(g, {"collision_prob": 0.3}) is True

    def test_collision_boundary(self):
        g = parse_guard("collision_prob > 0")
        assert eval_guard(g, {"collision_prob": 0}) is False

    def test_timing_window(self):
        # 7 - 5 = 2 <= 3
        g = parse_guard("clock - T1 <= eps")
        assert eval_guard(g, {"clock": 7, "T1": 5, "eps": 3}) is True
        assert eval_guard(g, {"clock": 9, "T1": 5, "eps": 3}) is False

    def test_unbound_variable_named(self):
        g = parse_guard("clock == T1")
        with pytest.raises(UnboundVariableError) as exc:
            eval_guard(g, {"clock": 1})
        assert exc.value.name == "T1"

    def test_unbound_not_masked_by_short_circuit(self):
        g = parse_guard("a > 0 or b > 0")
        with pytest.raises(UnboundVariableError):
            eval_guard(g, {"a": 1})
        g = parse_guard("a > 1 and b > 0")
        with pytest.raises(UnboundVariableError):
            eval_guard(g, {"a": 0})

    def test_pure(self):
        g = parse_guard("a + b > 1")
        env = {"a": 1, "b": 1}
        assert all(eval_guard(g, env) for _ in range(5))


def evaluation(guard_fn, env):
    """A guard's value and its type, or the error it raises."""
    try:
        value = guard_fn(env)
    except UnboundVariableError as err:
        return UnboundVariableError, err.name
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return type(value), value


class TestCompileGuard:
    @given(g=guards, data=st.data())
    def test_agrees_with_eval_guard(self, g, data):
        # environments binding all, some or none of the variables, with any
        # float (nan and infinities included) or, now and then, a string
        names = sorted(guard_variables(g))
        keep = data.draw(st.sampled_from(("all", "some", "none")))
        bound = (names if keep == "all" else [] if keep == "none" or not names
                 else data.draw(st.lists(st.sampled_from(names), unique=True)))
        env = {name: data.draw(st.floats()) for name in bound}
        if bound and data.draw(st.integers(0, 3)) == 0:
            env[data.draw(st.sampled_from(bound))] = "zz"
        expected = evaluation(lambda e: reference.eval_guard(g, e), env)
        assert evaluation(compile_guard(g), env) == expected

    def test_non_finite_literals(self):
        inf, nan = NumLit(float("inf")), NumLit(float("nan"))
        for g, value in ((Comparison("<", VarRef("a"), inf), True),
                         (Comparison("==", nan, nan), False),
                         (Comparison("!=", VarRef("a"), nan), True)):
            assert compile_guard(g)({"a": 1.0}) is reference.eval_guard(g, {"a": 1.0}) is value

    def test_names_are_not_source_text(self):
        # a variable name or operator from a hand-built tree is data, never code
        g = Comparison("<", VarRef("a]; import os; x = _n[0"), NumLit(1.0))
        assert compile_guard(g)({"a]; import os; x = _n[0": 0.0}) is True
        with pytest.raises(KeyError):
            compile_guard(Comparison("; pass", VarRef("a"), NumLit(1.0)))

    def test_refuses_a_tree_that_is_not_a_guard(self):
        # hand-built trees: a number, or a variable under a connective
        for g, part in ((NumLit(1.0), "NumLit(value=1.0)"),
                        (AndExpr(TRUE, VarRef("a")), "VarRef(name='a')")):
            with pytest.raises(TypeError) as exc:
                compile_guard(g)
            assert str(exc.value) == f"not a guard expression: {part}"


class TestRoundTrip:
    @given(data=st.data())
    def test_weight_round_trip(self, data):
        colors = data.draw(color_lists)
        w = data.draw(multisets_over(colors, min_size=1, max_coeff=9))
        assert parse_weight_expr(render_weight_expr(w), colors) == w

    @given(g=guards)
    def test_guard_round_trip(self, g):
        assert parse_guard(render_guard(g)) == g

    @given(g=guards, data=st.data())
    def test_render_preserves_evaluation(self, g, data):
        env = {name: data.draw(st.floats(-100, 100)) for name in guard_variables(g)}
        assert eval_guard(parse_guard(render_guard(g)), env) == eval_guard(g, env)

    def test_right_nested_arithmetic_has_no_text(self):
        # the grammar groups no arithmetic, so a - (b - 1) cannot be written
        g = Comparison("<", NumLit(1.0), Arith("-", VarRef("a"), Arith("-", VarRef("b"), NumLit(1.0))))
        with pytest.raises(ValueError) as exc:
            render_guard(g)
        assert str(exc.value) == "right-nested arithmetic has no textual form"

    @given(g=guards)
    def test_error_positions_in_bounds(self, g):
        # corrupt the rendered text and check any error stays within bounds
        text = render_guard(g) + " @"
        with pytest.raises(ParseError) as exc:
            parse_guard(text)
        assert 0 <= exc.value.position <= len(text)
