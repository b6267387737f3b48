"""Parser fuzz: arbitrary text and mutated bundled net files raise only the
parsers' own errors (`NetFileError`, `ParseError`), which `opn` turns into
exit code 2, and the parsers agree with their earlier form in
`tests/reference.py`; and every `opn` subcommand, run on a bundled or
mutated file with junk flags, exits 0, 1 or 2 and raises nothing else."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitpn import cli, expr, models, netfile, render_guard
import reference
from strategies import guards

BUNDLED = tuple(Path(models.model_path(name)).read_text(encoding="utf-8") for name in models.NAMES)

# the guard, weight and marking texts of the bundled files: what follows
# the first ':' of a transition or arc line, or the '=' of a marking line
EXPRESSIONS = tuple(sorted({m.group(1).strip() for text in BUNDLED
                            for m in re.finditer(r"^[^#:=\n]*[:=]([^#\n]+)", text, re.M)}))

# pieces that the grammars give a meaning to
PIECES = ("", " ", "\n", "#", "[", "]", "[arcs]", "[marking]", "[transitions]", "=", ":",
          "->", "+", "-", ",", "(", ")", "0", "2", "1e999", "9" * 5000, ".", "and", "or",
          "not", "true", "!", "&&", "<=", "==", "x", "P1", "t1", "٣", "\t")


@st.composite
def mutated(draw, texts):
    """One of `texts` with a few spans replaced by grammar pieces or any text."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(st.sampled_from(PIECES) | st.text(max_size=6)) + text[j:]
    return text


@given(text=st.text() | mutated(BUNDLED))
@example(text="[colors]\nx\n[marking]\nP1 = " + "1" * 5000 + "x\n")
def test_parse_net_raises_only_net_file_errors(text):
    try:
        netfile.parse_net(text)
    except netfile.NetFileError:
        pass


@given(text=st.text() | mutated(EXPRESSIONS))
@example(text="(" * 200 + "true" + ")" * 200)
def test_parse_guard_raises_only_parse_errors(text):
    try:
        expr.parse_guard(text)
    except expr.ParseError:
        pass


@given(text=st.text() | mutated(EXPRESSIONS),
       colors=st.sampled_from((("x", "y"), ("A", "B", "C", "D"), ("S", "D"))))
@example(text="1" * 5000 + "x", colors=("x",))
def test_parse_weight_expr_raises_only_parse_errors(text, colors):
    try:
        expr.parse_weight_expr(text, colors)
    except expr.ParseError:
        pass


def outcome(parse, *args):
    """What `parse` returns, or the type, message and place of the error it raises."""
    try:
        return parse(*args)
    except expr.ParseError as err:
        return type(err), err.message, err.position
    except netfile.NetFileError as err:
        return type(err), str(err), err.line


# guards at and just over the nesting bound, counted by parentheses, by tree
# height, and by both at once
_DEEP = [*(text for k in (100, 101) for text in (
    "(" * k + "a > 1" + ")" * k, "not " * k + "a > 1", "! " * (k - 1) + "a > 1",
    " and ".join(["a > 1"] * (k + 1)), " || ".join(["a > 1"] * k),
    " + ".join(["a"] * k) + " > 1", "a > " + " - ".join(["1"] * k),
    "(" * (k - 1) + "not " * (k - 1) + "a > 1" + ")" * (k - 1),
    "(" * (k - 1) + " and ".join(["a > 1"] * k) + ")" * (k - 1),
)), "(" * 200 + "true" + ")" * 200]


@given(text=st.text() | mutated(BUNDLED))
@example(text="[colors]\nx\n[marking]\nP1 = " + "1" * 5000 + "x\n")
@example(text=BUNDLED[0] + "\n[transitions]\nt9 : " + "not " * 100 + "a > 1\n")
@example(text="[colors]\na\n[arcs]\nP1 ->  : a\nt1 -> P1 : a\n")
def test_parse_net_agrees_with_reference(text):
    assert outcome(netfile.parse_net, text) == outcome(reference.parse_net, text)


@settings(max_examples=200)
@given(text=st.text() | mutated(EXPRESSIONS) | guards.map(render_guard) | st.sampled_from(_DEEP))
@example(text="a < .5 and b >= 1. or c == 2e-3 + .7E+2")
def test_parse_guard_agrees_with_reference(text):
    assert outcome(expr.parse_guard, text) == outcome(reference.parse_guard, text)


@given(text=st.text() | mutated(EXPRESSIONS),
       colors=st.sampled_from((("x", "y"), ("A", "B", "C", "D"), ("S", "D"))))
@example(text="1" * 5000 + "x", colors=("x",))
@example(text="x + 2  ", colors=("x",))
def test_parse_weight_expr_agrees_with_reference(text, colors):
    assert (outcome(expr.parse_weight_expr, text, colors)
            == outcome(reference.parse_weight_expr, text, colors))


# each subcommand with small fixed bounds: the witness search is exponential
# in --bound, the BFS is capped by --max-states
ENV = ["--env", "collision_prob=0.5,clock=5,T1=5,eps=1"]
COMMANDS = (
    ["validate"],
    ["fire", "--seq", "t1", *ENV],
    ["simulate", "--steps", "3", *ENV],
    ["incidence"],
    ["reach", "--target", "P1=x", "--bound", "3", "--confirm", "--max-states", "50", *ENV],
)

# flags that some subcommands take and some refuse, with good and bad values
JUNK = (
    ["--env", "x"], ["--env", "p=inf"], ["--env-at", "1:clock=5"], ["--env-at", "9:clock=5"],
    ["--mode", "exact"], ["--mode", "loose"], ["--bound", "-1"], ["--max-states", "0"],
    ["--steps", "-1"], ["--seq", "t9"], ["--seq", "t2,t1"], ["--seq", ","],
    ["--target", "P1=S"], ["--target", "P5=A+C; P6=B+D"], ["--target", "P1=q"],
    ["--target", "P1="], ["--format", "json"], ["--policy", "single"], ["--expect"],
    ["--nope"], ["extra"],
)


@pytest.fixture(scope="module")
def net_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "net.opn"


@settings(deadline=None)
@given(text=st.sampled_from(BUNDLED) | mutated(BUNDLED), command=st.sampled_from(COMMANDS),
       junk=st.lists(st.sampled_from(JUNK), max_size=3))
def test_cli_exits_0_1_or_2(net_path, text, command, junk):
    net_path.write_text(text, encoding="utf-8")
    argv = [command[0], str(net_path), *command[1:], *(arg for flag in junk for arg in flag)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2)
