"""Parser fuzz: arbitrary text and mutated bundled net files raise only the
parsers' own errors (`NetFileError`, `ParseError`), which `opn` turns into
exit code 2."""

import re
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from orbitpn import expr, models, netfile

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
