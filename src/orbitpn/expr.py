"""Parsers, renderers, and evaluation for the two textual languages on nets.

Weight expressions label arcs and marking entries with positive formal sums of
colors::

    weight = term , { "+" , term } ;
    term   = [ integer ] , identifier ;          (* integer >= 1, default 1 *)

Guard expressions gate transitions on external scalar variables::

    guard      = or-expr ;
    or-expr    = and-expr , { ("or" | "||") , and-expr } ;
    and-expr   = not-expr , { ("and" | "&&") , not-expr } ;
    not-expr   = ("not" | "!") , not-expr | atom ;
    atom       = "true" | "(" , guard , ")" | comparison ;
    comparison = sum , ("<" | "<=" | ">" | ">=" | "==" | "!=") , sum ;
    sum        = operand , { ("+" | "-") , operand } ;
    operand    = number | identifier ;

Both grammars ignore whitespace between tokens and are case-sensitive.
Signed sums like "y-x" are never parsed; they arise only as incidence-matrix
entries computed by the algebra layer.
"""

from __future__ import annotations

import math
import re
from types import CodeType, FunctionType
from typing import Callable, Collection, Mapping, Union
from weakref import WeakValueDictionary

from .multiset import Multiset, Record


class ParseError(ValueError):
    """Malformed expression text; `position` is a character offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class UnboundVariableError(LookupError):
    """A guard referenced a variable the environment does not bind."""

    def __init__(self, name: str):
        super().__init__(f"unbound environment variable {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# guard AST

class NumLit(Record):
    __slots__ = __match_args__ = ("value",)


class VarRef(Record):
    __slots__ = __match_args__ = ("name",)


class Arith(Record):
    """Binary '+'/'-' over numeric operands (left-associative)."""
    __slots__ = __match_args__ = ("op", "lhs", "rhs")


NumExpr = Union[NumLit, VarRef, Arith]


class TrueLiteral(Record):
    __slots__ = ()


class Comparison(Record):
    __slots__ = __match_args__ = ("op", "lhs", "rhs")


class NotExpr(Record):
    __slots__ = __match_args__ = ("operand",)


class AndExpr(Record):
    __slots__ = __match_args__ = ("lhs", "rhs")


class OrExpr(Record):
    __slots__ = __match_args__ = ("lhs", "rhs")


GuardExpr = Union[TrueLiteral, Comparison, NotExpr, AndExpr, OrExpr]

TRUE = TrueLiteral()

#: Most parenthesis groups nested in one another, and most operator levels in a
#: guard tree; compiling and rendering recurse once per level.
MAX_GUARD_DEPTH = 100
_TOO_DEEP = f"guard nested more than {MAX_GUARD_DEPTH} levels deep"

_KEYWORDS = {"true", "and", "or", "not"}

# the only operator texts that reach a compiled guard's source; another one
# is a KeyError
_COMPARE = {op: op for op in ("<", "<=", ">", ">=", "==", "!=")}

_GUARD_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[<>!+\-()])
    """,
    re.VERBOSE,
)

# weight coefficients are plain integers; scientific notation must NOT apply,
# or a color named E would make "2E+2F" tokenize as the number 2e+2
_WEIGHT_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<number>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[+\-])"
)


def _tokenize(text: str, token_re: re.Pattern = _GUARD_TOKEN_RE) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# weight expressions

def parse_weight_expr(text: str, colors: Collection[str]) -> Multiset:
    """Parse "2x+y" into a multiset; every identifier must be a declared color.

    Repeated identifiers accumulate ("2x+x" -> {x: 3}); a zero coefficient,
    an unknown color, or anything but '+' between terms is a ParseError.
    """
    tokens = _tokenize(text, _WEIGHT_TOKEN_RE)
    if not tokens:
        raise ParseError("empty weight expression", 0)
    counts: dict[str, int] = {}
    i = 0
    while True:
        coeff = 1
        if i < len(tokens) and tokens[i][0] == "number":
            kind, value, pos = tokens[i]
            try:
                coeff = int(value)
            except ValueError:  # more digits than `int` converts from text
                raise ParseError(f"coefficient has {len(value)} digits", pos) from None
            if coeff < 1:
                raise ParseError("coefficient must be >= 1", pos)
            i += 1
        if i >= len(tokens):
            raise ParseError("expected color name", tokens[-1][2] + len(tokens[-1][1]))
        kind, name, pos = tokens[i]
        if kind != "ident":
            raise ParseError(f"expected color name, got {name!r}", pos)
        if name not in colors:
            raise ParseError(f"unknown color {name!r}", pos)
        counts[name] = counts.get(name, 0) + coeff
        i += 1
        if i == len(tokens):
            break
        kind, text_, pos = tokens[i]
        if text_ != "+":
            raise ParseError(f"expected '+', got {text_!r}", pos)
        i += 1
    return Multiset(counts)


def render_weight_expr(w: Multiset) -> str:
    """Canonical text: terms sorted by color, coefficient 1 omitted ("A+C", "3x")."""
    if not w:
        raise ValueError("empty multiset has no weight-expression form")
    return str(w)


# ---------------------------------------------------------------------------
# guard parsing

class _GuardParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.groups = 0
        self.heights: dict[int, int] = {}  # node id -> height; built nodes stay alive

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek()[2])

    def node(self, cls, *parts):
        """Build one tree node; leaves and operator strings count as height 0."""
        height = 1 + max(self.heights.get(id(part), 0) for part in parts)
        if height > MAX_GUARD_DEPTH:
            raise self.error(_TOO_DEEP)
        built = cls(*parts)
        self.heights[id(built)] = height
        return built

    def parse(self) -> GuardExpr:
        if not self.tokens:
            raise ParseError("empty guard expression", 0)
        g = self.or_expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return g

    def or_expr(self) -> GuardExpr:
        g = self.and_expr()
        while self.peek()[1] in ("or", "||"):
            self.advance()
            g = self.node(OrExpr, g, self.and_expr())
        return g

    def and_expr(self) -> GuardExpr:
        g = self.not_expr()
        while self.peek()[1] in ("and", "&&"):
            self.advance()
            g = self.node(AndExpr, g, self.not_expr())
        return g

    def not_expr(self) -> GuardExpr:
        negations = 0
        while self.peek()[1] in ("not", "!"):
            self.advance()
            negations += 1
        g = self.atom()
        for _ in range(negations):
            g = self.node(NotExpr, g)
        return g

    def atom(self) -> GuardExpr:
        kind, text, pos = self.peek()
        if kind is None:
            raise self.error("unexpected end of guard")
        if text == "true":
            self.advance()
            return TRUE
        if text == "(":
            self.advance()
            self.groups += 1
            if self.groups > MAX_GUARD_DEPTH:
                raise self.error(_TOO_DEEP)
            g = self.or_expr()
            kind, text, pos = self.peek()
            if text != ")":
                raise self.error("expected ')'")
            self.advance()
            self.groups -= 1
            return g
        return self.comparison()

    def comparison(self) -> Comparison:
        lhs = self.sum_expr()
        kind, text, pos = self.peek()
        if text not in _COMPARE:
            raise self.error("expected comparison operator")
        self.advance()
        rhs = self.sum_expr()
        return self.node(Comparison, text, lhs, rhs)

    def sum_expr(self) -> NumExpr:
        e = self.operand()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            e = self.node(Arith, op, e, self.operand())
        return e

    def operand(self) -> NumExpr:
        kind, text, pos = self.advance()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is not finite", pos)
            return NumLit(value)
        if kind == "ident":
            if text in _KEYWORDS:
                raise ParseError(f"{text!r} is a reserved word", pos)
            return VarRef(text)
        raise ParseError(f"expected number or variable, got {text!r}", pos)


def parse_guard(text: str) -> GuardExpr:
    """Parse a boolean guard; precedence not > comparison > and > or."""
    return _GuardParser(text).parse()


# ---------------------------------------------------------------------------
# guard rendering

def _render_num(e: NumExpr) -> str:
    if isinstance(e, NumLit):
        v = e.value
        return str(int(v)) if v == int(v) else repr(v)
    if isinstance(e, VarRef):
        return e.name
    # numeric grouping is not in the grammar, so only left-nested trees render
    if isinstance(e.rhs, Arith):
        raise ValueError("right-nested arithmetic has no textual form")
    return f"{_render_num(e.lhs)} {e.op} {_render_num(e.rhs)}"


_LEVEL = {OrExpr: 1, AndExpr: 2, NotExpr: 3, Comparison: 4, TrueLiteral: 4}


def render_guard(g: GuardExpr) -> str:
    """Canonical text with minimal parentheses; parse(render(g)) == g."""

    def walk(node: GuardExpr, floor: int) -> str:
        level = _LEVEL[type(node)]
        if isinstance(node, TrueLiteral):
            text = "true"
        elif isinstance(node, Comparison):
            text = f"{_render_num(node.lhs)} {node.op} {_render_num(node.rhs)}"
        elif isinstance(node, NotExpr):
            text = f"not {walk(node.operand, 3)}"
        elif isinstance(node, AndExpr):
            text = f"{walk(node.lhs, 2)} and {walk(node.rhs, 3)}"
        else:
            text = f"{walk(node.lhs, 1)} or {walk(node.rhs, 2)}"
        return f"({text})" if level < floor else text

    return walk(g, 1)


# ---------------------------------------------------------------------------
# evaluation

def eval_guard(g: GuardExpr, env: Mapping[str, float]) -> bool:
    """Evaluate a guard, compiled anew, on variable bindings; unbound names are an error."""
    return compile_guard(g)(env)


def compile_guard(g: GuardExpr) -> Callable[[Mapping[str, float]], bool]:
    """`g` as one Python function of an environment.

    The function first reads each variable once, in the order a left-to-right
    walk of the tree first reaches it, so an unbound variable raises
    `UnboundVariableError` even where the other side of an ``and``/``or``
    already decides the result, and a value ``float()`` rejects raises its
    error.  Then it computes the expression as one assignment per tree node,
    which keeps the source flat however deep the guard is; the expression
    reads no environment and, over numbers, cannot raise, so no short-circuit
    is needed.  Variable names and numbers are passed in as tuples and
    indexed, never written into the source.
    """
    names: list[str] = []
    numbers: list[float] = []
    body: list[str] = []

    def num(e: NumExpr) -> str:
        if isinstance(e, NumLit):
            numbers.append(e.value)
            return f"_c[{len(numbers) - 1}]"
        if isinstance(e, VarRef):
            if e.name not in names:
                names.append(e.name)
            return f"v{names.index(e.name)}"
        lhs, rhs = num(e.lhs), num(e.rhs)
        return node(f"{lhs} {'+' if e.op == '+' else '-'} {rhs}")

    def node(expression: str) -> str:
        body.append(f"    x{len(body)} = {expression}")
        return f"x{len(body) - 1}"

    def guard(e: GuardExpr) -> str:
        if isinstance(e, TrueLiteral):
            return "True"
        if isinstance(e, Comparison):
            lhs, rhs = num(e.lhs), num(e.rhs)
            return node(f"{lhs} {_COMPARE[e.op]} {rhs}")
        if isinstance(e, NotExpr):
            return node(f"not {guard(e.operand)}")
        if isinstance(e, (AndExpr, OrExpr)):
            lhs, rhs = guard(e.lhs), guard(e.rhs)
            return node(f"{lhs} {'and' if isinstance(e, AndExpr) else 'or'} {rhs}")
        raise TypeError(f"not a guard expression: {e!r}")

    result = guard(g)
    reads = [f"    try:\n        v{i} = float(env[_n[{i}]])\n"
             f"    except KeyError:\n        raise _unbound(_n[{i}]) from None"
             for i in range(len(names))]
    source = "\n".join(["def guard(env, _n, _c, _unbound):", *reads, *body,
                        f"    return {result}"])
    code = _guard_code.get(source)
    if code is None:
        scope: dict = {}
        exec(compile(source, "<guard>", "exec"), scope)
        code = _guard_code[source] = scope["guard"].__code__
    return FunctionType(code, globals(), "guard",
                        (tuple(names), tuple(numbers), UnboundVariableError))


# Guards of one shape (say, a net's per-place guards that differ only in their
# numbers) have the same source, so their functions share one code object,
# kept while some function uses it.
_guard_code: "WeakValueDictionary[str, CodeType]" = WeakValueDictionary()
