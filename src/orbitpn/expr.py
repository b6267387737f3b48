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

#: A name in either language: a color, a place or transition id, a variable.
IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_KEYWORDS = {"true", "and", "or", "not"}

# the only operator texts that reach a compiled guard's source; another one,
# found among the values so that none is hashed, is a TypeError there
_COMPARE = {op: op for op in ("<", "<=", ">", ">=", "==", "!=")}

# Each match is one token after any whitespace: a number, a name, an
# operator or, alone, any other character, which `_tokenize` refuses unless
# the language has it as a token (`_GUARD_CHARS`, `_WEIGHT_CHARS`).
_GUARD_TOKEN_RE = re.compile(
    r"""\s*(
    (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?
  | [A-Za-z][A-Za-z0-9_]*
  | <=|>=|==|!=|&&|\|\||[<>!+\-()]
  | \S)""",
    re.VERBOSE,
)

# weight coefficients are plain integers; scientific notation must NOT apply,
# or a color named E would make "2E+2F" tokenize as the number 2e+2
_WEIGHT_TOKEN_RE = re.compile(r"\s*([0-9]+|[A-Za-z][A-Za-z0-9_]*|[+\-]|\S)")

_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_NUMBER_STARTS = _DIGITS | {"."}
# the one-character tokens of each language
_GUARD_CHARS = _DIGITS | _LETTERS | frozenset("<>!+-()")
_WEIGHT_CHARS = _DIGITS | _LETTERS | frozenset("+-")


def _tokenize(text: str, token_re: re.Pattern, chars: frozenset) -> list[str]:
    """The tokens of `text`; a character that starts none is a ParseError."""
    tokens = token_re.findall(text)
    for i, token in enumerate(tokens):
        if len(token) == 1 and token not in chars:
            raise ParseError(f"unexpected character {token!r}", _offset(text, i, token_re))
    return tokens


def _offset(text: str, i: int, token_re: re.Pattern) -> int:
    """Where the i-th token of `text` starts, or past the last token, where
    `text` ends; found afresh, since only an error needs it."""
    for k, m in enumerate(token_re.finditer(text)):
        if k == i:
            return m.start(1)
    return len(text)


# ---------------------------------------------------------------------------
# weight expressions

def parse_weight_expr(text: str, colors: Collection[str]) -> Multiset:
    """Parse "2x+y" into a multiset; every identifier must be a declared color.

    Repeated identifiers accumulate ("2x+x" -> {x: 3}); a zero coefficient,
    an unknown color, or anything but '+' between terms is a ParseError.
    """
    tokens = _tokenize(text, _WEIGHT_TOKEN_RE, _WEIGHT_CHARS)
    if not tokens:
        raise ParseError("empty weight expression", 0)

    def error(message: str, i: int) -> ParseError:
        """An error at the i-th token, or past the last one, where that one ends."""
        if i == len(tokens):
            return ParseError(message, _offset(text, i - 1, _WEIGHT_TOKEN_RE) + len(tokens[-1]))
        return ParseError(message, _offset(text, i, _WEIGHT_TOKEN_RE))

    counts: dict[str, int] = {}
    i = 0
    while True:
        coeff = 1
        if i < len(tokens) and tokens[i][0] in _DIGITS:
            try:
                coeff = int(tokens[i])
            except ValueError:  # more digits than `int` converts from text
                raise error(f"coefficient has {len(tokens[i])} digits", i) from None
            if coeff < 1:
                raise error("coefficient must be >= 1", i)
            i += 1
        if i == len(tokens):
            raise error("expected color name", i)
        name = tokens[i]
        if name[0] not in _LETTERS:
            raise error(f"expected color name, got {name!r}", i)
        if name not in colors:
            raise error(f"unknown color {name!r}", i)
        counts[name] = counts.get(name, 0) + coeff
        i += 1
        if i == len(tokens):
            break
        if tokens[i] != "+":
            raise error(f"expected '+', got {tokens[i]!r}", i)
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
    """Recursive descent over the tokens, which end in an empty sentinel token.

    The rules from `or_expr` down to `sum_expr` return their tree with its
    height: the operators on the longest path from its top down to an
    operand.  `MAX_GUARD_DEPTH` bounds both that height and the parenthesis
    groups open at once (`groups`).
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text, _GUARD_TOKEN_RE, _GUARD_CHARS)
        self.tokens.append("")
        self.i = 0
        self.groups = 0

    def error(self, message: str, i: int | None = None) -> ParseError:
        """An error at the i-th token, by default the next one."""
        return ParseError(message, _offset(self.text, self.i if i is None else i, _GUARD_TOKEN_RE))

    def up(self, lhs: int, rhs: int = 0) -> int:
        """The height of a node over subtrees this high; past the bound, an error."""
        height = (lhs if lhs > rhs else rhs) + 1
        if height > MAX_GUARD_DEPTH:
            raise self.error(_TOO_DEEP)
        return height

    def parse(self) -> GuardExpr:
        if len(self.tokens) == 1:
            raise ParseError("empty guard expression", 0)
        g, _ = self.or_expr()
        if self.tokens[self.i]:
            raise self.error(f"unexpected trailing {self.tokens[self.i]!r}")
        return g

    def or_expr(self) -> tuple[GuardExpr, int]:
        g, h = self.and_expr()
        while self.tokens[self.i] in ("or", "||"):
            self.i += 1
            rhs, rh = self.and_expr()
            g, h = OrExpr(g, rhs), self.up(h, rh)
        return g, h

    def and_expr(self) -> tuple[GuardExpr, int]:
        g, h = self.not_expr()
        while self.tokens[self.i] in ("and", "&&"):
            self.i += 1
            rhs, rh = self.not_expr()
            g, h = AndExpr(g, rhs), self.up(h, rh)
        return g, h

    def not_expr(self) -> tuple[GuardExpr, int]:
        negations = 0
        while self.tokens[self.i] in ("not", "!"):
            self.i += 1
            negations += 1
        g, h = self.atom()
        for _ in range(negations):
            g, h = NotExpr(g), self.up(h)
        return g, h

    def atom(self) -> tuple[GuardExpr, int]:
        token = self.tokens[self.i]
        if not token:
            raise self.error("unexpected end of guard")
        if token == "true":
            self.i += 1
            return TRUE, 0
        if token == "(":
            self.i += 1
            self.groups += 1
            if self.groups > MAX_GUARD_DEPTH:
                raise self.error(_TOO_DEEP)
            g = self.or_expr()
            if self.tokens[self.i] != ")":
                raise self.error("expected ')'")
            self.i += 1
            self.groups -= 1
            return g
        return self.comparison()

    def comparison(self) -> tuple[Comparison, int]:
        lhs, lh = self.sum_expr()
        op = self.tokens[self.i]
        if op not in _COMPARE:
            raise self.error("expected comparison operator")
        self.i += 1
        rhs, rh = self.sum_expr()
        return Comparison(op, lhs, rhs), self.up(lh, rh)

    def sum_expr(self) -> tuple[NumExpr, int]:
        e, h = self.operand(), 0
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            e, h = Arith(op, e, self.operand()), self.up(h)
        return e, h

    def operand(self) -> NumExpr:
        token = self.tokens[self.i]
        self.i += 1
        if token[:1] in _NUMBER_STARTS:
            value = float(token)
            if not math.isfinite(value):
                raise self.error(f"number {token!r} is not finite", self.i - 1)
            return NumLit(value)
        if token[:1] in _LETTERS:
            if token in _KEYWORDS:
                raise self.error(f"{token!r} is a reserved word", self.i - 1)
            return VarRef(token)
        raise self.error(f"expected number or variable, got {token!r}", self.i - 1)


def parse_guard(text: str) -> GuardExpr:
    """Parse a boolean guard; precedence not > comparison > and > or."""
    return _GuardParser(text).parse()


# ---------------------------------------------------------------------------
# guard rendering

def _render_num(e: NumExpr) -> str:
    if isinstance(e, NumLit):
        v = e.value
        # the grammar has no unary minus and no non-finite number
        if v < 0 or not math.isfinite(v):
            raise ValueError(f"number {v!r} has no textual form")
        return str(int(v)) if v == int(v) else repr(v)
    if isinstance(e, VarRef):
        name = e.name
        if not isinstance(name, str) or not IDENT_RE.match(name) or name in _KEYWORDS:
            raise ValueError(f"variable {name!r} has no textual form")
        return name
    if not isinstance(e, Arith) or e.op not in ("+", "-"):
        raise ValueError(f"{e!r} has no textual form")
    # numeric grouping is not in the grammar, so only left-nested trees render
    if isinstance(e.rhs, Arith):
        raise ValueError("right-nested arithmetic has no textual form")
    return f"{_render_num(e.lhs)} {e.op} {_render_num(e.rhs)}"


_LEVEL = {OrExpr: 1, AndExpr: 2, NotExpr: 3, Comparison: 4, TrueLiteral: 4}


def render_guard(g: GuardExpr) -> str:
    """Canonical text with minimal parentheses; parse(render(g)) == g."""
    return _render_bool(g, 1)


def _render_bool(node: GuardExpr, floor: int) -> str:
    """`node`'s text, in parentheses if its operator binds more loosely than `floor`."""
    level = _LEVEL.get(type(node))
    if level is None or isinstance(node, Comparison) and node.op not in _COMPARE.values():
        raise ValueError(f"{node!r} has no textual form")
    if isinstance(node, TrueLiteral):
        text = "true"
    elif isinstance(node, Comparison):
        text = f"{_render_num(node.lhs)} {node.op} {_render_num(node.rhs)}"
    elif isinstance(node, NotExpr):
        text = f"not {_render_bool(node.operand, 3)}"
    elif isinstance(node, AndExpr):
        text = f"{_render_bool(node.lhs, 2)} and {_render_bool(node.rhs, 3)}"
    else:
        text = f"{_render_bool(node.lhs, 1)} or {_render_bool(node.rhs, 2)}"
    return f"({text})" if level < floor else text


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
    walk = _GuardSource()
    result = walk.boolean(g)
    names = walk.names
    reads = [f"    try:\n        v{i} = float(env[_n[{i}]])\n"
             f"    except KeyError:\n        raise _unbound(_n[{i}]) from None"
             for i in range(len(names))]
    source = "\n".join(["def guard(env, _n, _c, _unbound):", *reads, *walk.body,
                        f"    return {result}"])
    code = _guard_code.get(source)
    if code is None:
        scope: dict = {}
        exec(compile(source, "<guard>", "exec"), scope)
        # popped, so that no cycle is left between the function and its globals
        code = _guard_code[source] = scope.pop("guard").__code__
    return FunctionType(code, globals(), "guard",
                        (tuple(names), tuple(walk.numbers), UnboundVariableError))


class _GuardSource:
    """The variables, numbers and assignments of a compiled guard, collected by
    one left-to-right walk of its tree; each walk method returns the Python
    expression that holds the value of the node it is given."""

    def __init__(self):
        self.names: list[str] = []
        self.numbers: list[float] = []
        self.body: list[str] = []

    def num(self, e: NumExpr) -> str:
        if isinstance(e, NumLit):
            self.numbers.append(e.value)
            return f"_c[{len(self.numbers) - 1}]"
        if isinstance(e, VarRef):
            if e.name not in self.names:
                self.names.append(e.name)
            return f"v{self.names.index(e.name)}"
        if not isinstance(e, Arith) or e.op not in ("+", "-"):
            raise TypeError(f"not a numeric expression: {e!r}")
        lhs, rhs = self.num(e.lhs), self.num(e.rhs)
        return self.node(f"{lhs} {'+' if e.op == '+' else '-'} {rhs}")

    def node(self, expression: str) -> str:
        self.body.append(f"    x{len(self.body)} = {expression}")
        return f"x{len(self.body) - 1}"

    def boolean(self, e: GuardExpr) -> str:
        if isinstance(e, TrueLiteral):
            return "True"
        if isinstance(e, Comparison) and e.op in _COMPARE.values():
            lhs, rhs = self.num(e.lhs), self.num(e.rhs)
            return self.node(f"{lhs} {_COMPARE[e.op]} {rhs}")
        if isinstance(e, NotExpr):
            return self.node(f"not {self.boolean(e.operand)}")
        if isinstance(e, (AndExpr, OrExpr)):
            lhs, rhs = self.boolean(e.lhs), self.boolean(e.rhs)
            return self.node(f"{lhs} {'and' if isinstance(e, AndExpr) else 'or'} {rhs}")
        raise TypeError(f"not a guard expression: {e!r}")


# Guards of one shape (say, a net's per-place guards that differ only in their
# numbers) have the same source, so their functions share one code object,
# kept while some function uses it.
_guard_code: "WeakValueDictionary[str, CodeType]" = WeakValueDictionary()
