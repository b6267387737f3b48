"""Reference semantics that the differential tests compare `orbitpn` against.

The firing rule stated on `Marking`s in `Multiset` arithmetic (containment
`submultiset` and removal `difference`, which `Multiset` itself does not
have), guards evaluated by walking the tree, with the variables a guard
reads (`guard_variables`), and the incidence matrix built arc by arc.
`orbitpn` runs all three on the compiled net (`Net.compiled`,
`expr.compile_guard`); nothing here touches that path.

Also the expression and net-file parsers in their earlier form, which
parse every text afresh; the canonical text of a formal sum, formatted afresh
on every call; the records (`orbitpn.multiset.Record`) defined as frozen
dataclasses; and trace replay as a whole-document pipeline: the document read into a `Trace`,
its transitions re-fired by `engine.fire_sequence` and the two traces
compared marking by marking.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re
from typing import Collection, Mapping

from orbitpn import (
    AndExpr,
    Arc,
    Arith,
    Comparison,
    Environment,
    Marking,
    Multiset,
    Net,
    NetFileError,
    NotEnabledError,
    NotExpr,
    NumLit,
    OrExpr,
    ParseError,
    Place,
    SignedMultiset,
    TRUE,
    Transition,
    TrueLiteral,
    UnboundVariableError,
    VarRef,
)
from orbitpn import expr
from orbitpn.expr import MAX_GUARD_DEPTH
from orbitpn.engine import MODES, FiringEvent, Trace, fire_sequence
from orbitpn.multiset import Record
from orbitpn.trace_io import ReplayError

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _eval_num(e, env: Mapping[str, float]) -> float:
    if isinstance(e, NumLit):
        return e.value
    if isinstance(e, VarRef):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    lhs = _eval_num(e.lhs, env)
    rhs = _eval_num(e.rhs, env)
    return lhs + rhs if e.op == "+" else lhs - rhs


def eval_guard(g, env: Mapping[str, float]) -> bool:
    """Evaluate a guard against variable bindings; unbound names are an error."""
    if isinstance(g, TrueLiteral):
        return True
    if isinstance(g, Comparison):
        return _COMPARE[g.op](_eval_num(g.lhs, env), _eval_num(g.rhs, env))
    if isinstance(g, NotExpr):
        return not eval_guard(g.operand, env)
    if isinstance(g, (AndExpr, OrExpr)):
        # evaluate both sides: an unbound variable must raise even when the
        # other side already decides the result
        lhs = eval_guard(g.lhs, env)
        rhs = eval_guard(g.rhs, env)
        return (lhs and rhs) if isinstance(g, AndExpr) else (lhs or rhs)
    raise TypeError(f"not a guard expression: {g!r}")


def guard_variables(g) -> frozenset[str]:
    """All environment variables the guard reads."""

    def num_vars(e) -> frozenset[str]:
        if isinstance(e, VarRef):
            return frozenset({e.name})
        if isinstance(e, Arith):
            return num_vars(e.lhs) | num_vars(e.rhs)
        return frozenset()

    if isinstance(g, TrueLiteral):
        return frozenset()
    if isinstance(g, Comparison):
        return num_vars(g.lhs) | num_vars(g.rhs)
    if isinstance(g, NotExpr):
        return guard_variables(g.operand)
    return guard_variables(g.lhs) | guard_variables(g.rhs)


def _multisets(a, b) -> None:
    if type(a) is not Multiset or type(b) is not Multiset:
        raise TypeError(f"expected two Multisets, got {type(a).__name__} and {type(b).__name__}")


def submultiset(a: Multiset, b: Multiset) -> bool:
    """Multiset containment: every count of `a` is covered by `b`."""
    _multisets(a, b)
    return all(b.count(c) >= n for c, n in a.items())


def difference(a: Multiset, b: Multiset) -> Multiset:
    """`a` with `b`'s tokens removed; raises if any count would go negative."""
    _multisets(a, b)
    acc = dict(a.items())
    for c, n in b.items():
        left = acc.get(c, 0) - n
        if left < 0:
            raise ValueError(f"cannot remove {n} of {c!r}: only {acc.get(c, 0)} present")
        acc[c] = left
    return Multiset(acc)


def tally(value: Multiset | Marking) -> int:
    """Tokens in a `Multiset`, or at every place of a `Marking`, counted with
    multiplicity."""
    if isinstance(value, Marking):
        return sum(tally(ms) for _, ms in value.items())
    return sum(n for _, n in value.items())


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown containment mode {mode!r}; expected one of {MODES}")


def enabling_failure(net: Net, m: Marking, t: str, env: Environment,
                     mode: str = "subset") -> str | None:
    """Why `t` is not enabled at `m`, or None if it is.

    The guard is always evaluated, even when token calling already fails, so
    an unbound environment variable surfaces as an error rather than being
    masked by a structural refusal.
    """
    _check_mode(mode)
    guard_ok = eval_guard(net.transition(t).guard, env)
    inputs = net.inputs[t]
    if not inputs:
        return "no input arcs (source transitions are never enabled)"
    for place, called in inputs:
        held = m[place]
        if not held:
            return f"input place {place!r} is empty"
        if mode == "subset":
            if not submultiset(called, held):
                return f"token calling unsatisfied at {place!r}: arc calls {called}, place holds {held}"
        elif held != called:
            return f"exact-mode mismatch at {place!r}: arc calls {called}, place holds {held}"
    if not guard_ok:
        return "guard is false"
    return None


def enabled(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> bool:
    """True iff `t` can fire at `m` under `env`."""
    return enabling_failure(net, m, t, env, mode) is None


def fire(net: Net, m: Marking, t: str, env: Environment, mode: str = "subset") -> Marking:
    """Fire `t`, returning the new marking; the input marking is untouched."""
    failure = enabling_failure(net, m, t, env, mode)
    if failure is not None:
        raise NotEnabledError(t, failure)
    assignment = dict(m.items())
    for place, called in net.inputs[t]:
        assignment[place] = difference(assignment[place], called)
    for place, deposited in net.outputs[t]:
        assignment[place] = assignment.get(place, Multiset()) + deposited
    return Marking(assignment)


def enabled_set(net: Net, m: Marking, env: Environment, mode: str = "subset") -> list[str]:
    """All enabled transitions, in declaration order."""
    return [t for t in net.transition_ids if enabled(net, m, t, env, mode)]


def incidence_entries(net: Net) -> tuple[tuple[SignedMultiset, ...], ...]:
    """Entry (p, t) = output weight w(t->p) minus input weight w(p->t), from
    the arcs (`net.inputs`, `net.outputs`); rows are places."""
    deposited, called = {}, {}
    for t in net.transition_ids:
        for place, w in net.outputs[t]:
            deposited[(place, t)] = SignedMultiset(w)
        for place, w in net.inputs[t]:
            called[(place, t)] = SignedMultiset({c: -n for c, n in w.items()})
    zero = SignedMultiset()
    return tuple(
        tuple(deposited.get((p, t), zero) + called.get((p, t), zero) for t in net.transition_ids)
        for p in net.place_ids
    )


def format_sum(coeffs: Mapping[str, int]) -> str:
    """Canonical text of a formal sum: positive terms before negative ones,
    each run sorted by color, a coefficient of 1 left out; "0" when empty."""
    terms = sorted(((c, n) for c, n in coeffs.items() if n), key=lambda t: (t[1] < 0, t[0]))
    text = "".join(("-" if n < 0 else "+") + ("" if abs(n) == 1 else str(abs(n))) + c
                   for c, n in terms)
    return text.removeprefix("+") or "0"


class DataclassTwins:
    """Each `Record` of orbitpn as the frozen dataclass it was before `Record`:
    the same class name, fields, defaults and field conversions."""

    @dataclasses.dataclass(frozen=True)
    class NumLit:
        value: float

    @dataclasses.dataclass(frozen=True)
    class VarRef:
        name: str

    @dataclasses.dataclass(frozen=True)
    class Arith:
        op: str
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class TrueLiteral:
        pass

    @dataclasses.dataclass(frozen=True)
    class Comparison:
        op: str
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class NotExpr:
        operand: object

    @dataclasses.dataclass(frozen=True)
    class AndExpr:
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class OrExpr:
        lhs: object
        rhs: object

    @dataclasses.dataclass(frozen=True)
    class Place:
        id: str
        rotation: int

    @dataclasses.dataclass(frozen=True)
    class Transition:
        id: str
        guard: object = TRUE

    @dataclasses.dataclass(frozen=True)
    class Arc:
        source: str
        target: str
        weight: Multiset

    @dataclasses.dataclass(frozen=True)
    class Net:
        name: str
        colors: tuple
        places: tuple
        transitions: tuple
        arcs: tuple
        initial_marking: Marking = dataclasses.field(default_factory=Marking)

        def __post_init__(self):
            object.__setattr__(self, "colors", tuple(self.colors))
            object.__setattr__(self, "places", tuple(self.places))
            object.__setattr__(self, "transitions", tuple(self.transitions))
            object.__setattr__(self, "arcs", tuple(self.arcs))

    @dataclasses.dataclass(frozen=True)
    class FiringEvent:
        step: int
        transition: str
        env_snapshot: dict
        marking_after: Marking

    @dataclasses.dataclass(frozen=True)
    class Trace:
        net_name: str
        initial: Marking
        events: tuple = ()

        def __post_init__(self):
            object.__setattr__(self, "events", tuple(self.events))

    @dataclasses.dataclass(frozen=True)
    class IncidenceMatrix:
        place_ids: tuple
        transition_ids: tuple
        entries: tuple

    @dataclasses.dataclass(frozen=True)
    class ReachabilityGraph:
        nodes: tuple
        depths: tuple
        edges: tuple
        deadlocks: tuple
        truncated: bool


def dataclass_twin(value):
    """`value` with every `Record` or twin in it, also inside tuples and
    lists, rebuilt as its `DataclassTwins` class."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(dataclass_twin, value))
    if isinstance(value, Record) or dataclasses.is_dataclass(value):
        twin = getattr(DataclassTwins, type(value).__name__)
        return twin(*(dataclass_twin(getattr(value, f)) for f in type(value).__match_args__))
    return value


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def _field(record: dict, key: str, step: int | None = None, kind: type | None = None):
    """record[key], or a ReplayError naming the key and the 1-based event step
    if it is missing or, given `kind`, not of that JSON type."""
    where = "document" if step is None else f"step {step}"
    try:
        value = record[key]
    except KeyError:
        raise ReplayError(f"{where}: missing {key!r}") from None
    if kind is not None and not isinstance(value, kind):
        raise ReplayError(f"{where}: {key!r} is not a JSON {_JSON_NAMES[kind]}")
    return value


def _weights(colors):
    """`expr.parse_weight_expr` over `colors`, parsing each distinct text once."""
    return functools.cache(functools.partial(expr.parse_weight_expr, colors=colors))


def _marking_field(record: dict, key: str, parse, step: int | None = None) -> Marking:
    """record[key] parsed as a marking, or a ReplayError naming the key or step."""
    where = f"document: {key!r}" if step is None else f"step {step}: {key!r}"
    assignment = {}
    for place, text in _field(record, key, step, dict).items():
        if not isinstance(text, str):
            raise ReplayError(f"{where}: place {place!r} holds {text!r}, not a weight expression")
        try:
            assignment[place] = parse(text)
        except expr.ParseError as err:
            raise ReplayError(f"{where}: {err}") from None
    return Marking._of(assignment)  # parsed weights are never empty


def _env_field(record: dict, step: int) -> dict[str, float]:
    """The event's environment as floats, or a ReplayError naming the variable."""
    env = {}
    for name, value in _field(record, "env", step, dict).items():
        try:
            env[name] = float(value)
        except (TypeError, ValueError):
            raise ReplayError(f"step {step}: 'env': {name!r} is {value!r}, not a number") from None
    return env


def trace_from_document(doc: dict, colors) -> Trace:
    """The trace a document records; raises ReplayError for a missing field,
    a field of the wrong JSON type or a marking that does not parse."""
    if not isinstance(doc, dict):
        raise ReplayError("document is not a JSON object")
    parse = _weights(colors)
    initial = _marking_field(doc, "initial", parse)
    events = []
    for k, ev in enumerate(_field(doc, "events", kind=list), start=1):
        if not isinstance(ev, dict):
            raise ReplayError(f"step {k}: event is not a JSON object")
        events.append(FiringEvent(
            step=_field(ev, "step", k),
            transition=_field(ev, "transition", k, str),
            env_snapshot=_env_field(ev, k),
            marking_after=_marking_field(ev, "marking", parse, k),
        ))
    return Trace(_field(doc, "net"), initial, events)


def replay(net: Net, doc: dict) -> Marking:
    """Re-fire every event of the document and return the resulting marking.

    Reads the whole document into a `Trace` first, so every fault of its
    shape comes before any fault of its replay; then re-fires the events in
    one `engine.fire_sequence` call, up to the first unknown transition, and
    compares the two traces.
    """
    trace = trace_from_document(doc, net.colors)
    if trace.net_name != net.name:
        raise ReplayError(f"document is for net {trace.net_name!r}, not {net.name!r}")
    mode = doc.get("mode", "subset")
    events = trace.events
    if events and mode not in MODES:
        raise ReplayError(f"step {events[0].step}: unknown containment mode {mode!r}")
    known = next((i for i, ev in enumerate(events) if ev.transition not in net.transition_index),
                 len(events))

    def refire(stop: int) -> Trace:
        return fire_sequence(net, trace.initial, [ev.transition for ev in events[:stop]],
                             [ev.env_snapshot for ev in events[:stop]], mode)

    failure = None
    try:
        fired = refire(known)
    except NotEnabledError as err:
        fired = err.trace
        failure = ReplayError(f"step {events[err.step - 1].step}: transition {err.transition!r} "
                              f"not enabled: {err.reason}")
    except UnboundVariableError as err:
        # it comes without the prefix that did fire: that is every event
        # before the first whose environment lacks a variable its guard reads
        stop = next(i for i, ev in enumerate(events) if not guard_variables(
            net.transition(ev.transition).guard) <= ev.env_snapshot.keys())
        fired = refire(stop)
        failure = ReplayError(f"step {events[stop].step}: {err}")
    for ev, got in zip(events, fired.events):
        if got.marking_after != ev.marking_after:
            raise ReplayError(
                f"step {ev.step}: replay produced {got.marking_after}, document records {ev.marking_after}"
            )
    if failure is not None:
        raise failure
    if known < len(events):
        raise ReplayError(f"step {events[known].step}: unknown transition {events[known].transition!r}")
    m = fired.final
    final = _marking_field(doc, "final", _weights(net.colors))
    if m != final:
        raise ReplayError(f"final marking diverges: replay {m}, document {final}")
    return m


# ---------------------------------------------------------------------------
# The expression and net-file parsers as they were before `Record` got its
# positional fast path, `parse_net` its per-file reuse of parsed texts and
# `expr._GuardParser` its end sentinel: a copy of `expr._tokenize`,
# `expr._GuardParser`, `expr.parse_weight_expr` and `netfile.parse_net`
# (with the helpers they use), changed only to call one another.  `_COMPARE`
# above has the same six operator keys as `expr._COMPARE`.

_GUARD_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[<>!+\-()])
    """,
    re.VERBOSE,
)

_WEIGHT_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<number>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[+\-])"
)

_TOO_DEEP = f"guard nested more than {MAX_GUARD_DEPTH} levels deep"

_KEYWORDS = {"true", "and", "or", "not"}


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

    def parse(self):
        if not self.tokens:
            raise ParseError("empty guard expression", 0)
        g = self.or_expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return g

    def or_expr(self):
        g = self.and_expr()
        while self.peek()[1] in ("or", "||"):
            self.advance()
            g = self.node(OrExpr, g, self.and_expr())
        return g

    def and_expr(self):
        g = self.not_expr()
        while self.peek()[1] in ("and", "&&"):
            self.advance()
            g = self.node(AndExpr, g, self.not_expr())
        return g

    def not_expr(self):
        negations = 0
        while self.peek()[1] in ("not", "!"):
            self.advance()
            negations += 1
        g = self.atom()
        for _ in range(negations):
            g = self.node(NotExpr, g)
        return g

    def atom(self):
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

    def comparison(self):
        lhs = self.sum_expr()
        kind, text, pos = self.peek()
        if text not in _COMPARE:
            raise self.error("expected comparison operator")
        self.advance()
        rhs = self.sum_expr()
        return self.node(Comparison, text, lhs, rhs)

    def sum_expr(self):
        e = self.operand()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            e = self.node(Arith, op, e, self.operand())
        return e

    def operand(self):
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


def parse_guard(text: str):
    """Parse a boolean guard; precedence not > comparison > and > or."""
    return _GuardParser(text).parse()


_SECTIONS = ("net", "colors", "places", "transitions", "arcs", "marking")
_ROTATIONS = {"+": 1, "+1": 1, "-": -1, "-1": -1}
_ARC_RE = re.compile(r"(?P<src>\S+)\s*->\s*(?P<dst>[^:]+?)\s*:\s*(?P<weight>.+)")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _reraise(err: ParseError, line_no: int, what: str) -> NetFileError:
    return NetFileError(f"{what}: {err.message} (column {err.position + 1} of expression)", line_no)


def parse_net(text: str, default_name: str = "net") -> Net:
    """Parse net-file text into an (unvalidated) Net."""
    sections: dict[str, list[tuple[int, str]]] = {s: [] for s in _SECTIONS}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise NetFileError(f"unknown section [{name}]", line_no)
            current = name
            continue
        if current is None:
            raise NetFileError(f"content before any section header: {line!r}", line_no)
        sections[current].append((line_no, line))

    name = default_name
    for line_no, line in sections["net"]:
        key, sep, value = line.partition("=")
        if key.strip() != "name" or not sep:
            raise NetFileError("expected 'name = <net name>'", line_no)
        name = value.strip()
        if not name:
            raise NetFileError("net name is empty", line_no)

    colors: list[str] = []
    for line_no, line in sections["colors"]:
        for token in line.replace(",", " ").split():
            colors.append(token)

    places: list[Place] = []
    for line_no, line in sections["places"]:
        parts = line.split()
        if len(parts) != 2:
            raise NetFileError(f"expected '<place id> <+|->', got {line!r}", line_no)
        pid, sign = parts
        if sign not in _ROTATIONS:
            raise NetFileError(f"rotation must be '+' or '-', got {sign!r}", line_no)
        places.append(Place(pid, _ROTATIONS[sign]))

    transitions: list[Transition] = []
    for line_no, line in sections["transitions"]:
        tid, sep, guard_text = line.partition(":")
        tid = tid.strip()
        if not tid or len(tid.split()) != 1:
            raise NetFileError(f"expected '<transition id> [: guard]', got {line!r}", line_no)
        if sep:
            try:
                guard = parse_guard(guard_text.strip())
            except ParseError as err:
                raise _reraise(err, line_no, f"guard of {tid!r}") from None
            transitions.append(Transition(tid, guard))
        else:
            transitions.append(Transition(tid))

    arcs: list[Arc] = []
    for line_no, line in sections["arcs"]:
        m = _ARC_RE.fullmatch(line)
        if m is None:
            raise NetFileError(f"expected '<source> -> <target> : <weight>', got {line!r}", line_no)
        src, dst = m.group("src"), m.group("dst").strip()
        try:
            weight = parse_weight_expr(m.group("weight").strip(), colors)
        except ParseError as err:
            raise _reraise(err, line_no, f"weight of arc {src}->{dst}") from None
        arcs.append(Arc(src, dst, weight))

    assignment: dict[str, Multiset] = {}
    for line_no, line in sections["marking"]:
        pid, sep, tokens_text = line.partition("=")
        pid = pid.strip()
        if not sep or not pid:
            raise NetFileError(f"expected '<place id> = <weight expression>', got {line!r}", line_no)
        if pid in assignment:
            raise NetFileError(f"place {pid!r} marked twice", line_no)
        try:
            assignment[pid] = parse_weight_expr(tokens_text.strip(), colors)
        except ParseError as err:
            raise _reraise(err, line_no, f"marking of {pid!r}") from None

    return Net(
        name=name,
        colors=tuple(colors),
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking=Marking(assignment),
    )
