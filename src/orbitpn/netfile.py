"""Sectioned text format for net definitions (.opn files).

A net file holds six sections, in any order; `#` starts a comment anywhere::

    [net]
    name = satellite_swap

    [colors]
    x, y

    [places]
    P1 +            # id, then rotation sign (+ clockwise, - anticlockwise)
    P2 -

    [transitions]
    t1 : collision_prob > 0 and clock == T1     # bare id means guard true

    [arcs]
    P1 -> t1 : x    # source -> target : weight expression

    [marking]
    P1 = x          # weight-expression literal; empty places are omitted

Missing sections are treated as empty; a missing [net] name defaults to the
file stem.  `load_net` validates the parsed net and raises with the full
violation list, so a loaded net is always structurally sound.
"""

from __future__ import annotations

import re
from functools import cache, partial
from pathlib import Path

from . import expr
from .model import Arc, Marking, Net, Place, Transition, validate_net
from .multiset import Multiset

_SECTIONS = ("net", "colors", "places", "transitions", "arcs", "marking")
_ROTATIONS = {"+": 1, "+1": 1, "-": -1, "-1": -1}
_ARC_RE = re.compile(r"(?P<src>\S+)\s*->\s*(?P<dst>[^:]+?)\s*:\s*(?P<weight>.+)")


class NetFileError(ValueError):
    """Malformed net file; carries the 1-based source line when known."""

    def __init__(self, message: str, line: int | None = None,
                 violations: list[str] | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line
        self.violations = violations or []


def _reraise(err: expr.ParseError, line_no: int, what: str) -> NetFileError:
    return NetFileError(f"{what}: {err.message} (column {err.position + 1} of expression)", line_no)


def parse_net(text: str, default_name: str = "net") -> Net:
    """Parse net-file text into an (unvalidated) Net."""
    sections: dict[str, list[tuple[int, str]]] = {s: [] for s in _SECTIONS}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
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

    # A text repeated in the file is parsed once: the trees and multisets
    # are immutable, so the lines that share a text can share its value.
    parse_guard = cache(expr.parse_guard)
    parse_weight = cache(partial(expr.parse_weight_expr, colors=colors))

    transitions: list[Transition] = []
    for line_no, line in sections["transitions"]:
        tid, sep, guard_text = line.partition(":")
        tid = tid.strip()
        if not tid or len(tid.split()) != 1:
            raise NetFileError(f"expected '<transition id> [: guard]', got {line!r}", line_no)
        if sep:
            guard_text = guard_text.strip()
            try:
                guard = parse_guard(guard_text)
            except expr.ParseError as err:
                raise _reraise(err, line_no, f"guard of {tid!r}") from None
            transitions.append(Transition(tid, guard))
        else:
            transitions.append(Transition(tid))

    arcs: list[Arc] = []
    for line_no, line in sections["arcs"]:
        m = _ARC_RE.fullmatch(line)
        if m is None:
            raise NetFileError(f"expected '<source> -> <target> : <weight>', got {line!r}", line_no)
        src, dst, weight_text = m.groups()
        dst = dst.strip()
        try:
            w = parse_weight(weight_text.strip())
        except expr.ParseError as err:
            raise _reraise(err, line_no, f"weight of arc {src}->{dst}") from None
        arcs.append(Arc(src, dst, w))

    assignment: dict[str, Multiset] = {}
    for line_no, line in sections["marking"]:
        pid, sep, tokens_text = line.partition("=")
        pid = pid.strip()
        if not sep or not pid:
            raise NetFileError(f"expected '<place id> = <weight expression>', got {line!r}", line_no)
        if pid in assignment:
            raise NetFileError(f"place {pid!r} marked twice", line_no)
        try:
            assignment[pid] = parse_weight(tokens_text.strip())
        except expr.ParseError as err:
            raise _reraise(err, line_no, f"marking of {pid!r}") from None

    return Net(name, tuple(colors), tuple(places), tuple(transitions), tuple(arcs),
               Marking._of(assignment))


def read_net(path) -> Net:
    """Read and parse a net file, without validating it; a leading byte-order
    mark is dropped."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise NetFileError(
            f"not UTF-8 text: byte 0x{data[err.start]:02x} at byte offset {err.start}"
        ) from None
    # drop the mark "UTF-8 with BOM" editors write; decoding with "utf-8-sig"
    # would report a bad byte after it 3 bytes early
    return parse_net(text.removeprefix("\ufeff"), default_name=path.stem)


def load_net(path) -> Net:
    """Read, parse, and validate a net file; any violation is an error."""
    net = read_net(path)
    violations = validate_net(net)
    if violations:
        raise NetFileError(
            f"net {net.name!r} is not well-formed: " + "; ".join(violations),
            violations=violations,
        )
    return net


def parse_marking_spec(text: str, colors, place_ids) -> Marking:
    """Parse a marking literal like "P5 = A+C; P6 = B+D"; omitted places are empty."""
    assignment: dict[str, Multiset] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pid, sep, tokens_text = chunk.partition("=")
        pid = pid.strip()
        if not sep or not pid:
            raise NetFileError(f"expected '<place> = <tokens>', got {chunk!r}")
        if pid not in place_ids:
            raise NetFileError(f"unknown place {pid!r} in marking spec")
        if pid in assignment:
            raise NetFileError(f"place {pid!r} assigned twice in marking spec")
        try:
            assignment[pid] = expr.parse_weight_expr(tokens_text.strip(), colors)
        except expr.ParseError as err:
            raise NetFileError(f"tokens of {pid!r}: {err.message}") from None
    return Marking(assignment)
