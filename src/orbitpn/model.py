"""Core net structure: directed-orbit places, guarded transitions, weighted arcs.

A net is the tuple (places with rotation signs, transitions with guards, arcs
labeled by weight expressions, a color set, an initial marking).  The order of
a net is its number of orbit places.  Declaration order of places and
transitions is canonical: it fixes vector/matrix indexing and the default
firing policy, so `Net` stores them as ordered tuples.

Nets are immutable after construction and safe to share between concurrent
analyses; `Marking` is a value type (operations return new markings).
Structural rules are checked by `validate_net`, which reports violations
instead of raising, so partially-built nets can be diagnosed; each net is
walked once (`Net.violations`).  A `Net` is plain data; its arcs are grouped
per transition only in `Net.compiled`, which refuses a net `validate_net`
rejects, so every analysis does.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .expr import IDENT_RE, TRUE
from .multiset import FrozenMap, Multiset, Record

_EMPTY = Multiset()

#: External scalar bindings read by guards (collision_prob, clock, user variables).
Environment = Mapping[str, float]

#: Containment readings of token calling (see `engine`).
MODES = ("subset", "exact")


class Place(Record):
    """One directed cyclic orbit; rotation is +1 (clockwise) or -1 (anticlockwise)."""
    __slots__ = __match_args__ = ("id", "rotation")


class Transition(Record):
    __slots__ = __match_args__ = ("id", "guard")
    _defaults = {"guard": TRUE}


class Arc(Record):
    """Directed arc between a place and a transition, labeled by a token calling."""
    __slots__ = __match_args__ = ("source", "target", "weight")


class Marking(FrozenMap):
    """Assignment of a token multiset to each place; absent place means empty."""

    __slots__ = ()

    def __init__(self, assignment: Mapping[str, Multiset | Mapping[str, int] | Iterable[str]] = ()):
        acc: dict[str, Multiset] = {}
        pairs = assignment._map if isinstance(assignment, Marking) else dict(assignment)
        for place, tokens in pairs.items():
            ms = tokens if isinstance(tokens, Multiset) else Multiset(tokens)
            if ms:
                acc[place] = ms
        object.__setattr__(self, "_map", acc)

    def __getitem__(self, place: str) -> Multiset:
        return self._map.get(place, _EMPTY)

    def places(self) -> tuple[str, ...]:
        """Places currently holding at least one token."""
        return tuple(sorted(self._map))

    def __iter__(self) -> Iterator[str]:
        return iter(self.places())

    def __str__(self) -> str:
        if not self._map:
            return "(empty)"
        return ", ".join(f"{p}={ms}" for p, ms in self.items())


class Net(Record):
    """The net as declared; `compiled` is the one view of its arcs per transition."""

    __match_args__ = ("name", "colors", "places", "transitions", "arcs", "initial_marking")
    __slots__ = __match_args__ + ("__dict__",)  # the cached properties live in __dict__
    _defaults = {"initial_marking": Marking()}

    def __init__(self, *args, **kwargs):
        name, colors, places, transitions, arcs, marking = self._complete(args, kwargs)
        super().__init__(name, tuple(colors), tuple(places), tuple(transitions), tuple(arcs), marking)

    @property
    def order(self) -> int:
        """Number of orbit places."""
        return len(self.places)

    @cached_property
    def place_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.places)

    @cached_property
    def transition_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.transitions)

    @cached_property
    def transition_index(self) -> dict[str, int]:
        return {t.id: i for i, t in enumerate(self.transitions)}

    def transition(self, tid: str) -> Transition:
        try:
            return self.transitions[self.transition_index[tid]]
        except KeyError:
            raise KeyError(f"unknown transition {tid!r}") from None

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """`validate_net`'s messages, found on first use: every well-formedness
        check of a net, by `load_net` or when it compiles, reads this one walk."""
        return tuple(_violations(self))

    @cached_property
    def compiled(self):
        """The net over integer (place, color) slots (`core.CompiledNet`), built
        on first use: runs that never need it do not pay to load `core`.  A
        ValueError of `validate_net`'s violations if there are any."""
        from .core import CompiledNet
        return CompiledNet(self)


def validate_net(net: Net) -> list[str]:
    """Check every structural rule; returns one message per violation, in a
    new list each call (the walk runs once per net: `Net.violations`).

    An empty list means the net is well-formed: identifiers are legal and
    unique, arcs are bipartite and unduplicated, every weight and marking
    refers only to declared colors and places.  A color, id or arc end that
    is not a string is illegal or unknown, and joins no duplicate check.
    Guard trees are not walked: a net with a malformed hand-built one
    passes, and compiling it raises a `ValueError` naming the transition.
    """
    return list(net.violations)


def _violations(net: Net) -> list[str]:
    """The walk behind `Net.violations`."""
    violations: list[str] = []

    seen_colors = set()
    for color in net.colors:
        if not (isinstance(color, str) and IDENT_RE.match(color)):
            violations.append(f"color {color!r}: not a legal identifier")
        if isinstance(color, str):
            if color in seen_colors:
                violations.append(f"color {color!r}: declared more than once")
            seen_colors.add(color)

    seen_places = set()
    for place in net.places:
        if not (isinstance(place.id, str) and IDENT_RE.match(place.id)):
            violations.append(f"place {place.id!r}: not a legal identifier")
        if isinstance(place.id, str):
            if place.id in seen_places:
                violations.append(f"place {place.id!r}: duplicate id")
            seen_places.add(place.id)
        if place.rotation not in (1, -1):
            violations.append(f"place {place.id!r}: rotation must be +1 or -1, got {place.rotation}")

    seen_transitions = set()
    for t in net.transitions:
        if not (isinstance(t.id, str) and IDENT_RE.match(t.id)):
            violations.append(f"transition {t.id!r}: not a legal identifier")
        if isinstance(t.id, str):
            if t.id in seen_transitions:
                violations.append(f"transition {t.id!r}: duplicate id")
            if t.id in seen_places:
                violations.append(f"transition {t.id!r}: id collides with a place")
            seen_transitions.add(t.id)

    seen_arcs = set()
    for arc in net.arcs:
        source = arc.source if isinstance(arc.source, str) else None
        target = arc.target if isinstance(arc.target, str) else None
        src_place = source in seen_places
        src_trans = source in seen_transitions
        dst_place = target in seen_places
        dst_trans = target in seen_transitions
        label = f"arc {arc.source}->{arc.target}"
        if not (src_place or src_trans):
            violations.append(f"{label}: unknown source {arc.source!r}")
        if not (dst_place or dst_trans):
            violations.append(f"{label}: unknown target {arc.target!r}")
        if (src_place and dst_place) or (src_trans and dst_trans):
            violations.append(f"{label}: endpoints must pair one place with one transition")
        if None not in (source, target):
            if (source, target) in seen_arcs:
                violations.append(f"{label}: duplicate arc")
            seen_arcs.add((source, target))
        if not isinstance(arc.weight, Multiset):
            violations.append(f"{label}: weight {arc.weight!r} is not a multiset")
            continue
        if not arc.weight:
            violations.append(f"{label}: weight expression is empty")
        for color in arc.weight:
            if color not in seen_colors:
                violations.append(f"{label}: weight uses undeclared color {color!r}")

    for place, tokens in net.initial_marking.items():
        if place not in seen_places:
            violations.append(f"marking: unknown place {place!r}")
        for color in tokens:
            if color not in seen_colors:
                violations.append(f"marking at {place!r}: undeclared color {color!r}")

    return violations

