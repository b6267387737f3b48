"""Formal sums of token colors: signed ones, and the multisets among them.

A `SignedMultiset` is a formal sum of color names with integer coefficients;
incidence-matrix entries such as "y-x" live there.  A `Multiset` is the
non-negative case: the content of an orbit and the value of an arc weight
expression ("A+C" is the multiset {A: 1, C: 1}).  Both types are immutable
and hashable, so markings can be used as graph nodes.  The two types never
compare equal and do not mix under `+` or `-`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class FrozenMap:
    """Immutable value over a dict with key-sorted items (formal sums, `Marking`).

    Instances of different classes never compare equal, even with equal contents.
    """

    __slots__ = ("_map",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self) -> tuple:
        """(key, value) pairs sorted by key."""
        return tuple(sorted(self._map.items()))

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class SignedMultiset(FrozenMap):
    """Formal sum of colors with integer coefficients; zero terms are not stored."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[str, int] = ()):
        pairs = coeffs._map if isinstance(coeffs, SignedMultiset) else dict(coeffs)
        acc = {c: n for c, n in pairs.items() if n}
        object.__setattr__(self, "_map", acc)

    def coefficient(self, color: str) -> int:
        return self._map.get(color, 0)

    def __add__(self, other: "SignedMultiset") -> "SignedMultiset":
        if other.__class__ is not self.__class__:
            return NotImplemented
        acc = dict(self._map)
        for c, n in other._map.items():
            acc[c] = acc.get(c, 0) + n
        return self.__class__(acc)

    def __str__(self) -> str:
        """Canonical text: positive terms before negative ones, each run sorted by color."""
        text = ""
        for color, n in sorted(self._map.items(), key=lambda term: (term[1] < 0, term[0])):
            sign = "-" if n < 0 else "+" if text else ""
            text += sign + (color if abs(n) == 1 else f"{abs(n)}{color}")
        return text or "0"


class Multiset(SignedMultiset):
    """Immutable multiset of color names; every stored count is >= 1."""

    __slots__ = ()

    def __init__(self, counts: Mapping[str, int] | Iterable[str] = ()):
        acc: dict[str, int] = {}
        if counts.__class__ is dict or isinstance(counts, Mapping):
            pairs = counts.items()
        elif isinstance(counts, SignedMultiset):
            pairs = counts._map.items()
        else:
            pairs = ((c, 1) for c in counts)
        for color, n in pairs:
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for color {color!r}")
            if n:
                acc[color] = acc.get(color, 0) + n
        object.__setattr__(self, "_map", acc)

    count = SignedMultiset.coefficient

    def colors(self) -> tuple[str, ...]:
        return tuple(sorted(self._map))

    def total(self) -> int:
        """Number of tokens counted with multiplicity."""
        return sum(self._map.values())

    def __contains__(self, color: str) -> bool:
        return color in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self.colors())

    def __le__(self, other: "Multiset") -> bool:
        """Multiset containment: every count of self is covered by other."""
        if other.__class__ is not Multiset:
            return NotImplemented
        held = other._map
        return all(held.get(c, 0) >= n for c, n in self._map.items())

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Remove other's tokens; raises if any count would go negative."""
        if other.__class__ is not Multiset:
            return NotImplemented
        acc = dict(self._map)
        for c, n in other._map.items():
            left = acc.get(c, 0) - n
            if left < 0:
                raise ValueError(f"cannot remove {n} of {c!r}: only {acc.get(c, 0)} present")
            if left:
                acc[c] = left
            else:
                acc.pop(c, None)
        return Multiset(acc)
