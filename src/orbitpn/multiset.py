"""Immutable value types: formal sums of token colors, and named-field records.

A `SignedMultiset` is a formal sum of color names with integer coefficients;
incidence-matrix entries such as "y-x" live there.  A `Multiset` is the
non-negative case: the content of an orbit and the value of an arc weight
expression ("A+C" is the multiset {A: 1, C: 1}).  Both types are immutable
and hashable, so markings can be used as graph nodes.  The two types never
compare equal and do not mix under `+`.  Neither has `-` or `<=`: the firing
rule removes and tests tokens on the packed integers of `core.CompiledNet`.

`Record` is the base of the other immutable values: nets and their parts,
guard trees, traces and analysis results.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class FrozenMap:
    """Immutable value over a dict with key-sorted items (formal sums, `Marking`).

    Instances of different classes never compare equal, even with equal contents.
    """

    __slots__ = ("_map",)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

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

    def __reduce__(self):  # copy and pickle go through the constructor
        return type(self), (self._map,)


class Record:
    """Immutable value with the fields `__match_args__` names, kept in `__slots__`.

    Fields are given by position or keyword; `_defaults` holds values for the
    trailing ones.  Equality, hashing and repr go by the field values in order,
    and records of different classes never compare equal.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}
    _setters: tuple = ()             # the slots' own setters, past `__setattr__`

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *args, **kwargs):
        # one value per field by position, or any other call through `_complete`
        if kwargs or len(args) != len(self._setters):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in order, from a call that gives some by keyword,
        leaves some to `_defaults`, or gives too many or too few."""
        fields = cls.__match_args__
        given = dict(zip(fields, args), **kwargs)
        values = {**cls._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        return tuple([values[name] for name in fields])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SignedMultiset(FrozenMap):
    """Formal sum of colors with integer coefficients; zero terms are not stored."""

    __slots__ = ("_text",)  # the canonical text, once `__str__` has made it

    def __init__(self, coeffs: Mapping[str, int] = ()):
        pairs = coeffs._map if isinstance(coeffs, SignedMultiset) else dict(coeffs)
        for color, n in pairs.items():
            if not isinstance(n, int):
                raise TypeError(f"coefficient {n!r} for color {color!r} is not an integer")
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
        try:
            return self._text
        except AttributeError:
            pass
        text = ""
        for color, n in sorted(self._map.items(), key=lambda term: (term[1] < 0, term[0])):
            sign = "-" if n < 0 else "+" if text else ""
            text += sign + (color if abs(n) == 1 else f"{abs(n)}{color}")
        object.__setattr__(self, "_text", text or "0")
        return self._text


class Multiset(SignedMultiset):
    """Immutable multiset of color names; every stored count is an int >= 1."""

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
            if not isinstance(n, int):
                raise TypeError(f"multiplicity {n!r} for color {color!r} is not an integer")
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for color {color!r}")
            if n:
                acc[color] = acc.get(color, 0) + n
        object.__setattr__(self, "_map", acc)

    count = SignedMultiset.coefficient

    def colors(self) -> tuple[str, ...]:
        return tuple(sorted(self._map))

    def __contains__(self, color: str) -> bool:
        return color in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self.colors())
