"""The compiled net: one integer slot per (place, color), in incidence form.

This is the colour unfolding of the net (Jensen, *Coloured Petri Nets*, 1992)
written as Murata's integer incidence matrix (Proc. IEEE 77(4), 1989).  A
marking becomes a vector of counts and a firing adds an integer column, so
the bulk analyses in `algebra` and the firing loops in `engine` hash,
compare and add plain integers instead of formal sums.

The firing kernel packs the vector into one int, whole bytes per slot, as
explicit-state model checkers pack a state into one word (Holzmann, IEEE
TSE 23(5), 1997): a token test is one subtraction and a firing one addition.
The fields are sized from the marking (`pack`): when no firing adds tokens,
as in every bundled model, by at most its token total.  So the search and
the firing loops share one size and one list of token tests, unless the
marking's largest count and its total need different widths.  As in
explicit-state generators (K. Wolf, ICATPN 2007), work is local: the BFS
memoises a token test on its input places' fields.  A marking is unpacked
only for output, every place read from its own fields.

`Net.compiled` builds a `CompiledNet` on first use.  `engine` and `algebra`
import this module as they load; `opn validate` never loads it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby, repeat
from operator import attrgetter
from typing import Callable, Sequence

from .expr import compile_guard
from .model import MODES, Environment, Marking, Net
from .multiset import Multiset


def check_mode(mode: str) -> None:
    """Refuse a mode outside `MODES`, for which `token_tests` builds no tests."""
    if mode not in MODES:
        raise ValueError(f"unknown containment mode {mode!r}; expected one of {MODES}")


class CompiledNet:
    """A net unfolded over integer (place, color) slots: the one table of its
    arcs (`net.arcs`) per transition.

    Slot ``offset[p] + j`` counts ``colors[j]`` at place ``p``; the i-th
    declared place has offset ``i * width``.  The colors, sorted, are the
    declared ones and every color on an arc; ``width`` is their number (1 if none).
    ``slot_names[s]`` is the (place id, color) that slot ``s`` counts, color
    None in a net without colors: the one map back from a slot, so the slot
    layout stays inside this module.
    An arc is an input of a transition target with a declared place source,
    and an output of a transition source with a declared place target.  Per
    transition, in declaration order:

    * ``delta[k]``: the nonzero (slot, d) of the transition's incidence column;
    * ``spans[k]``: (lo, counts) per input arc, sorted by place id: the counts
      it calls at its place's slots from ``lo`` on;
    * ``guards[k]``: its guard as a function (`expr.compile_guard`), compiled
      with the net.

    ``peak`` is the largest count an arc calls, ``rise`` the largest positive
    incidence entry (or 0).  ``conserves`` is whether no column adds tokens
    (each sums to <= 0: yA <= 0 for y = 1, Murata 1989, section V), so no
    count ever exceeds a marking's token total.  A place declared twice, or
    two input (then output) arcs with the same ends, is the ValueError
    `validate_net` reports.

    The view holds the net's ids but not the net, so caching it on the `Net`
    makes no reference cycle.
    """

    __slots__ = ("place_ids", "transition_ids", "colors", "column", "width", "offset", "slot_names",
                 "delta", "spans", "guards", "tests", "peak", "rise", "conserves")

    def __init__(self, net: Net):
        colors = set(net.colors)
        for arc in net.arcs:
            colors.update(arc.weight.colors())
        self.place_ids = net.place_ids
        self.transition_ids = net.transition_ids
        self.tests: dict[tuple[str, int], list] = {}
        self.colors = tuple(sorted(colors))
        self.width = width = len(self.colors) or 1  # a slot per place at least
        self.column = column = {c: j for j, c in enumerate(self.colors)}
        self.offset = base = {}
        for i, p in enumerate(net.place_ids):
            if base.setdefault(p, i * width) != i * width:
                raise ValueError(f"place {p!r}: duplicate id")
        self.slot_names = tuple((p, c) for p in net.place_ids for c in self.colors or (None,))
        arcs = {t: ({}, {}) for t in net.transition_ids}  # (calls, deposits) by place
        for side, ends in enumerate((attrgetter("target", "source"), attrgetter("source", "target"))):
            for arc in net.arcs:
                t, place = ends(arc)
                if t in arcs and place in base:
                    if place in arcs[t][side]:
                        raise ValueError(f"arc {arc.source}->{arc.target}: duplicate arc")
                    arcs[t][side][place] = arc.weight
        self.delta, self.spans = [], []
        for calls, deposits in (arcs[t] for t in net.transition_ids):
            spans, delta = [], defaultdict(int)
            for place, called in sorted(calls.items()):
                counts = [0] * width
                for color, n in called.items():
                    counts[column[color]] = n
                    delta[base[place] + column[color]] -= n
                spans.append((base[place], tuple(counts)))
            for place, deposited in deposits.items():
                for color, n in deposited.items():
                    delta[base[place] + column[color]] += n
            self.delta.append(tuple((s, d) for s, d in sorted(delta.items()) if d))
            self.spans.append(tuple(spans))
        self.guards = tuple(compile_guard(t.guard) for t in net.transitions)
        self.peak = max((n for spans in self.spans for _, counts in spans for n in counts), default=0)
        self.rise = max((d for column in self.delta for _, d in column if d > 0), default=0)
        self.conserves = all(sum(d for _, d in column) <= 0 for column in self.delta)

    def encode(self, m: Marking) -> tuple[int, ...]:
        """Slot counts of `m`; the one check that a marking lies in the net: a
        KeyError for the first place of `m` (sorted) outside it, or for a color
        outside `colors` there."""
        vec = [0] * (self.width * len(self.place_ids))
        for place, ms in m.items():
            if place not in self.offset:
                raise KeyError(f"marking references unknown place {place!r}")
            for color, n in ms.items():
                if color not in self.column:
                    raise KeyError(f"marking references unknown color {color!r} at place {place!r}")
                vec[self.offset[place] + self.column[color]] = n
        return tuple(vec)

    def pack(self, vec: Sequence[int], firings: int = 0) -> tuple[int, int]:
        """`vec` as one int of `size`-byte fields, slot 0 lowest, and `size`:
        the fewest bytes whose top bit stays clear for every count an arc
        calls and every count `firings` firings reach: at most `rise` more
        a firing, and, if the net `conserves`, no more than `vec`'s total."""
        bound = max(vec, default=0) + firings * self.rise
        if self.conserves:
            bound = min(bound, sum(vec))
        size = (max(bound, self.peak).bit_length() + 8) // 8
        return int.from_bytes(b"".join(n.to_bytes(size, "little") for n in vec), "little"), size

    def share(self, place: str, ms: Multiset, size: int) -> int:
        """The fields of `ms` at `place`, packed at `size` bytes a field as `pack` packs them."""
        bits = 8 * size
        # a count at or over its field's top bit, which no firing reaches, or a place the net
        # lacks packs as a bit above every field: such a recording equals no marking fired
        if place not in self.offset or any(n >> bits - 1 for _, n in ms.items()):
            return 1 << bits * self.width * len(self.place_ids)
        return sum(n << bits * (self.offset[place] + self.column[c]) for c, n in ms.items())

    def decode(self, packed: Sequence[int], size: int) -> list[Marking]:
        """Markings of ints packed at `size` bytes a field, every place read
        from its own fields.  Equal place contents share one `Multiset`."""
        step = self.width * size
        field = (1 << 8 * step) - 1  # the fields of one place
        places = [(pid, 8 * step * i) for i, pid in enumerate(self.place_ids)]
        shared: dict[int, Multiset] = {}
        out: list[Marking] = []
        new, fill = object.__new__, Marking._map.__set__  # `Marking._of`, without its call
        for m in packed:
            assignment = {}
            for pid, shift in places:
                counts = m >> shift & field
                if counts:
                    ms = shared.get(counts)
                    if ms is None:
                        raw = counts.to_bytes(step, "little")
                        ms = shared[counts] = Multiset({c: int.from_bytes(raw[j:j + size], "little")
                                                        for c, j in zip(self.colors, range(0, step, size))})
                    assignment[pid] = ms
            fill(marking := new(Marking), assignment)
            out.append(marking)
        return out

    def live(self, env: Environment) -> list[int]:
        """The indices of the transitions whose guards hold under `env`, in order.

        Every guard is evaluated once, in declaration order, before any token
        test, so an unbound variable raises whether or not any transition is
        token-enabled: the one rule of every analysis that holds the
        environment fixed."""
        return [k for k, guard in enumerate(self.guards) if guard(env)]

    def token_tests(self, mode: str, size: int) -> list:
        """`token_test` of every transition, in declaration order; built once
        per mode and size, the subset tests sharing one `top`.  Empty for a
        mode outside `MODES`, which callers refuse (`check_mode`) first."""
        if mode not in MODES:
            return []
        if (mode, size) not in self.tests:
            top = int.from_bytes((bytes(size - 1) + b"\x80") * self.width * len(self.place_ids), "little")
            self.tests[mode, size] = [self.token_test(k, mode, size, top) for k in range(len(self.spans))]
        return self.tests[mode, size]

    def token_test(self, k: int, mode: str, size: int, top: int) -> Callable[[int], tuple[str, int] | None]:
        """The token test of the firing rule for the k-th transition, on
        markings packed at `size` bytes, whose fields' top bits are `top`.

        Returns a function from a packed marking to the move (transition id,
        packed delta column) when the input places hold what the arcs call,
        and to None otherwise; the marking plus the column is the successor.
        The guard is not evaluated here.  A transition without input arcs is
        never enabled; every input place holds a token; in subset mode each
        arc's call is within its place, and in exact mode each place holds
        exactly what its arc calls.  `engine.enabling_failure` reads the same
        `spans` to name the failed condition.  Subset mode sets every field's
        clear top bit and subtracts the calls: a top bit stays set just where
        the count covers the call.
        """
        spans = self.spans[k]
        if not spans or mode == "exact" and not all(any(counts) for _, counts in spans):
            # in exact mode an arc calling no tokens needs a token at its
            # place, so it never matches exactly
            return lambda m: None
        bits = 8 * size
        place = (1 << bits * self.width) - 1  # the fields of the first place
        move = (self.transition_ids[k], sum(d << bits * slot for slot, d in self.delta[k]))
        calls = sum(n << bits * (lo + j) for lo, counts in spans for j, n in enumerate(counts))
        if mode == "exact":
            span = sum(place << bits * lo for lo, _ in spans)
            return lambda m: move if m & span == calls else None
        # an arc calling no tokens still needs a token at its place
        occupied = tuple(place << bits * lo for lo, counts in spans if not any(counts))
        return lambda m: move if ((m | top) - calls) & top == top and (
            not occupied or all(m & p for p in occupied)) else None

    def explore(self, start: Marking, live: Sequence[int], mode: str,
                max_depth: int, max_states: int):
        """Breadth-first search from `start` firing only the transitions `live`.

        Returns (nodes, depths, edges, deadlocks, truncated) as
        `algebra.reachability_graph` defines them.  Nodes are under max_states
        firings deep, and expanded only above max_depth, so every marking
        computed is at most min(max_depth, max_states) firings from `start`.

        `live` is cut into maximal runs of consecutive transitions that read
        the same input places.  The `token_tests` of a run's transitions read
        only those places' fields (`mask`): no subset-mode borrow leaves its
        field, and the exact spans lie within `mask`.  So a run's moves at `m`
        are memoised under `m & mask`, in a memo built for this call only.
        Nodes are found level by level, so the depths are read off the level
        boundaries.  The nodes are decoded once, at the end.
        """
        m0, size = self.pack(self.encode(start), min(max_depth, max_states))
        place = (1 << 8 * size * self.width) - 1  # the fields of the first place
        tests = self.token_tests(mode, size)
        runs = [(sum(place << 8 * size * lo for lo in reads), [tests[k] for k in run], {})
                for reads, run in groupby(live, lambda k: {lo for lo, _ in self.spans[k]})]
        nodes: list[int] = [m0]
        depths: list[int] = []  # filled a level at a time
        index: dict[int, int] = {m0: 0}
        edges: list[tuple[int, str, int]] = []
        deadlocks: list[int] = []
        truncated = False
        room = max_states - 1  # nodes that may still be added
        depth, end = -1, 0  # the level being walked, and the index past it
        add_node, add_edge, seen = nodes.append, edges.append, index.get

        for i, m in enumerate(nodes):  # nodes grows while it is walked
            if i == end:  # the first node of the next level: all of it is found
                depth, end = depth + 1, len(nodes)
                depths += repeat(depth, end - i)
            options = []
            for mask, run, memo in runs:
                key = m & mask
                moves = memo.get(key)
                if moves is None:
                    moves = memo[key] = [move for test in run if (move := test(key))]
                options += moves
            if not options:
                deadlocks.append(i)
                continue
            if depth >= max_depth:
                truncated = True  # frontier had live transitions beyond the depth bound
                continue
            for t, delta in options:
                after = m + delta
                j = seen(after)
                if j is None:
                    if not room:
                        truncated = True
                        continue
                    room -= 1
                    j = index[after] = len(nodes)
                    add_node(after)
                add_edge((i, t, j))
        return self.decode(nodes, size), depths, edges, deadlocks, truncated
