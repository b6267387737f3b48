"""The compiled net: one integer slot per (place, color), in incidence form.

This is the colour unfolding of the net (Jensen, *Coloured Petri Nets*, 1992)
written as Murata's integer incidence matrix (Proc. IEEE 77(4), 1989).  A
marking becomes a vector of counts and a firing adds an integer column, so
the bulk analyses in `algebra` and the firing loops in `engine` hash,
compare and add plain integers instead of formal sums.

The firing kernel packs the vector into one int, whole bytes per slot, as
explicit-state model checkers pack a state into one word (Holzmann, IEEE
TSE 23(5), 1997): a token test is one subtraction and a firing one addition.
Each call sizes the fields from the firings it can make (`pack`).

`Net.compiled` builds a `CompiledNet` on first use and imports this module
only then: most `opn` runs never need it and do not pay to load it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .expr import compile_guard
from .model import MODES, Environment, Marking, Net
from .multiset import Multiset


class CompiledNet:
    """A net unfolded over integer (place, color) slots.

    Slot ``i * width + j`` counts the tokens of ``colors[j]`` at the i-th
    declared place.  The colors, sorted, are the declared ones, every color
    on an arc, and any `extra_colors`.  Per transition, in declaration order:

    * ``delta[k]``: the nonzero (slot, d) of the transition's incidence column;
    * ``spans[k]``: (lo, hi, counts) per input arc, the arc's place slots and
      the counts it calls there; empty when the transition has no input arc;
    * ``guards[k]``: its guard, compiled by `guard` on first use.

    ``peak`` is the largest count an arc calls, ``rise`` the largest positive
    incidence entry (or 0).

    The view holds the net's ids but not the net, so caching it on the `Net`
    makes no reference cycle.
    """

    __slots__ = ("place_ids", "transition_ids", "colors", "column", "width",
                 "delta", "spans", "guard_exprs", "guards", "tests", "peak", "rise")

    def __init__(self, net: Net, extra_colors: Iterable[str] = ()):
        colors = set(net.colors).union(extra_colors)
        for arc in net.arcs:
            colors.update(arc.weight.colors())
        self.place_ids = net.place_ids
        self.transition_ids = net.transition_ids
        self.guard_exprs = tuple(t.guard for t in net.transitions)
        self.guards: list[Callable[[Environment], bool] | None] = [None] * len(self.guard_exprs)
        self.tests: dict[tuple[str, int], list] = {}
        self.colors = tuple(sorted(colors))
        self.width = width = len(self.colors)
        self.column = column = {c: j for j, c in enumerate(self.colors)}
        base = {p: i * width for i, p in enumerate(net.place_ids)}
        self.delta, self.spans = [], []
        for t in net.transition_ids:
            spans, delta = [], {}
            for place, called in net.inputs[t]:
                lo = base[place]
                counts = [0] * width
                for color, n in called.items():
                    counts[column[color]] = n
                    delta[lo + column[color]] = -n
                spans.append((lo, lo + width, tuple(counts)))
            for place, deposited in net.outputs[t]:
                for color, n in deposited.items():
                    slot = base[place] + column[color]
                    delta[slot] = delta.get(slot, 0) + n
            self.delta.append(tuple((s, d) for s, d in sorted(delta.items()) if d))
            self.spans.append(tuple(spans))
        self.peak = max((n for spans in self.spans for _, _, counts in spans for n in counts), default=0)
        self.rise = max((d for column in self.delta for _, d in column if d > 0), default=0)

    def covering(self, net: Net, *markings: Marking) -> "CompiledNet":
        """This view of `net`, or a copy widened to the colors the markings
        hold beyond it (possible only in markings `validate_net` would reject)."""
        held = {c for m in markings for _, ms in m.items() for c in ms.colors()}
        extra = held.difference(self.colors)
        return CompiledNet(net, extra) if extra else self

    def encode(self, m: Marking) -> tuple[int, ...]:
        """Slot counts of `m` at the net's places; other places are ignored."""
        width, column = self.width, self.column
        vec = [0] * (width * len(self.place_ids))
        for i, pid in enumerate(self.place_ids):
            for color, n in m[pid].items():
                vec[i * width + column[color]] = n
        return tuple(vec)

    def pack(self, vec: Sequence[int], firings: int = 0) -> tuple[int, int]:
        """`vec` as one int of `size`-byte fields, slot 0 lowest, and `size`:
        the fewest bytes whose top bit stays clear for every count an arc
        calls or `firings` firings, each adding at most `rise`, reach."""
        bound = max(max(vec, default=0), self.peak) + firings * self.rise
        size = (bound.bit_length() + 8) // 8
        return int.from_bytes(b"".join(n.to_bytes(size, "little") for n in vec), "little"), size

    def decode(self, packed: Iterable[int], size: int, base: Marking | None = None) -> list[Marking]:
        """Markings of ints packed at `size` bytes a field, each with the
        places of `base` outside the net carried unchanged.

        Equal place contents share one `Multiset` across the whole batch.
        """
        step = self.width * size
        places = [(pid, i * step, (i + 1) * step) for i, pid in enumerate(self.place_ids)]
        rest = {p: ms for p, ms in base.items() if p not in self.place_ids} if base else {}
        empty, length = bytes(step), step * len(places)
        shared: dict[bytes, Multiset] = {}
        out = []
        for m in packed:
            raw = m.to_bytes(length, "little")
            assignment = dict(rest)
            for pid, lo, hi in places:
                counts = raw[lo:hi]
                if counts != empty:
                    ms = shared.get(counts)
                    if ms is None:
                        ms = shared[counts] = Multiset({c: int.from_bytes(counts[j:j + size], "little")
                                                        for c, j in zip(self.colors, range(0, step, size))})
                    assignment[pid] = ms
            out.append(Marking._of(assignment))
        return out

    def guard(self, k: int) -> Callable[[Environment], bool]:
        """The guard of the k-th transition as a function (`expr.compile_guard`),
        compiled on first use."""
        fn = self.guards[k]
        if fn is None:
            fn = self.guards[k] = compile_guard(self.guard_exprs[k])
        return fn

    def token_tests(self, mode: str, size: int) -> list:
        """Per transition, `enabled_moves` for it alone; built once per mode and
        size.  Empty for a mode outside `MODES`, which callers refuse before
        they fire."""
        if mode not in MODES:
            return []
        if (mode, size) not in self.tests:
            self.tests[mode, size] = [self.enabled_moves([k], mode, size) for k in range(len(self.spans))]
        return self.tests[mode, size]

    def enabled_moves(self, live: Iterable[int], mode: str, size: int):
        """The token test of the firing rule on markings packed at `size` bytes.

        Returns a function from a packed marking to the (transition id,
        packed delta column) of each transition of `live` whose input places
        hold what its arcs call, in the order of `live`; the marking plus the
        column is the successor.  Guards are not evaluated here.  A
        transition without input arcs is never enabled; every input place
        holds a token; in subset mode each arc's call is within its place,
        and in exact mode each place holds exactly what its arc calls.
        `engine.enabling_failure` reads the same `spans` to name the failed
        condition.  Subset mode sets every field's clear top bit and subtracts
        the calls: a top bit stays set just where the count covers the call.
        """
        bits, ids = 8 * size, self.transition_ids
        place = (1 << bits * self.width) - 1  # the fields of the first place

        def packed(pairs) -> int:
            return sum(n << bits * slot for slot, n in pairs)

        def calls(spans) -> int:
            return packed((lo + j, n) for lo, _, counts in spans for j, n in enumerate(counts))

        live = [(self.spans[k], (ids[k], packed(self.delta[k]))) for k in live if self.spans[k]]
        if mode == "exact":
            # an arc calling no tokens needs a token at its place, so it
            # never matches exactly: its transition is never enabled
            exact = [(packed((lo, place) for lo, _, _ in spans), calls(spans), move)
                     for spans, move in live if all(any(counts) for _, _, counts in spans)]

            def moves(m):
                return [move for span, counts, move in exact if m & span == counts]
            return moves

        top = int.from_bytes((bytes(size - 1) + b"\x80") * self.width * len(self.place_ids), "little")
        # an arc calling no tokens still needs a token at its place
        subset = [(calls(spans), move, [place << bits * lo for lo, _, counts in spans if not any(counts)])
                  for spans, move in live]

        def moves(m):
            held = m | top
            return [move for pre, move, occupied in subset
                    if (held - pre) & top == top and (not occupied or all(m & p for p in occupied))]
        return moves

    def explore(self, start: Marking, live: Sequence[int], mode: str,
                max_depth: int, max_states: int):
        """Breadth-first search from `start` firing only the transitions `live`.

        Returns (nodes, depths, edges, deadlocks, truncated) as
        `algebra.reachability_graph` defines them.  Nodes are under max_states
        firings deep, and expanded only above max_depth, so every marking
        computed is at most min(max_depth, max_states) firings from `start`.
        """
        m0, size = self.pack(self.encode(start), min(max_depth, max_states))
        moves = self.enabled_moves(live, mode, size)
        nodes: list[int] = [m0]
        depths: list[int] = [0]
        index: dict[int, int] = {m0: 0}
        edges: list[tuple[int, str, int]] = []
        deadlocks: list[int] = []
        truncated = False

        for i, m in enumerate(nodes):  # nodes grows while it is walked
            options = moves(m)
            if not options:
                deadlocks.append(i)
                continue
            if depths[i] >= max_depth:
                truncated = True  # frontier had live transitions beyond the depth bound
                continue
            for t, delta in options:
                after = m + delta
                j = index.get(after)
                if j is None:
                    if len(nodes) >= max_states:
                        truncated = True
                        continue
                    j = len(nodes)
                    nodes.append(after)
                    depths.append(depths[i] + 1)
                    index[after] = j
                edges.append((i, t, j))
        return self.decode(nodes, size, start), depths, edges, deadlocks, truncated
