"""The compiled net: one integer slot per (place, color), in incidence form.

This is the colour unfolding of the net (Jensen, *Coloured Petri Nets*, 1992)
written as Murata's integer incidence matrix (Proc. IEEE 77(4), 1989).  A
marking becomes a vector of counts and a firing adds an integer column, so
the bulk analyses in `algebra` and the firing loops in `engine` hash,
compare and add plain integers instead of formal sums.

`Net.compiled` builds a `CompiledNet` on first use and imports this module
only then: most `opn` runs never need it and do not pay to load it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .expr import compile_guard
from .model import Environment, Marking, Net
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

    The view holds the net's ids but not the net, so caching it on the `Net`
    makes no reference cycle.
    """

    __slots__ = ("place_ids", "transition_ids", "colors", "column", "width",
                 "delta", "spans", "guard_exprs", "guards", "tests")

    def __init__(self, net: Net, extra_colors: Iterable[str] = ()):
        colors = set(net.colors).union(extra_colors)
        for arc in net.arcs:
            colors.update(arc.weight.colors())
        self.place_ids = net.place_ids
        self.transition_ids = net.transition_ids
        self.guard_exprs = tuple(t.guard for t in net.transitions)
        self.guards: list[Callable[[Environment], bool] | None] = [None] * len(self.guard_exprs)
        self.tests: dict[str, list] = {}
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

    def decode(self, vectors: Iterable[tuple[int, ...]], base: Marking | None = None) -> list[Marking]:
        """Markings of slot tuples, each with the places of `base` outside the
        net carried unchanged.

        Equal place contents share one `Multiset` across the whole batch.
        """
        width, colors = self.width, self.colors
        places = [(pid, i * width, (i + 1) * width) for i, pid in enumerate(self.place_ids)]
        rest = {p: ms for p, ms in base.items() if p not in self.place_ids} if base else {}
        empty = (0,) * width
        shared: dict[tuple[int, ...], Multiset] = {}
        out = []
        for vec in vectors:
            assignment = dict(rest)
            for pid, lo, hi in places:
                counts = vec[lo:hi]
                if counts != empty:
                    ms = shared.get(counts)
                    if ms is None:
                        ms = shared[counts] = Multiset(dict(zip(colors, counts)))
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

    def token_tests(self, mode: str) -> list:
        """Per transition, `enabled_moves` for it alone; built once per mode."""
        if mode not in self.tests:
            self.tests[mode] = [self.enabled_moves([k], mode) for k in range(len(self.spans))]
        return self.tests[mode]

    def enabled_moves(self, live: Iterable[int], mode: str):
        """The token test of the firing rule on slot tuples.

        Returns a function from a slot tuple to the (transition id, delta
        column) of each transition of `live` whose input places hold what its
        arcs call, in the order of `live`.  Guards are not evaluated here.
        A transition without input arcs is never enabled; every input place
        holds a token; in subset mode each arc's call is within its place,
        and in exact mode each place holds exactly what its arc calls.
        `engine.enabling_failure` reads the same `spans` to name the failed
        condition.
        """
        live = [k for k in live if self.spans[k]]
        ids = self.transition_ids
        if mode == "exact":
            # an arc calling no tokens needs a token at its place, so it
            # never matches exactly: its transition is never enabled
            exact = [(ids[k], self.spans[k], self.delta[k]) for k in live
                     if all(any(counts) for _, _, counts in self.spans[k])]

            def moves(m):
                return [(t, delta) for t, spans, delta in exact
                        if all(m[lo:hi] == counts for lo, hi, counts in spans)]
            return moves

        subset = []
        for k in live:
            spans = self.spans[k]
            calls = [(lo + j, n) for lo, _, counts in spans for j, n in enumerate(counts) if n]
            # an arc calling no tokens still needs a token at its place
            occupied = [(lo, hi) for lo, hi, counts in spans if not any(counts)]
            subset.append((ids[k], calls, self.delta[k], occupied))

        def moves(m):
            out = []
            for t, calls, delta, occupied in subset:
                for slot, n in calls:
                    if m[slot] < n:
                        break
                else:
                    if not occupied or all(any(m[lo:hi]) for lo, hi in occupied):
                        out.append((t, delta))
            return out
        return moves

    @staticmethod
    def successor(m: tuple[int, ...], delta: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """The slot tuple `m` plus a delta column."""
        after = list(m)
        for slot, d in delta:
            after[slot] += d
        return tuple(after)

    def explore(self, start: tuple[int, ...], live: Sequence[int], mode: str,
                max_depth: int, max_states: int):
        """Breadth-first search from `start` firing only the transitions `live`.

        Returns (nodes, depths, edges, deadlocks, truncated) as
        `algebra.reachability_graph` defines them, with slot vectors as nodes.
        """
        moves, successor = self.enabled_moves(live, mode), self.successor
        nodes: list[tuple[int, ...]] = [start]
        depths: list[int] = [0]
        index: dict[tuple[int, ...], int] = {start: 0}
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
                after = successor(m, delta)
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
        return nodes, depths, edges, deadlocks, truncated
