"""The compiled net: one integer slot per (place, color), in incidence form.

This is the colour unfolding of the net (Jensen, *Coloured Petri Nets*, 1992)
written as Murata's integer incidence matrix (Proc. IEEE 77(4), 1989).  A
marking becomes a vector of counts and a firing adds an integer column, so
the bulk analyses in `algebra` hash, compare and add plain integers instead
of formal sums.

`Net.compiled` builds a `CompiledNet` on first use and imports this module
only then: most `opn` runs never need it and do not pay to load it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .model import Marking, Net
from .multiset import Multiset


class CompiledNet:
    """A net unfolded over integer (place, color) slots.

    Slot ``i * width + j`` counts the tokens of ``colors[j]`` at the i-th
    declared place.  The colors, sorted, are the declared ones, every color
    on an arc, and any `extra_colors`.  Per transition, in declaration order:

    * ``pre[k]``: (slot, n) for each color n times called by each input arc;
    * ``delta[k]``: the nonzero (slot, d) of the transition's incidence column;
    * ``spans[k]``: (lo, hi, counts) per input arc, the arc's place slots and
      the counts it calls there, for exact mode; empty when the transition
      has no input arc.

    The view holds the net's ids but not the net, so caching it on the `Net`
    makes no reference cycle.
    """

    __slots__ = ("place_ids", "transition_ids", "colors", "column", "width",
                 "pre", "delta", "spans")

    def __init__(self, net: Net, extra_colors: Iterable[str] = ()):
        colors = set(net.colors).union(extra_colors)
        for arc in net.arcs:
            colors.update(arc.weight.colors())
        self.place_ids = net.place_ids
        self.transition_ids = net.transition_ids
        self.colors = tuple(sorted(colors))
        self.width = width = len(self.colors)
        self.column = column = {c: j for j, c in enumerate(self.colors)}
        base = {p: i * width for i, p in enumerate(net.place_ids)}
        self.pre, self.delta, self.spans = [], [], []
        for t in net.transition_ids:
            pre, spans, delta = [], [], {}
            for place, called in net.inputs[t]:
                lo = base[place]
                counts = [0] * width
                for color, n in called.items():
                    slot = lo + column[color]
                    pre.append((slot, n))
                    counts[column[color]] = n
                    delta[slot] = delta.get(slot, 0) - n
                spans.append((lo, lo + width, tuple(counts)))
            for place, deposited in net.outputs[t]:
                for color, n in deposited.items():
                    slot = base[place] + column[color]
                    delta[slot] = delta.get(slot, 0) + n
            self.pre.append(tuple(pre))
            self.delta.append(tuple((s, d) for s, d in sorted(delta.items()) if d))
            self.spans.append(tuple(spans))

    def covering(self, net: Net, *markings: Marking) -> "CompiledNet":
        """This view of `net`, or a copy widened to the colors the markings
        hold beyond it (possible only in markings `validate_net` would reject)."""
        held = {c for m in markings for _, ms in m.items() for c in ms.colors()}
        extra = held.difference(self.colors)
        return CompiledNet(net, extra) if extra else self

    def encode(self, m: Marking) -> list[int]:
        """Slot counts of `m` at the net's places; other places are ignored."""
        width, column = self.width, self.column
        vec = [0] * (width * len(self.place_ids))
        for i, pid in enumerate(self.place_ids):
            for color, n in m[pid].items():
                vec[i * width + column[color]] = n
        return vec

    def decode(self, vectors: Iterable[Sequence[int]],
               rest: Mapping[str, Multiset] | None = None) -> list[Marking]:
        """Markings of slot vectors, plus the fixed place contents `rest`.

        Equal place contents share one `Multiset` across the whole batch.
        """
        width, colors, place_ids = self.width, self.colors, self.place_ids
        shared: dict[tuple[int, ...], Multiset] = {}
        out = []
        for vec in vectors:
            assignment = dict(rest or {})
            for i, pid in enumerate(place_ids):
                counts = tuple(vec[i * width:(i + 1) * width])
                ms = shared.get(counts)
                if ms is None:
                    ms = shared[counts] = Multiset(dict(zip(colors, counts)))
                assignment[pid] = ms
            out.append(Marking(assignment))  # drops the empty places
        return out

    def enabled_moves(self, live: Sequence[int], mode: str):
        """The token test of `engine.enabling_failure` on slot vectors.

        Returns a function from a slot vector to the (transition id, delta
        column) of each transition of `live` whose input places hold what its
        arcs call, in the order of `live`.  Guards are not evaluated here.
        The engine's rule, which this must match: every input place holds a
        token; in subset mode each arc's call is within its place, and in
        exact mode each place holds exactly what its arc calls.
        """
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

        # an arc calling no tokens still needs a token at its place
        subset = [(ids[k], self.pre[k], self.delta[k],
                   [(lo, hi) for lo, hi, counts in self.spans[k] if not any(counts)])
                  for k in live]

        def moves(m):
            out = []
            for t, pre, delta, occupied in subset:
                for slot, n in pre:
                    if m[slot] < n:
                        break
                else:
                    if not occupied or all(any(m[lo:hi]) for lo, hi in occupied):
                        out.append((t, delta))
            return out
        return moves

    def explore(self, start: tuple[int, ...], live: Sequence[int], mode: str,
                max_depth: int, max_states: int):
        """Breadth-first search from `start` firing only the transitions `live`.

        Returns (nodes, depths, edges, deadlocks, truncated) as
        `algebra.reachability_graph` defines them, with slot vectors as nodes.
        """
        moves = self.enabled_moves(live, mode)
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
                successor = list(m)
                for slot, d in delta:
                    successor[slot] += d
                successor = tuple(successor)
                j = index.get(successor)
                if j is None:
                    if len(nodes) >= max_states:
                        truncated = True
                        continue
                    j = len(nodes)
                    nodes.append(successor)
                    depths.append(depths[i] + 1)
                    index[successor] = j
                edges.append((i, t, j))
        return nodes, depths, edges, deadlocks, truncated
