"""Linear-algebraic view of a net: incidence matrix, state equation, reachability.

The incidence matrix is places x transitions with signed-multiset entries:
entry (p, t) is the tokens t deposits into p minus the tokens it calls from p.
The marking after a batch of firings is M' = M + A*u for a firing-count vector
u, and a destination marking Md can only be reachable from M0 if some
nonnegative integer vector X solves Md - M0 = A*X.  The condition is
necessary, not sufficient; `reachability_graph` provides the executable
confirmation by brute-force search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import Trace, _move, enabled_set
from .model import Environment, Marking, Net, marking_from_vector, marking_vector
from .multiset import Multiset, SignedMultiset


class InfeasibleMarkingError(ValueError):
    """The state equation produced a negative token coefficient somewhere."""

    def __init__(self, place: str, color: str, coefficient: int):
        super().__init__(
            f"state equation yields {coefficient} of color {color!r} at place {place!r}; "
            "the firing-count vector is not executable from this marking"
        )
        self.place = place
        self.color = color
        self.coefficient = coefficient


@dataclass(frozen=True)
class IncidenceMatrix:
    place_ids: tuple[str, ...]
    transition_ids: tuple[str, ...]
    entries: tuple[tuple[SignedMultiset, ...], ...]  # rows: places, columns: transitions

    def entry(self, place: str, transition: str) -> SignedMultiset:
        return self.entries[self.place_ids.index(place)][self.transition_ids.index(transition)]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.place_ids), len(self.transition_ids)


def incidence_matrix(net: Net) -> IncidenceMatrix:
    """Entry (p, t) = output weight w(t->p) minus input weight w(p->t)."""
    deposited: dict[tuple[str, str], Multiset] = {}
    called: dict[tuple[str, str], Multiset] = {}
    for t in net.transition_ids:
        for place, w in net.inputs[t]:
            called[(place, t)] = w
        for place, w in net.outputs[t]:
            deposited[(place, t)] = w
    empty = Multiset()
    rows = tuple(
        tuple(
            SignedMultiset.difference(deposited.get((p, t), empty), called.get((p, t), empty))
            for t in net.transition_ids
        )
        for p in net.place_ids
    )
    return IncidenceMatrix(net.place_ids, net.transition_ids, rows)


def format_incidence(matrix: IncidenceMatrix) -> str:
    """Aligned grid of canonical entry strings, labeled by place/transition ids."""
    cells = [[str(e) for e in row] for row in matrix.entries]
    label_w = max((len(p) for p in matrix.place_ids), default=0)
    widths = [
        max([len(t)] + [row[j] and len(row[j]) or 1 for row in cells])
        for j, t in enumerate(matrix.transition_ids)
    ]
    lines = [" " * label_w + "  " + "  ".join(t.rjust(w) for t, w in zip(matrix.transition_ids, widths))]
    for pid, row in zip(matrix.place_ids, cells):
        lines.append(pid.ljust(label_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _column_sum(matrix: IncidenceMatrix, row: int, u: Sequence[int]) -> SignedMultiset:
    total = SignedMultiset()
    for j, count in enumerate(u):
        if count:
            total = total + matrix.entries[row][j].scale(count)
    return total


def apply_state_equation(net: Net, m: Marking, u: Sequence[int]) -> Marking:
    """M + A*u in signed-multiset arithmetic, converted back to a marking.

    Raises InfeasibleMarkingError when any color count goes negative: the
    algebraic result is not a marking, i.e. `u` is not executable from `m`.
    """
    u = tuple(u)
    if len(u) != len(net.transitions):
        raise ValueError(f"firing-count vector has {len(u)} entries, net has {len(net.transitions)} transitions")
    if any(count < 0 for count in u):
        raise ValueError("firing counts must be nonnegative")
    matrix = incidence_matrix(net)
    vector = marking_vector(net, m)
    result: list[Multiset] = []
    for i, (pid, held) in enumerate(zip(net.place_ids, vector)):
        total = SignedMultiset.from_multiset(held) + _column_sum(matrix, i, u)
        for color, coeff in total.items():
            if coeff < 0:
                raise InfeasibleMarkingError(pid, color, coeff)
        result.append(total.to_multiset())
    return marking_from_vector(net, result)


def check_reachability_condition(net: Net, m0: Marking, md: Marking,
                                 max_total_firings: int) -> tuple[int, ...] | None:
    """Search for a firing-count witness X with Md - M0 = A*X.

    Exhaustively enumerates nonnegative integer vectors with at most
    `max_total_firings` total firings and returns the lexicographically least
    solution, or None when no vector within the bound works.  A witness only
    certifies the necessary condition; absence certifies unreachability only
    up to the bound.  Guards are ignored: this is pure algebra.
    """
    if max_total_firings < 0:
        raise ValueError("max_total_firings must be nonnegative")
    matrix = incidence_matrix(net)
    delta = [
        SignedMultiset.difference(md_ms, m0_ms)
        for md_ms, m0_ms in zip(marking_vector(net, md), marking_vector(net, m0))
    ]
    n = len(net.transitions)

    def solves(x: tuple[int, ...]) -> bool:
        return all(_column_sum(matrix, i, x) == delta[i] for i in range(len(delta)))

    def search(prefix: tuple[int, ...], budget: int) -> tuple[int, ...] | None:
        if len(prefix) == n:
            return prefix if solves(prefix) else None
        for count in range(budget + 1):
            found = search(prefix + (count,), budget - count)
            if found is not None:
                return found
        return None

    return search((), max_total_firings)


def firing_counts(net: Net, trace: Trace) -> tuple[int, ...]:
    """Tally of firings per transition, in declaration order."""
    counts = [0] * len(net.transitions)
    for event in trace.events:
        counts[net.transition_index[event.transition]] += 1
    return tuple(counts)


def verify_sequence_consistency(net: Net, trace: Trace) -> bool:
    """Engine/algebra cross-check: does the trace's final marking satisfy
    final = initial + A * (total firing counts)?"""
    counts = firing_counts(net, trace)  # raises KeyError on unknown transitions
    try:
        predicted = apply_state_equation(net, trace.initial, counts)
    except InfeasibleMarkingError:
        return False
    return predicted == trace.final


@dataclass(frozen=True)
class ReachabilityGraph:
    """Breadth-first closure of a marking under single firings, within bounds."""
    nodes: tuple[Marking, ...]
    depths: tuple[int, ...]
    edges: tuple[tuple[int, str, int], ...]  # (source node, transition, target node)
    deadlocks: tuple[int, ...]               # indices of nodes with nothing enabled
    truncated: bool

    def index_of(self, m: Marking) -> int | None:
        for i, node in enumerate(self.nodes):
            if node == m:
                return i
        return None


def reachability_graph(net: Net, m0: Marking, env: Environment, max_depth: int,
                       max_states: int, mode: str = "subset") -> ReachabilityGraph:
    """Explore markings reachable from `m0` with the environment held fixed.

    Nodes appear in breadth-first discovery order (transitions tried in
    declaration order), so the result is deterministic.  Exploration stops at
    `max_depth` firings or `max_states` distinct markings; `truncated` is set
    when either bound actually cut the search short.
    """
    if max_depth < 0 or max_states < 1:
        raise ValueError("max_depth must be >= 0 and max_states >= 1")
    nodes: list[Marking] = [m0]
    depths: list[int] = [0]
    index: dict[Marking, int] = {m0: 0}
    edges: list[tuple[int, str, int]] = []
    deadlocks: list[int] = []
    truncated = False

    i = 0
    while i < len(nodes):
        m = nodes[i]
        options = enabled_set(net, m, env, mode)
        if not options:
            deadlocks.append(i)
            i += 1
            continue
        if depths[i] >= max_depth:
            truncated = True  # frontier had live transitions beyond the depth bound
            i += 1
            continue
        for t in options:
            successor = _move(net, m, t)
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
        i += 1

    return ReachabilityGraph(tuple(nodes), tuple(depths), tuple(edges),
                             tuple(deadlocks), truncated)
