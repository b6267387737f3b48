"""Linear-algebraic view of a net: incidence matrix, state equation, reachability.

The incidence matrix is places x transitions with signed-multiset entries:
entry (p, t) is the tokens t deposits into p minus the tokens it calls from p.
The marking after a batch of firings is M' = M + A*u for a firing-count vector
u, and a destination marking Md can only be reachable from M0 if some
nonnegative integer vector X solves Md - M0 = A*X.  The condition is
necessary, not sufficient; `reachability_graph` provides the executable
confirmation by brute-force search.

The incidence matrix, the state equation, the witness check and the
reachability search all read `Net.compiled` (see `core`): the net unfolded
into one integer slot per (place, color), compiled once per net, in which a
marking is a tuple of counts (one packed int in the search) and a firing
adds an integer column.  The incidence matrix shows those columns.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .engine import Trace, _check_mode
from .model import Environment, Marking, Net
from .multiset import Record, SignedMultiset


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


class IncidenceMatrix(Record):
    __slots__ = __match_args__ = ("place_ids", "transition_ids", "entries")
    place_ids: tuple[str, ...]
    transition_ids: tuple[str, ...]
    entries: tuple[tuple[SignedMultiset, ...], ...]  # rows: places, columns: transitions

    def entry(self, place: str, transition: str) -> SignedMultiset:
        return self.entries[self.place_ids.index(place)][self.transition_ids.index(transition)]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.place_ids), len(self.transition_ids)


def incidence_matrix(net: Net) -> IncidenceMatrix:
    """Entry (p, t) = output weight w(t->p) minus input weight w(p->t), read
    off the compiled incidence columns (`CompiledNet.delta`)."""
    view = net.compiled
    rows = [[{} for _ in net.transition_ids] for _ in net.place_ids]
    for j, column in enumerate(view.delta):
        for slot, d in column:
            place, color = divmod(slot, view.width)
            rows[place][j][view.colors[color]] = d
    return IncidenceMatrix(net.place_ids, net.transition_ids,
                           tuple(tuple(map(SignedMultiset, row)) for row in rows))


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


def _check_places(net: Net, m: Marking) -> None:
    """KeyError for the first place of `m` that the net lacks."""
    for place in m.places():
        if place not in net.place_index:
            raise KeyError(f"marking references unknown place {place!r}")


def apply_state_equation(net: Net, m: Marking, u: Sequence[int]) -> Marking:
    """M + A*u over the compiled slot vector, converted back to a marking.

    Raises InfeasibleMarkingError when any color count goes negative: the
    algebraic result is not a marking, i.e. `u` is not executable from `m`.
    The first negative count is reported, places in declaration order and
    colors sorted.
    """
    u = tuple(u)
    if len(u) != len(net.transitions):
        raise ValueError(f"firing-count vector has {len(u)} entries, net has {len(net.transitions)} transitions")
    if any(count < 0 for count in u):
        raise ValueError("firing counts must be nonnegative")
    _check_places(net, m)
    view = net.compiled.covering(net, m)
    vec = list(view.encode(m))
    for count, column in zip(u, view.delta):
        if count:
            for slot, d in column:
                vec[slot] += count * d
    for slot, n in enumerate(vec):
        if n < 0:
            place, color = divmod(slot, view.width)
            raise InfeasibleMarkingError(net.place_ids[place], view.colors[color], n)
    packed, size = view.pack(vec)
    return view.decode([packed], size)[0]


def check_reachability_condition(net: Net, m0: Marking, md: Marking,
                                 max_total_firings: int) -> tuple[int, ...] | None:
    """Search for a firing-count witness X with Md - M0 = A*X.

    Exhaustively enumerates nonnegative integer vectors with at most
    `max_total_firings` total firings and returns the lexicographically least
    solution, or None when no vector within the bound works.  A witness only
    certifies the necessary condition; absence certifies unreachability only
    up to the bound.  Guards are ignored: this is pure algebra.

    Each candidate is tested by integer dot products with the rows of the
    compiled incidence matrix that some transition touches.
    """
    if max_total_firings < 0:
        raise ValueError("max_total_firings must be nonnegative")
    _check_places(net, md)
    _check_places(net, m0)
    view = net.compiled.covering(net, m0, md)
    target = [b - a for a, b in zip(view.encode(m0), view.encode(md))]
    n = len(net.transitions)
    rows: dict[int, list[int]] = {}
    for j, column in enumerate(view.delta):
        for slot, d in column:
            rows.setdefault(slot, [0] * n)[j] = d
    if any(d and slot not in rows for slot, d in enumerate(target)):
        return None  # no firing changes that count
    equations = [(row, target[slot]) for slot, row in sorted(rows.items())]
    return _least_solution((), n, max_total_firings, equations)


def _least_solution(prefix: tuple[int, ...], n: int, budget: int,
                    equations: list[tuple[list[int], int]]) -> tuple[int, ...] | None:
    """The lexicographically least extension of `prefix` to `n` counts, with at
    most `budget` more firings, that solves every (row, want) equation."""
    if len(prefix) == n:
        return prefix if all(sum(map(mul, row, prefix)) == want for row, want in equations) else None
    for count in range(budget + 1):
        found = _least_solution(prefix + (count,), n, budget - count, equations)
        if found is not None:
            return found
    return None


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


class ReachabilityGraph(Record):
    """Breadth-first closure of a marking under single firings, within bounds."""
    __slots__ = __match_args__ = ("nodes", "depths", "edges", "deadlocks", "truncated")
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

    The search runs over the packed markings of the compiled net
    (`CompiledNet.explore`); nodes become `Marking`s once, at the end.
    """
    if max_depth < 0 or max_states < 1:
        raise ValueError("max_depth must be >= 0 and max_states >= 1")
    if net.transitions:
        _check_mode(mode)
    view = net.compiled.covering(net, m0)
    # The environment is fixed, so every guard is evaluated once, in
    # declaration order, as the checks at the first state would: an unbound
    # variable raises whether or not any transition is token-enabled.
    live = [k for k in range(len(net.transitions)) if view.guard(k)(env)]
    nodes, depths, edges, deadlocks, truncated = view.explore(m0, live, mode, max_depth, max_states)
    return ReachabilityGraph(tuple(nodes), tuple(depths), tuple(edges), tuple(deadlocks), truncated)
