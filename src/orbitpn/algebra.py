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

from operator import index
from typing import TYPE_CHECKING, Sequence

from .core import check_mode
from .model import Environment, Marking, Net
from .multiset import Record, SignedMultiset

if TYPE_CHECKING:
    from .engine import Trace


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
    rows = {p: [{} for _ in net.transition_ids] for p in net.place_ids}
    for j, column in enumerate(view.delta):
        for slot, d in column:
            place, color = view.slot_names[slot]
            rows[place][j][color] = d
    return IncidenceMatrix(net.place_ids, net.transition_ids,
                           tuple(tuple(map(SignedMultiset, row)) for row in rows.values()))


def format_incidence(matrix: IncidenceMatrix) -> str:
    """Aligned grid of canonical entry strings, labeled by place/transition ids."""
    cells = [[str(e) for e in row] for row in matrix.entries]
    label_w = max((len(p) for p in matrix.place_ids), default=0)
    widths = [
        max([len(t)] + [len(row[j]) for row in cells])
        for j, t in enumerate(matrix.transition_ids)
    ]
    lines = [" " * label_w + "  " + "  ".join(t.rjust(w) for t, w in zip(matrix.transition_ids, widths))]
    for pid, row in zip(matrix.place_ids, cells):
        lines.append(pid.ljust(label_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def apply_state_equation(net: Net, m: Marking, u: Sequence[int]) -> Marking:
    """M + A*u over the compiled slot vector, converted back to a marking.

    Raises InfeasibleMarkingError when any color count goes negative: the
    algebraic result is not a marking, i.e. `u` is not executable from `m`.
    The first negative count is reported, places in declaration order and
    colors sorted.
    """
    u = tuple(map(index, u))
    if len(u) != len(net.transitions):
        raise ValueError(f"firing-count vector has {len(u)} entries, net has {len(net.transitions)} transitions")
    if any(count < 0 for count in u):
        raise ValueError("firing counts must be nonnegative")
    view = net.compiled
    vec = list(view.encode(m))
    for count, column in zip(u, view.delta):
        if count:
            for slot, d in column:
                vec[slot] += count * d
    for slot, n in enumerate(vec):
        if n < 0:
            raise InfeasibleMarkingError(*view.slot_names[slot], n)
    packed, size = view.pack(vec)
    return view.decode([packed], size)[0]


def check_reachability_condition(net: Net, m0: Marking, md: Marking,
                                 max_total_firings: int) -> tuple[int, ...] | None:
    """Search for a firing-count witness X with Md - M0 = A*X.

    Tries the nonnegative integer vectors with at most `max_total_firings`
    total firings in lexicographic order and returns the least solution, or
    None when none works.  With no witness it tries all C(max_total_firings
    + n, n) of them for n transitions, with no cap yet: 721,801 on a fan of
    1,200 transitions (P0 -> t_i -> P1) at bound 2 (ROADMAP item 3).  A
    witness only certifies the necessary condition; absence certifies
    unreachability only up to the bound.  Guards are ignored: this is pure algebra.

    Candidates are tested on one packed residual, Md - M0 - A*X over the
    slots some column of `CompiledNet.delta` touches (`_least_solution`).
    """
    max_total_firings = index(max_total_firings)
    if max_total_firings < 0:
        raise ValueError("max_total_firings must be nonnegative")
    view = net.compiled
    resid = [b - a for a, b in zip(view.encode(m0), view.encode(md))]
    return _least_solution(view.delta, max_total_firings, resid)


def _least_solution(columns: Sequence[Sequence[tuple[int, int]]], budget: int,
                    resid: Sequence[int]) -> tuple[int, ...] | None:
    """The lexicographically least count vector with at most `budget` firings
    that takes every residual to zero, count j firing column `columns[j]`;
    None at once when a residual is nonzero at a slot no column touches.

    An odometer, the last count turning fastest: while firings are `left`, the
    last count goes up by one; else the last nonzero count (`last`) goes back
    to zero and the one before it up by one.  No step builds a tuple, a
    closure or a frame.

    The residuals are one int: a `w`-bit field per touched slot, holding the
    slot's residual plus 2**(w-1).  No residual leaves +-span, span =
    max|resid| + budget * max|d| over the column entries d, and `w` is the
    fewest bits that hold +-span, so no candidate carries across a field: a
    step is one big-int subtraction, a reset one addition, and the solution
    test one comparison with `zero`, every field at 2**(w-1).  A step's cost
    grows with the touched slots, not with the slots its column changes, so
    a list of residuals is faster past about 500 touched slots (1.9 times at
    1,201); every bundled model has at most 24.
    """
    touched = {slot for column in columns for slot, _ in column}
    if any(d and slot not in touched for slot, d in enumerate(resid)):
        return None  # no firing changes that count
    span = max(map(abs, resid), default=0) + budget * max(
        (abs(d) for column in columns for _, d in column), default=0)
    w = span.bit_length() + 1
    shift = {slot: w * i for i, slot in enumerate(sorted(touched))}
    bias = 1 << w - 1
    zero = sum(bias << s for s in shift.values())
    packed = [sum(d << shift[slot] for slot, d in column) for column in columns]
    r = zero + sum(resid[slot] << s for slot, s in shift.items())
    counts = [0] * len(columns)
    left, last, top = budget, -1, len(columns) - 1
    while r != zero:
        if left:
            j = last = top
        elif last > 0:
            c, counts[last] = counts[last], 0
            left += c
            r += c * packed[last]
            j = last = last - 1
        else:
            return None
        counts[j] += 1
        left -= 1
        r -= packed[j]
    return tuple(counts)


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
        return self.nodes.index(m) if m in self.nodes else None


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
    max_depth, max_states = index(max_depth), index(max_states)
    if max_depth < 0 or max_states < 1:
        raise ValueError("max_depth must be >= 0 and max_states >= 1")
    check_mode(mode)
    view = net.compiled
    live = view.live(env)
    nodes, depths, edges, deadlocks, truncated = view.explore(m0, live, mode, max_depth, max_states)
    return ReachabilityGraph(tuple(nodes), tuple(depths), tuple(edges), tuple(deadlocks), truncated)
