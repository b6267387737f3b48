"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from orbitpn import (
    AndExpr,
    Arc,
    Arith,
    Comparison,
    Marking,
    Multiset,
    Net,
    NotExpr,
    NumLit,
    OrExpr,
    Place,
    SignedMultiset,
    TRUE,
    Transition,
    TrueLiteral,
    VarRef,
)
from reference import guard_variables

RESERVED = {"true", "and", "or", "not"}

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s not in RESERVED
)

color_lists = st.lists(identifiers, min_size=1, max_size=4, unique=True)


def multisets_over(colors, min_size=0, max_coeff=3):
    return st.dictionaries(
        st.sampled_from(sorted(colors)), st.integers(1, max_coeff), min_size=min_size
    ).map(Multiset)


signed_multisets = st.dictionaries(identifiers, st.integers(-5, 5), max_size=4).map(
    SignedMultiset
)

_numbers = st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False)

_num_leaves = st.one_of(_numbers.map(NumLit), identifiers.map(VarRef))


@st.composite
def num_exprs(draw):
    # the guard grammar has no numeric parentheses, so only left-nested
    # arithmetic is representable; build sums by left fold
    leaves = draw(st.lists(_num_leaves, min_size=1, max_size=4))
    e = leaves[0]
    for leaf in leaves[1:]:
        e = Arith(draw(st.sampled_from("+-")), e, leaf)
    return e


comparisons = st.builds(
    Comparison, st.sampled_from(("<", "<=", ">", ">=", "==", "!=")), num_exprs(), num_exprs()
)

guards = st.recursive(
    st.one_of(st.just(TrueLiteral()), comparisons),
    lambda inner: st.one_of(
        inner.map(NotExpr),
        st.builds(AndExpr, inner, inner),
        st.builds(OrExpr, inner, inner),
    ),
    max_leaves=6,
)


def replace_net(net: Net, **changes) -> Net:
    """A copy of `net` with the given fields changed."""
    return Net(**{name: changes.get(name, getattr(net, name)) for name in Net.__match_args__})


@st.composite
def nets(draw, max_places=5, max_transitions=4, max_colors=4, max_tokens_per_place=3):
    """Random guardless net that passes validation by construction."""
    colors = tuple(draw(st.lists(identifiers, min_size=1, max_size=max_colors, unique=True)))
    place_ids = [f"P{i}" for i in range(1, draw(st.integers(1, max_places)) + 1)]
    places = tuple(Place(p, draw(st.sampled_from((1, -1)))) for p in place_ids)
    tids = [f"t{i}" for i in range(1, draw(st.integers(1, max_transitions)) + 1)]
    arcs = []
    for t in tids:
        inputs = draw(st.lists(st.sampled_from(place_ids), unique=True, max_size=3))
        outputs = draw(st.lists(st.sampled_from(place_ids), unique=True, max_size=3))
        for p in inputs:
            arcs.append(Arc(p, t, draw(multisets_over(colors, min_size=1, max_coeff=2))))
        for p in outputs:
            arcs.append(Arc(t, p, draw(multisets_over(colors, min_size=1, max_coeff=2))))
    marking = Marking(
        {p: draw(multisets_over(colors, max_coeff=max_tokens_per_place)) for p in place_ids}
    )
    return Net(
        name="random",
        colors=colors,
        places=places,
        transitions=tuple(Transition(t) for t in tids),
        arcs=tuple(arcs),
        initial_marking=marking,
    )


#: counts next to the field widths of the packed firing kernel
#: (`core.CompiledNet.pack`): 2**7, 2**8, 2**15, 2**16, 2**31 or 2**40, give or take 3
near_widths = st.sampled_from((7, 8, 15, 16, 31, 40)).flatmap(
    lambda e: st.integers(2 ** e - 3, 2 ** e + 3))


@st.composite
def live_nets(draw):
    """A random net with random guards, an environment binding every guard
    variable, and a start marking at which each place holds the tokens one of
    its input arcs calls (plus, sometimes, the random marking's tokens).

    Some input arcs call no tokens, which `validate_net` rejects but the
    engine still defines; drawing one makes some places start empty.  Some
    nets add a count near a field width (`near_widths`) to some counts of
    their arcs and start marking, so that calls, deposits and held tokens
    cross every byte width."""
    net = draw(nets())
    big = draw(st.none() | near_widths)

    def scaled(w):
        if big is None or not draw(st.booleans()):
            return w
        return Multiset({c: n + big if draw(st.booleans()) else n for c, n in w.items()})

    net = replace_net(net, arcs=tuple(
        Arc(a.source, a.target, Multiset())
        if a.target in net.transition_index and draw(st.integers(0, 3)) == 0
        else Arc(a.source, a.target, scaled(a.weight))
        for a in net.arcs))
    marking = {}
    for pid in net.place_ids:
        called = [w for t in net.transition_ids for p, w in net.inputs[t] if p == pid]
        held = scaled(net.initial_marking[pid])
        if called:
            held = draw(st.sampled_from(called)) + draw(st.sampled_from((Multiset(), held)))
        marking[pid] = held
    transitions = tuple(Transition(t.id, draw(st.one_of(st.just(TRUE), guards)))
                        for t in net.transitions)
    names = sorted(set().union(*(guard_variables(t.guard) for t in transitions)))
    env = {name: draw(st.floats(0, 10, allow_nan=False)) for name in names}
    return replace_net(net, transitions=transitions, initial_marking=Marking(marking)), env


@st.composite
def rising_starts(draw, net, firings):
    """`net`, or now and then `net` with a start marking that holds, at every
    (place, color) some transition raises, a count `firings` or fewer below a
    boundary of the packed kernel's field widths (2**7, 2**15 or 2**23), so
    that a firing sequence of that length can cross it."""
    if firings < 1 or draw(st.booleans()):
        return net
    edge = 2 ** draw(st.sampled_from((7, 15, 23))) - draw(st.integers(1, firings))
    marking = dict(net.initial_marking.items())
    for t in net.transition_ids:
        called = dict(net.inputs[t])
        for place, deposited in net.outputs[t]:
            for color, n in deposited.items():
                if n > called.get(place, Multiset()).count(color):
                    held = marking.get(place, Multiset())
                    marking[place] = held + Multiset({color: max(0, edge - held.count(color))})
    return replace_net(net, initial_marking=Marking(marking))
