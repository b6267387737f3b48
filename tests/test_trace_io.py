"""Trace replay against the whole-document pipeline of `tests/reference.py`.

`trace_io.replay` checks a document in the packed domain of the compiled
net; `reference.replay` reads it into a `Trace`, re-fires it through
`engine.fire_sequence` and compares the traces.  On documents of random
guarded nets, damaged in up to three ways, both return the same marking or
raise a `ReplayError` with the same text.
"""

import copy
import functools
import json

from hypothesis import given
from hypothesis import strategies as st

from orbitpn import (TRUE, AndExpr, Comparison, FiringEvent, Marking, Multiset, NumLit, Trace,
                     Transition, VarRef, trace_io)
from orbitpn.model import MODES
import reference
from reference import guard_variables
from strategies import live_nets, replace_net, rising_starts

# integers past float range too, which float() refuses with an OverflowError
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 1024, 2 ** 1030)
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def documents(draw):
    """A `live_nets()` net and the document of a walk the reference rule
    fires on it, sometimes from a start a few firings below a field-width
    boundary.  So that walks run long, half the nets start with every call
    of every arc added, and have each guard replaced by one that reads the
    same variables and always holds."""
    net, env = draw(live_nets())
    if draw(st.booleans()):
        marking = dict(net.initial_marking.items())
        for inputs in reference.arcs_by_transition(net)[0].values():
            for place, called in inputs:
                marking[place] = marking.get(place, Multiset()) + called
        net = replace_net(net, initial_marking=Marking(marking), transitions=tuple(
            Transition(t.id, functools.reduce(AndExpr, (
                Comparison(">=", VarRef(name), NumLit(0)) for name in sorted(guard_variables(t.guard))),
                TRUE)) for t in net.transitions))
    length = draw(st.sampled_from(range(6, -1, -1)))
    net = draw(rising_starts(net, length))
    mode = draw(st.sampled_from(MODES))
    m, events = net.initial_marking, []
    for k in range(1, length + 1):
        env = {name: draw(st.floats(0, 10, allow_nan=False)) for name in env}
        options = reference.enabled_set(net, m, env, mode)
        if not options:
            break
        t = draw(st.sampled_from(options))
        m = reference.fire(net, m, t, env, mode)
        events.append(FiringEvent(k, t, env, m))
    trace = Trace(net.name, net.initial_marking, events)
    return net, json.loads(json.dumps(trace_io.trace_document(net, trace, mode, env)))


def markings(doc):
    """The marking objects of the document, `initial` and `final` included."""
    found = [doc.get(key) for key in ("initial", "final")]
    if isinstance(doc.get("events"), list):
        found += [ev.get("marking") for ev in doc["events"] if isinstance(ev, dict)]
    return [m for m in found if isinstance(m, dict)]


def containers(doc):
    """Every object and array of the document, itself included, as far as it keeps its shape."""
    found = [doc, *markings(doc)]
    events = doc.get("events")
    if isinstance(events, list):
        found.append(events)
        for ev in events:
            if isinstance(ev, dict):
                found.append(ev)
                found += [ev["env"]] if isinstance(ev.get("env"), dict) else []
    return found


@st.composite
def damaged(draw, net, doc):
    """`doc` with one drawn damage; markings name the net's colors, so they
    mostly parse."""
    kind = draw(st.sampled_from(("drop", "set", "transition", "unbind", "outside", "cap", "mode")))
    events = doc.get("events")
    events = [ev for ev in events if isinstance(ev, dict)] if isinstance(events, list) else []
    if kind == "drop":
        box = draw(st.sampled_from([c for c in containers(doc) if isinstance(c, dict) and c]
                                   or [{}]))
        if box:
            del box[draw(st.sampled_from(sorted(box)))]
    elif kind == "set":
        box = draw(st.sampled_from([c for c in containers(doc) if c]))
        key = draw(st.sampled_from(sorted(box) if isinstance(box, dict) else range(len(box))))
        box[key] = draw(json_values)
    elif kind == "transition" and events:
        draw(st.sampled_from(events))["transition"] = draw(
            st.sampled_from(net.transition_ids + ("t_unknown",)))
    elif kind == "unbind":
        envs = [ev["env"] for ev in events if isinstance(ev.get("env"), dict) and ev["env"]]
        if envs:
            env = draw(st.sampled_from(envs))
            del env[draw(st.sampled_from(sorted(env)))]
    elif kind == "outside":  # mostly the same at every marking, now and then not
        text = draw(st.sampled_from(net.colors))
        for marking in markings(doc):
            if draw(st.integers(0, 4)):
                marking["Z"] = text if draw(st.integers(0, 4)) else f"2{text}"
    elif kind == "cap":
        boxes = markings(doc)
        if boxes:
            count = 2 ** draw(st.sampled_from((7, 8, 15, 16, 23, 31))) + draw(st.integers(-1, 1))
            color = draw(st.sampled_from(net.colors))
            place = draw(st.sampled_from(net.place_ids))
            box = draw(st.sampled_from(boxes))
            text, held = f"{count}{color}", box.get(place)
            box[place] = text + f"+{held}" if isinstance(held, str) and draw(st.booleans()) else text
    elif kind == "mode":
        doc["mode"] = draw(st.sampled_from(("loose", ["subset"], None, 1, "Exact", {"subset": 1})))
    return doc


def outcome(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as err:
        return "raised", type(err), str(err)


class TestReplayAgreesWithReference:
    @given(case=documents(), data=st.data())
    def test_damaged_documents(self, case, data):
        net, doc = case
        for _ in range(data.draw(st.integers(0, 3))):
            doc = data.draw(damaged(net, doc))
        got = outcome(trace_io.replay, net, copy.deepcopy(doc))
        want = outcome(reference.replay, net, copy.deepcopy(doc))
        assert got == want
        assert got[0] == "returned" or got[1] is trace_io.ReplayError
