"""Tests of the benchmark itself: generator, oracles, frozen answers, counts.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from rings import ALL_TRUE_ENV, Ring, closed_form_counts, closed_form_witness  # noqa: E402

SMALL = [(k, c) for k in (2, 3, 4) for c in (1, 2, 3)]


def text_closure(text: str, env, mode: str, guard) -> tuple[int, int, int]:
    """Brute-force (states, edges, deadlocks) read from .opn text alone: token
    multisets per place, transitions in declaration order, one input and one
    output arc each, as the ring generator writes them."""
    sections = dict(re.findall(r"\[(\w+)\]\n(.*?)(?=\n\[|\Z)", text, re.S))
    tids = [line.split(":")[0].strip() for line in sections["transitions"].split("\n") if line.strip()]
    pre, post = {}, {}
    for src, dst, w in re.findall(r"(\S+) -> (\S+) : (\S+)", sections["arcs"]):
        if src.startswith("P"):
            pre[dst] = (src, w)
        else:
            post[src] = (dst, w)
    start = {}
    for place, tokens in re.findall(r"(\S+) = (\S+)", sections["marking"]):
        start[place] = tuple(sorted(tokens.split("+")))
    key = lambda m: tuple(sorted((p, ts) for p, ts in m.items() if ts))  # noqa: E731
    seen = {key(start): 0}
    queue = deque([start])
    edges = deadlocks = 0
    while queue:
        m = queue.popleft()
        moved = False
        for t in tids:
            place, colour = pre[t]
            held = m.get(place, ())
            if colour not in held or not guard(t, env) or (mode == "exact" and held != (colour,)):
                continue
            moved = True
            nxt = dict(m)
            rest = list(held)
            rest.remove(colour)
            nxt[place] = tuple(rest)
            out, deposited = post[t]
            nxt[out] = tuple(sorted(nxt.get(out, ()) + (deposited,)))
            if key(nxt) not in seen:
                seen[key(nxt)] = len(seen)
                queue.append(nxt)
            edges += 1
        deadlocks += not moved
    return len(seen), edges, deadlocks


@pytest.mark.parametrize("k,c", SMALL)
@pytest.mark.parametrize("variant", ["plain", "heavy"])
def test_subset_closure_matches_closed_form(k, c, variant):
    ring = Ring(k, c, variant, (0,) * c)
    guard = lambda t, env: ring.guard_holds(*map(int, t.split("_")[1:]), env)  # noqa: E731
    states, edges = closed_form_counts(ring)
    assert text_closure(ring.opn_text(), ALL_TRUE_ENV, "subset", guard) == (states, edges, 0)
    ans = oracle.bfs(ring, ALL_TRUE_ENV, "subset")
    assert (ans["states"], ans["edges"], ans["deadlocks"]) == (states, edges, 0)


@pytest.mark.parametrize("k,c", [(k, c) for k, c in SMALL if c <= k] + [(5, 3), (6, 3)])
def test_exact_closure_matches_text_closure(k, c):
    ring = Ring(k, c, "spread", tuple(range(c)))
    guard = lambda t, env: True  # noqa: E731
    ans = oracle.bfs(ring, ALL_TRUE_ENV, "exact")
    assert text_closure(ring.opn_text(), ALL_TRUE_ENV, "exact", guard) == (
        ans["states"], ans["edges"], ans["deadlocks"])


def test_held_colour_blocks_its_moves():
    ring = Ring(3, 2, "heavy", (0, 0))
    env = dict(ALL_TRUE_ENV, hold=1.0)
    ans = oracle.bfs(ring, env, "subset")
    assert (ans["states"], ans["edges"]) == (3, 3)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("c", [1, 2])
def test_least_witness_matches_closed_form(k, c):
    ring = Ring(k, c, "plain", (0,) * c)
    for dist in itertools.product(range(k), repeat=c):
        for bound in range(0, c * k + 1):
            want = closed_form_witness(ring, dist, bound)
            assert oracle.least_witness(ring, dist, bound) == want
            assert (want is not None) == (bound >= sum(dist))


def test_witness_moving_all_tokens_by_d():
    """All c tokens from P0 to Pd: ones on t_i_* for i < d, iff bound >= c*d."""
    k, c = 4, 3
    ring = Ring(k, c, "plain", (0,) * c)
    for d in range(k):
        want = tuple(1 if i < d else 0 for i in range(k) for _ in range(c))
        assert oracle.least_witness(ring, (d,) * c, c * d) == want
        if d:
            assert oracle.least_witness(ring, (d,) * c, c * d - 1) is None


def test_expected_file_matches_oracles():
    expected = json.loads((HERE / "expected.json").read_text())
    answers = make_expected.oracle_answers()
    for workload, section in answers.items():
        assert expected[workload] == section, workload
    ids = {q.id for [(q, _)] in workloads.cli_catalogue()}
    assert set(expected["cli_models"]) == ids


def test_schedule_depends_only_on_seed():
    strata = workloads.bfs_catalogue()
    take = lambda seed: [[q.id for q in next(g)] for g in [workloads.blocks(strata, seed)] for _ in range(5)]  # noqa: E731
    assert take(7) == take(7)
    assert take(7) != take(8)


COUNTS = re.compile(r"(_calls|enabling_checks|bfs_states|bfs_edges|witness_space|"
                    r"trace_io\.events|document_bytes)$")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=HERE.parent, capture_output=True, text=True, check=True,
                         timeout=170).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    declared = [m["name"] for m in per_layer]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {m["name"]: m["unit"] for m in per_layer}
    counts = [name for name in declared if COUNTS.search(name)]
    assert len(counts) == 13
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_record_names_what_each_metric_should_move():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = json.loads((HERE / "metrics.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(record["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(record["workloads"]) == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(record["per_layer"])
    for name, entry in record["per_layer"].items():
        assert entry["moves"] or name == "trace.overhead_ratio"
        for move in entry["moves"]:
            assert move["metric"] in record["end_to_end"] and move["workload"] in workloads.WORKLOADS


def test_untraced_run_reports_every_end_to_end_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "witness_ring",
                          "--seed", "5", "--seconds", "0", "--trace", "0"],
                         cwd=HERE.parent, capture_output=True, text=True, check=True,
                         timeout=170).stdout
    result = json.loads(out.splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert all(m["value"] > 0 for m in result["metrics"].values())
