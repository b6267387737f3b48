"""The four workloads: their query catalogues, seeded schedules, set-up and queries.

Every synthetic input comes from a fixed catalogue built from
``CATALOGUE_SEED``: for each stratum (a query shape of roughly fixed cost)
there are ``VARIANTS`` entries that differ in start placement, target or
firing sequence.  ``--seed`` picks one variant per stratum for every block
and shuffles the block, so any seed runs the same cost mix on different
inputs, and every input any seed can produce has a frozen answer in
``expected.json``.

orbitpn is called only through module attributes (``algebra.fire``, never a
name imported from it), so the tracer can rebind public functions in place.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from rings import ALL_TRUE_ENV, Ring

CATALOGUE_SEED = 1806
VARIANTS = 4
BFS_MAX_DEPTH = 10 ** 6
BFS_MAX_STATES = 10 ** 6

# Strata are listed cheapest first, with costs a factor of about 1.1-1.6
# apart.  Each block runs one query of every stratum, so a percentile falls
# between neighbours of similar cost and moves smoothly when the machine
# speeds up or slows down, rather than jumping between two distant strata.

# (variant, k, c, mode): most queries in subset mode, a minority in exact mode
BFS_STRATA = (
    ("spread", 5, 3, "exact"),
    ("plain", 5, 3, "subset"),
    ("spread", 6, 3, "exact"),
    ("spread", 5, 4, "exact"),
    ("plain", 6, 3, "subset"),
    ("plain", 4, 4, "subset"),
    ("heavy", 3, 5, "subset"),
    ("heavy", 4, 4, "subset"),
    ("plain", 8, 3, "subset"),
    ("heavy", 8, 3, "subset"),
    ("plain", 5, 4, "subset"),
)

# (k, bound, witness exists), three colours, tokens start on P0.  Half the
# queries have no witness and enumerate all C(bound + 3k, 3k) vectors; the
# others move token C0, so the search first exhausts every vector with
# t_0_0 = 0 and costs nearly as much.
WITNESS_STRATA = (
    (4, 3, True), (3, 4, True), (3, 4, False), (5, 3, False),
    (3, 5, True), (4, 4, True), (4, 4, False), (3, 5, False),
    (5, 4, True), (5, 4, False), (4, 5, True), (4, 5, False),
)

# (k, c, sequence length) of guard-heavy rings
TRACE_STRATA = ((5, 4, 100), (6, 3, 150), (4, 5, 200), (5, 4, 270), (6, 3, 350), (4, 5, 450))

WORKLOADS = ("bfs_ring", "witness_ring", "trace_replay", "cli_models")


@dataclass
class Query:
    id: str                    # key into expected.json
    kind: str                  # stratum (synthetic) or subcommand kind (cli)
    net: str = ""              # net name in the set-up context
    payload: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# catalogues (independent of --seed)

def _placements(rng: random.Random, k: int, c: int, distinct: bool) -> list[tuple[int, ...]]:
    seen: list[tuple[int, ...]] = []
    while len(seen) < VARIANTS:
        start = tuple(rng.sample(range(k), c)) if distinct else tuple(rng.randrange(k) for _ in range(c))
        if start not in seen:
            seen.append(start)
    return seen


def bfs_catalogue() -> list[list[tuple[Query, Ring]]]:
    rng = random.Random(f"{CATALOGUE_SEED}/bfs_ring")
    strata = []
    for variant, k, c, mode in BFS_STRATA:
        entries = []
        for v, start in enumerate(_placements(rng, k, c, distinct=variant == "spread")):
            ring = Ring(k, c, variant, start)
            q = Query(f"bfs/{variant}_{k}_{c}_{mode}/{v}", f"{variant}_{k}_{c}_{mode}",
                      ring.name, {"mode": mode})
            entries.append((q, ring))
        strata.append(entries)
    return strata


def witness_catalogue() -> list[list[tuple[Query, Ring]]]:
    rng = random.Random(f"{CATALOGUE_SEED}/witness_ring")
    strata = []
    for k, bound, exists in WITNESS_STRATA:
        ring = Ring(k, 3, "plain", (0, 0, 0))
        dists = [d for d in itertools.product(range(k), repeat=3)
                 if (sum(d) <= bound) == exists and (d[0] > 0 if exists else True)]
        rng.shuffle(dists)
        entries = []
        for v, dist in enumerate(dists[:VARIANTS]):
            q = Query(f"witness/{k}_{bound}_{'yes' if exists else 'no'}/{v}",
                      f"{k}_{bound}_{'yes' if exists else 'no'}", ring.name,
                      {"dist": dist, "bound": bound, "target": ring.target_spec(dist)})
            entries.append((q, ring))
        strata.append(entries)
    return strata


def scenario(ring: Ring, length: int, rng: random.Random) -> tuple[list[str], list[dict]]:
    """A firing sequence enabled at every step, with a per-step environment in
    which the clock advances and the held colour and collision risk change.
    The clock starts late enough for every place's guard, and only one colour
    is held at a time, so some move is always enabled."""
    pos = tuple(ring.start)
    seq, envs = [], []
    for step in range(1, length + 1):
        env = {"collision_prob": round(rng.uniform(0.0, 0.9), 3), "clock": 8.0 + ring.k + step,
               "T0": 10.0, "alarm": float(step % 2), "hold": float(rng.randrange(-1, ring.c))}
        moves = [(i, j) for i in range(ring.k) for j in range(ring.c)
                 if oracle.enabled(ring, pos, i, j, env, "subset")]
        i, j = rng.choice(moves)
        seq.append(f"t_{i}_{j}")
        envs.append(env)
        pos = oracle.successor(ring, pos, j)
    return seq, envs


def trace_catalogue() -> list[list[tuple[Query, Ring]]]:
    rng = random.Random(f"{CATALOGUE_SEED}/trace_replay")
    strata = []
    for k, c, length in TRACE_STRATA:
        entries = []
        for v, start in enumerate(_placements(rng, k, c, distinct=False)):
            ring = Ring(k, c, "heavy", start)
            seq, envs = scenario(ring, length, rng)
            q = Query(f"trace/{k}_{c}_{length}/{v}", f"{k}_{c}_{length}", ring.name,
                      {"seq": seq, "envs": envs})
            entries.append((q, ring))
        strata.append(entries)
    return strata


# README scenarios: (kind, model, extra arguments)
SATSAT_ENV = "collision_prob=0.5,T1=5,eps=1"
CLI_COMMANDS = (
    ("validate", "swap_infinite", ()),
    ("validate", "orbit_classes", ()),
    ("validate", "satellite_swap", ()),
    ("validate", "debris_disposal", ()),
    ("incidence", "orbit_classes", ("--format", "grid")),
    ("incidence", "debris_disposal", ("--format", "grid")),
    ("incidence", "orbit_classes", ("--format", "json")),
    ("incidence", "debris_disposal", ("--format", "json")),
    ("fire", "swap_infinite", ("--seq", "t1,t2,t1")),
    ("fire", "orbit_classes", ("--seq", "t1,t2")),
    ("fire", "satellite_swap", ("--seq", "t1,t2", "--env", SATSAT_ENV,
                                "--env-at", "1:clock=5", "--env-at", "2:clock=6")),
    ("fire", "debris_disposal", ("--seq", "t1,t2,t3", "--env", "collision_prob=0.5")),
    ("refused", "satellite_swap", ("--seq", "t2", "--env", SATSAT_ENV, "--env-at", "1:clock=5")),
    ("refused", "satellite_swap", ("--seq", "t1", "--env", SATSAT_ENV, "--env-at", "1:clock=4")),
    ("simulate", "swap_infinite", ("--steps", "3")),
    ("simulate", "orbit_classes", ("--steps", "5")),
    ("simulate", "satellite_swap", ("--steps", "2", "--env", "collision_prob=0.5,clock=5,T1=5,eps=1")),
    ("simulate", "debris_disposal", ("--steps", "3", "--env", "collision_prob=0.5")),
    ("simulate", "swap_infinite", ("--steps", "100")),
    ("simulate", "swap_infinite", ("--steps", "400")),
    ("simulate", "swap_infinite", ("--steps", "1000")),
    ("reach", "swap_infinite", ("--target", "P1=y; P2=x", "--bound", "4")),
    ("reach", "orbit_classes", ("--target", "P5=A+C; P6=B+D", "--bound", "4")),
    ("reach", "satellite_swap", ("--target", "P1=y; P2=x", "--bound", "4",
                                 "--env", "collision_prob=0.5,clock=5,T1=5,eps=1")),
    ("reach", "debris_disposal", ("--target", "P1=S", "--bound", "6", "--env", "collision_prob=0.5")),
)


def cli_catalogue() -> list[list[tuple[Query, None]]]:
    """One stratum per command, each with a single variant."""
    strata = []
    for n, (kind, model, extra) in enumerate(CLI_COMMANDS):
        sub = "fire" if kind == "refused" else kind
        if kind == "reach":
            extra = extra + ("--confirm", "--expect")
        strata.append([(Query(f"cli/{n:02d}_{kind}_{model}", kind, model,
                              {"argv": [sub, *extra]}), None)])
    return strata


# ---------------------------------------------------------------------------
# seeded schedule

def blocks(strata: list[list[tuple[Query, Ring | None]]], seed: int):
    """Endless blocks: one seeded variant of every stratum, in seeded order."""
    rng = random.Random(f"{seed}/schedule")
    while True:
        block = [rng.choice(stratum)[0] for stratum in strata]
        rng.shuffle(block)
        yield block


# ---------------------------------------------------------------------------
# set-up: generate the inputs, then load (parse and validate) every net

@dataclass
class Context:
    workload: str
    root: Path
    strata: list
    nets: dict = field(default_factory=dict)     # net name -> loaded Net
    paths: dict = field(default_factory=dict)    # net name -> .opn file
    expected: dict = field(default_factory=dict)


def setup(workload: str, root: Path) -> Context:
    from orbitpn import netfile, models

    expected = json.loads((root / "perfbench" / "expected.json").read_text())[workload]
    if workload == "cli_models":
        paths = {name: models.model_path(name) for name in models.NAMES}
        nets = {name: netfile.load_net(path) for name, path in paths.items()}
        return Context(workload, root, cli_catalogue(), nets, paths, expected)
    strata = {"bfs_ring": bfs_catalogue, "witness_ring": witness_catalogue,
              "trace_replay": trace_catalogue}[workload]()
    out = root / ".bench_out" / "nets" / workload
    out.mkdir(parents=True, exist_ok=True)
    nets, paths = {}, {}
    for stratum in strata:
        for _, ring in stratum:
            if ring.name not in nets:
                paths[ring.name] = out / f"{ring.name}.opn"
                paths[ring.name].write_text(ring.opn_text())
                nets[ring.name] = netfile.load_net(paths[ring.name])
    return Context(workload, root, strata, nets, paths, expected)


# ---------------------------------------------------------------------------
# queries: run_* calls orbitpn; *_answer turns its result into a JSON value

def canonical(m) -> list:
    """A marking as sorted ``[place, [[colour, count], ...]]`` pairs (see ``oracle.canonical``)."""
    return [[p, sorted([c, n] for c, n in ms.items())] for p, ms in sorted(m.items())]


def run_bfs(ctx: Context, q: Query):
    from orbitpn import algebra
    net = ctx.nets[q.net]
    return algebra.reachability_graph(net, net.initial_marking, ALL_TRUE_ENV,
                                      BFS_MAX_DEPTH, BFS_MAX_STATES, q.payload["mode"])


def bfs_answer(graph) -> dict:
    return {"states": len(graph.nodes), "edges": len(graph.edges),
            "deadlocks": len(graph.deadlocks), "truncated": graph.truncated,
            "digest": oracle.graph_digest([canonical(m) for m in graph.nodes],
                                          [list(e) for e in graph.edges])}


def run_witness(ctx: Context, q: Query):
    from orbitpn import algebra, netfile
    net = ctx.nets[q.net]
    target = netfile.parse_marking_spec(q.payload["target"], net.colors, net.place_ids)
    return algebra.check_reachability_condition(net, net.initial_marking, target,
                                                q.payload["bound"])


def witness_answer(witness) -> list | None:
    return None if witness is None else list(witness)


def run_trace(ctx: Context, q: Query, on_document=None):
    """fire_sequence, state-equation check, document to JSON and back, replay."""
    from orbitpn import algebra, engine, trace_io
    net = ctx.nets[q.net]
    envs = q.payload["envs"]
    trace = engine.fire_sequence(net, net.initial_marking, q.payload["seq"], envs)
    consistent = algebra.verify_sequence_consistency(net, trace)
    text = json.dumps(trace_io.trace_document(net, trace, "subset", envs[-1]))
    if on_document is not None:
        on_document(text)
    replayed = trace_io.replay(net, json.loads(text))
    return trace, consistent, replayed


def trace_answer(result) -> dict:
    trace, consistent, replayed = result
    return {"final": canonical(replayed), "events": len(trace.events),
            "consistent": consistent, "replay_matches": replayed == trace.final}


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx: Context, q: Query, prefix: list[str], env: dict, timeout_s: float = 120):
    """One child process; returns (exit code, stdout, stderr, child peak RSS in KiB)."""
    sub, *extra = q.payload["argv"]
    proc = subprocess.Popen([*prefix, sub, ctx.paths[q.net], *extra], cwd=ctx.root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        out, err = proc.stdout.read(), proc.stderr.read()  # outputs are small; no pipe can fill
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def cli_answer(result) -> dict:
    code, out, err, _ = result
    return {"exit": code, "stdout": out, "stderr": err}


def check(ctx: Context, q: Query, answer) -> bool:
    """Compare an answer with the frozen expected answer of its catalogue entry."""
    want = ctx.expected[q.id]
    if ctx.workload == "cli_models":
        lines = {line.strip() for line in answer["stdout"].splitlines()}
        err = {line.strip() for line in answer["stderr"].splitlines()}
        return (answer["exit"] == want["exit"] and all(k in lines for k in want["stdout"])
                and all(k in err for k in want.get("stderr", ())))
    if ctx.workload == "trace_replay":
        return answer == {"final": want["final"], "events": want["events"],
                          "consistent": True, "replay_matches": True}
    return answer == want
