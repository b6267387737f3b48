#!/usr/bin/env python3
"""orbitpn benchmark: one workload, one seed, a closed loop of queries.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``bfs_ring``     - ``algebra.reachability_graph`` on seeded ring nets;
* ``witness_ring`` - ``algebra.check_reachability_condition`` on small rings;
* ``trace_replay`` - fire_sequence, state-equation check, trace document to
  JSON and back, replay, on guard-heavy rings;
* ``cli_models``   - ``python -m orbitpn.cli`` subcommands on the bundled
  models, one child process at a time.

One client issues each query only after the previous one returned.  Queries
come in blocks that hold one variant of every stratum (``workloads``); the
run stops at the first block boundary after ``--seconds`` seconds and at
least ``MIN_QUERIES`` queries.  Every answer is checked against the frozen
``expected.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of blocks twice, untraced in this process and traced in a separate
one, checks that both give the same answers, and reports the per-layer
metrics from the spans.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as spans_lib  # noqa: E402
import workloads  # noqa: E402

MIN_QUERIES = 100
SETUP_SAMPLES = 9          # set-ups per run, this process included; setup_s is their median
FLOOR_SAMPLES = 5          # bare-interpreter and import probes per traced run
CHILD_TIMEOUT_S = 120
TRACE_BLOCKS = {"bfs_ring": 2, "witness_ring": 2, "trace_replay": 4, "cli_models": 1}
CLI_KINDS = ("validate", "fire", "simulate", "incidence", "reach", "refused")


def import_orbitpn() -> None:
    src = ROOT / "src"
    if not (src / "orbitpn" / "__init__.py").is_file():
        raise SystemExit(f"error: no orbitpn sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import orbitpn
    if Path(orbitpn.__file__).resolve().parent != (src / "orbitpn").resolve():
        raise SystemExit(f"error: imported orbitpn from {orbitpn.__file__}, not from {src}")


def timed_setup(workload: str):
    start = time.perf_counter()
    import_orbitpn()
    ctx = workloads.setup(workload, ROOT)
    return ctx, time.perf_counter() - start


def child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True, **kwargs)


def setup_probe_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (import, generation, loading)."""
    out = child([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--setup-probe"]).stdout
    return float(out.split()[-1])


def runner(ctx: workloads.Context):
    """(run one query, turn its result into a checkable answer)."""
    if ctx.workload == "cli_models":
        env = workloads.cli_env(ROOT)
        prefix = [sys.executable, "-m", "orbitpn.cli"]
        return (lambda q: workloads.run_cli(ctx, q, prefix, env)), workloads.cli_answer
    run, answer = {"bfs_ring": (workloads.run_bfs, workloads.bfs_answer),
                   "witness_ring": (workloads.run_witness, workloads.witness_answer),
                   "trace_replay": (workloads.run_trace, workloads.trace_answer)}[ctx.workload]
    return (lambda q: run(ctx, q)), answer


class Tally:
    """Latencies, answers and outcomes of the queries of one pass."""

    def __init__(self):
        self.latency_s: list[float] = []
        self.answers: list = []
        self.ok: list[bool] = []
        self.child_rss_kib = 0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def run(self, ctx, q, run, answer) -> float:
        """Run and check one query; returns its latency (checking excluded)."""
        start = time.perf_counter()
        try:
            result = run(q)
        except Exception:
            latency = time.perf_counter() - start
            self._record(latency, None, False)
            if self.failed == 1:
                print(f"query {q.id} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return latency
        latency = time.perf_counter() - start
        if ctx.workload == "cli_models":
            self.child_rss_kib = max(self.child_rss_kib, result[3])
        ans = answer(result)
        self._record(latency, ans, workloads.check(ctx, q, ans))
        if self.failed == 1 and not self.ok[-1]:
            print(f"query {q.id} answered wrongly: {str(ans)[:500]}", file=sys.stderr)
        return latency

    def _record(self, latency: float, ans, ok: bool) -> None:
        self.latency_s.append(latency)
        self.answers.append(ans)
        self.ok.append(ok)


def closed_loop(ctx, seed: int, seconds: float) -> tuple[Tally, float]:
    run, answer = runner(ctx)
    tally = Tally()
    gc.collect()
    start = time.perf_counter()
    checking = 0.0
    for block in workloads.blocks(ctx.strata, seed):
        for q in block:
            t0 = time.perf_counter()
            latency = tally.run(ctx, q, run, answer)
            checking += time.perf_counter() - t0 - latency
        if time.perf_counter() - start >= seconds and len(tally.latency_s) >= MIN_QUERIES:
            break
    return tally, time.perf_counter() - start - checking


def fixed_queries(ctx, seed: int) -> list:
    gen = workloads.blocks(ctx.strata, seed)
    return [q for _ in range(TRACE_BLOCKS[ctx.workload]) for q in next(gen)]


# ---------------------------------------------------------------------------
# --trace 0

def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    ctx, own_setup = timed_setup(workload)
    tally, wall = closed_loop(ctx, seed, seconds)
    if workload == "cli_models":
        peak_kib = tally.child_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [own_setup] + [setup_probe_s(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    lat_ms = [x * 1000 for x in tally.latency_s]
    n = len(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (n / wall, "1/s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "correct_ratio": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    print(f"{workload} seed {seed}: {n} queries in {wall:.3f} s (closed loop, one client); "
          f"failed_ratio {tally.failed / n:.6f} ratio; p90 from {n} samples")
    return {"attempted": n, "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# --trace 1

def untraced_pass(ctx, queries) -> Tally:
    run, answer = runner(ctx)
    tally = Tally()
    gc.collect()
    for q in queries:
        tally.run(ctx, q, run, answer)
    return tally


def traced_child(workload: str, seed: int) -> None:
    """Body of the separate traced process of a library workload."""
    tracer = spans_lib.Tracer()
    import_orbitpn()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            ctx = workloads.setup(workload, ROOT)
        run, answer = runner(ctx)
        if workload == "trace_replay":
            def on_document(text):
                tracer.count["trace_io.document_bytes"] += len(text)
            run = lambda q: workloads.run_trace(ctx, q, on_document)  # noqa: E731
        tally = Tally()
        gc.collect()
        for qid, q in enumerate(fixed_queries(ctx, seed)):
            tracer.query_id = qid
            with tracer.span("bench.query"):
                tally.run(ctx, q, run, answer)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    write_spans(workload, spans)
    metrics = spans_lib.layer_metrics(spans)
    print(json.dumps({"answers": tally.answers, "ok": tally.ok,
                      "wall_s": sum(tally.latency_s), "metrics": metrics}))


def write_spans(workload: str, spans: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_lib.dump(spans, out / f"spans-{workload}.json")


def traced_cli(ctx, queries) -> tuple[Tally, dict, dict]:
    """Each command in its own traced child; spans merged with one query id each."""
    env = workloads.cli_env(ROOT)
    spans_path = ROOT / ".bench_out" / "cli-spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    prefix = [sys.executable, str(HERE / "cli_child.py"), str(spans_path)]
    tally = Tally()
    parts = []
    for qid, q in enumerate(queries):
        spans_path.unlink(missing_ok=True)
        tally.run(ctx, q, lambda q: workloads.run_cli(ctx, q, prefix, env), workloads.cli_answer)
        if spans_path.exists():
            parts.append((qid, json.loads(spans_path.read_text())))
        else:
            tally.ok[-1] = False
    spans = spans_lib.merge(parts)
    write_spans("cli_models", spans)
    per_query = spans_lib.query_durations_ms(spans, "cli.main")
    cmd_ms = {kind: spans_lib.median_or_zero(per_query[i] for i, q in enumerate(queries) if q.kind == kind)
              for kind in CLI_KINDS}
    return tally, spans_lib.layer_metrics(spans), cmd_ms


def interpreter_floor_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of one importing orbitpn.cli."""
    env = workloads.cli_env(ROOT)
    bare, imported = [], []
    for _ in range(FLOOR_SAMPLES):
        for code, sink in (("pass", bare), ("import orbitpn.cli", imported)):
            start = time.perf_counter()
            child([sys.executable, "-c", code], env=env)
            sink.append((time.perf_counter() - start) * 1000)
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def bfs_bytes_per_state(ctx) -> float:
    """Peak traced allocation of the largest subset-mode BFS, per state."""
    q = max((q for stratum in ctx.strata for q, _ in stratum),
            key=lambda q: ctx.expected[q.id]["states"])
    gc.collect()
    tracemalloc.start()
    try:
        graph = workloads.run_bfs(ctx, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(graph.nodes)


def per_layer(workload: str, seed: int) -> dict:
    ctx, _ = timed_setup(workload)
    queries = fixed_queries(ctx, seed)
    plain = untraced_pass(ctx, queries)
    cmd_ms = dict.fromkeys(CLI_KINDS, 0.0)
    if workload == "cli_models":
        traced, metrics, cmd_ms = traced_cli(ctx, queries)
        traced_answers, traced_ok, traced_wall = traced.answers, traced.ok, sum(traced.latency_s)
    else:
        out = child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--traced-child"]).stdout
        report = json.loads(out.splitlines()[-1])
        traced_answers, traced_ok, traced_wall = report["answers"], report["ok"], report["wall_s"]
        metrics = {k: tuple(v) for k, v in report["metrics"].items()}
    floor_ms, import_ms = interpreter_floor_ms()
    metrics["algebra.bfs_bytes_per_state"] = (
        bfs_bytes_per_state(ctx) if workload == "bfs_ring" else 0.0, "B/state")
    metrics["cli.interpreter_ms"] = (floor_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}_ms"] = (cmd_ms[kind], "ms")
    metrics["trace.overhead_ratio"] = (traced_wall / sum(plain.latency_s), "ratio")

    # a query fails if either pass got it wrong or the two passes disagree
    same = [a == b for a, b in zip(plain.answers, traced_answers)]
    failed = sum(1 for s, u, t in zip(same, plain.ok, traced_ok) if not (s and u and t))
    print(f"{workload} seed {seed}: {len(queries)} queries run untraced and traced, "
          f"{same.count(True)} with the same answer in both")
    return {"attempted": len(queries), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------

def machine() -> str:
    return f"nproc {os.cpu_count()}, {platform.machine()}, python {platform.python_version()}"


def main() -> int:
    parser = argparse.ArgumentParser(description="orbitpn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    internal = parser.add_mutually_exclusive_group()
    internal.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    internal.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        print(timed_setup(args.workload)[1])
        return 0
    if args.traced_child:
        traced_child(args.workload, args.seed)
        return 0
    if args.trace:
        result = per_layer(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(f"machine: {machine()}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
