#!/usr/bin/env python3
"""Build the expected answers of the synthetic workloads from the oracles.

Usage: python3 perfbench/make_expected.py [--write]

The answers come from ``oracle`` (brute force, no orbitpn code) and, where
they exist, from the closed forms in ``rings``; both must agree.  Each answer
is then cross-checked against orbitpn at the parent commit.  Without
``--write`` the script only reports whether ``expected.json`` still matches
the oracles.  The file is frozen: regenerate it only when the catalogue
changes, never because orbitpn's answers changed.  The ``cli_models``
section is written by hand from the README scenarios and kept as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from rings import ALL_TRUE_ENV, closed_form_counts, closed_form_witness  # noqa: E402

EXPECTED = HERE / "expected.json"


def oracle_answers() -> dict:
    bfs = {}
    for stratum in workloads.bfs_catalogue():
        for q, ring in stratum:
            ans = oracle.bfs(ring, ALL_TRUE_ENV, q.payload["mode"])
            if q.payload["mode"] == "subset":
                assert (ans["states"], ans["edges"]) == closed_form_counts(ring), q.id
                assert ans["deadlocks"] == 0, q.id
            bfs[q.id] = dict(ans, truncated=False)
    witness = {}
    for stratum in workloads.witness_catalogue():
        for q, ring in stratum:
            found = oracle.least_witness(ring, q.payload["dist"], q.payload["bound"])
            assert found == closed_form_witness(ring, q.payload["dist"], q.payload["bound"]), q.id
            witness[q.id] = None if found is None else list(found)
    trace = {}
    for stratum in workloads.trace_catalogue():
        for q, ring in stratum:
            trace[q.id] = {"final": oracle.replay(ring, q.payload["seq"], q.payload["envs"]),
                           "events": len(q.payload["seq"])}
    return {"bfs_ring": bfs, "witness_ring": witness, "trace_replay": trace}


def cross_check(answers: dict, root: Path) -> list[str]:
    """Run every catalogue entry through orbitpn; return the ids that disagree."""
    sys.path.insert(0, str(root / "src"))
    bad = []
    runners = {"bfs_ring": (workloads.run_bfs, workloads.bfs_answer),
               "witness_ring": (workloads.run_witness, workloads.witness_answer),
               "trace_replay": (workloads.run_trace, workloads.trace_answer)}
    for workload, (run, answer) in runners.items():
        ctx = workloads.setup(workload, root)
        ctx.expected = answers[workload]
        for stratum in ctx.strata:
            for q, _ in stratum:
                if not workloads.check(ctx, q, answer(run(ctx, q))):
                    bad.append(q.id)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()
    answers = oracle_answers()
    current = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if not args.write:
        same = all(current.get(w) == a for w, a in answers.items())
        print("expected.json matches the oracles" if same else "expected.json differs from the oracles")
        return 0 if same else 1
    bad = cross_check(answers, HERE.parent)
    if bad:
        print("orbitpn disagrees with the oracles on: " + ", ".join(bad), file=sys.stderr)
        return 1
    answers["cli_models"] = current.get("cli_models", {})
    EXPECTED.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.name}: " + ", ".join(f"{w} {len(a)}" for w, a in answers.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
