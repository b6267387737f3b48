"""Brute-force answers for ring nets, written without orbitpn.

A ring state is the tuple of token positions, one per colour.  These
functions re-derive from that representation what the benchmark asks
orbitpn: the breadth-first reachability graph (node order and edge list), the
lexicographically least state-equation witness, and the marking at the end
of a firing sequence.  The expected-answer file is built from them, and the
benchmark's tests check them against the closed forms in ``rings``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

from rings import Ring


def canonical(positions: tuple[int, ...]) -> list:
    """A state as sorted ``[place, [[colour, count], ...]]`` pairs, empty places omitted."""
    places: dict[str, dict[str, int]] = {}
    for j, p in enumerate(positions):
        places.setdefault(f"P{p}", {})[f"C{j}"] = 1
    return [[p, sorted(map(list, cs.items()))] for p, cs in sorted(places.items())]


def graph_digest(nodes: list, edges: list) -> str:
    """sha256 over canonical nodes in discovery order and (src, transition, dst) edges."""
    text = json.dumps([nodes, edges], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def enabled(ring: Ring, pos: tuple[int, ...], i: int, j: int, env, mode: str) -> bool:
    if pos[j] != i or not ring.guard_holds(i, j, env):
        return False
    return mode == "subset" or pos.count(i) == 1


def successor(ring: Ring, pos: tuple[int, ...], j: int) -> tuple[int, ...]:
    return pos[:j] + ((pos[j] + 1) % ring.k,) + pos[j + 1:]


def bfs(ring: Ring, env, mode: str) -> dict:
    """Closure of the start state, nodes in discovery order, moves tried in
    declaration order (place-major)."""
    start = tuple(ring.start)
    index = {start: 0}
    order = [start]
    edges = []
    deadlocks = 0
    queue = deque([start])
    while queue:
        pos = queue.popleft()
        src = index[pos]
        moved = False
        for i in range(ring.k):
            for j in range(ring.c):
                if not enabled(ring, pos, i, j, env, mode):
                    continue
                moved = True
                nxt = successor(ring, pos, j)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    queue.append(nxt)
                edges.append([src, f"t_{i}_{j}", index[nxt]])
        deadlocks += not moved
    return {"states": len(order), "edges": len(edges), "deadlocks": deadlocks,
            "digest": graph_digest([canonical(p) for p in order], edges)}


def _vectors(n: int, budget: int):
    """Every nonnegative integer n-vector with total <= budget, in lex order."""
    if n == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _vectors(n - 1, budget - first):
            yield (first,) + rest


def least_witness(ring: Ring, dist: tuple[int, ...], bound: int) -> tuple[int, ...] | None:
    """Enumerate firing-count vectors in lex order and return the first whose
    net token flow moves token ``j`` from its start to ``start + dist[j]``."""
    k, c = ring.k, ring.c
    want = [[0] * k for _ in range(c)]
    for j, d in enumerate(dist):
        target = (ring.start[j] + d) % k
        if target != ring.start[j]:
            want[j][ring.start[j]] -= 1
            want[j][target] += 1
    for x in _vectors(k * c, bound):
        if all(x[((p - 1) % k) * c + j] - x[p * c + j] == want[j][p]
               for j in range(c) for p in range(k)):
            return x
    return None


def replay(ring: Ring, sequence: list[str], envs: list[dict]) -> list:
    """Fire the sequence (subset mode), checking each move; return the final state."""
    pos = tuple(ring.start)
    for t, env in zip(sequence, envs):
        _, i, j = t.split("_")
        i, j = int(i), int(j)
        if not enabled(ring, pos, i, j, env, "subset"):
            raise ValueError(f"{t} is not enabled at {pos}")
        pos = successor(ring, pos, j)
    return canonical(pos)
