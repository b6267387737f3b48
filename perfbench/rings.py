"""Seeded synthetic ring nets, emitted as .opn text, with their closed forms.

``ring(k, c)`` has places ``P0..P{k-1}`` arranged in a ring, colours
``C0..C{c-1}`` with one token of each colour, and one guarded move per
(place, colour): transition ``t_i_j`` calls ``Cj`` from ``Pi`` and deposits
it in ``P{(i+1) % k}``.  Transitions are declared place-major, so a firing
count vector is indexed ``t_0_0, t_0_1, ..., t_{k-1}_{c-1}``.

Three variants:

* ``plain`` - every guard is the single comparison ``collision_prob < 1``;
* ``heavy`` - every guard has five comparisons, one of them on the clock and
  one on a per-step ``hold`` colour, so its value changes with the
  environment (used by the scenario pipeline);
* ``spread`` - plain guards, tokens start on distinct places (the exact-mode
  variant: under ``exact`` mode a token can only leave a place it holds
  alone).

Closed forms (``subset`` mode, every guard true):

* the reachable set is every placement of the ``c`` tokens: ``k**c`` states,
  and every state enables one move per token: ``c * k**c`` edges;
* moving token ``j`` forward by ``d_j`` places has the least firing-count
  witness with ones on ``t_i_j`` for the ``d_j`` places after its start and
  zeros elsewhere; for tokens that all start on ``P0`` that is ``t_i_j`` for
  ``i < d_j``.  It exists within bound ``B`` if and only if
  ``B >= sum(d_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: guard horizon of the heavy variant, beyond every sequence length used
HEAVY_HORIZON = 100000

#: a fixed environment under which every plain and heavy guard is true
ALL_TRUE_ENV = {"collision_prob": 0.1, "clock": 100.0, "T0": 0.0, "alarm": 0.0, "hold": -1.0}


@dataclass(frozen=True)
class Ring:
    k: int
    c: int
    variant: str                # "plain", "heavy" or "spread"
    start: tuple[int, ...]      # start place of each colour's token

    def __post_init__(self):
        if self.variant not in ("plain", "heavy", "spread"):
            raise ValueError(f"unknown ring variant {self.variant!r}")
        if len(self.start) != self.c or not all(0 <= p < self.k for p in self.start):
            raise ValueError(f"bad start placement {self.start} for ring({self.k}, {self.c})")
        if self.variant == "spread" and len(set(self.start)) != self.c:
            raise ValueError("a spread ring starts its tokens on distinct places")

    @property
    def name(self) -> str:
        return f"ring_{self.variant}_{self.k}_{self.c}_" + "".join(map(str, self.start))

    def guard_text(self, i: int, j: int) -> str:
        if self.variant == "heavy":
            return (f"collision_prob < 1 and clock - T0 >= {i} and "
                    f"(clock - T0 <= {HEAVY_HORIZON} or alarm != 1) and not hold == {j}")
        return "collision_prob < 1"

    def guard_holds(self, i: int, j: int, env) -> bool:
        """The guard of ``t_i_j`` evaluated directly in Python."""
        if self.variant == "heavy":
            elapsed = env["clock"] - env["T0"]
            return (env["collision_prob"] < 1 and elapsed >= i
                    and (elapsed <= HEAVY_HORIZON or env["alarm"] != 1)
                    and not env["hold"] == j)
        return env["collision_prob"] < 1

    def opn_text(self) -> str:
        k, c = self.k, self.c
        lines = ["[net]", f"name = {self.name}", "", "[colors]",
                 ", ".join(f"C{j}" for j in range(c)), "", "[places]"]
        lines += [f"P{i} {'+' if i % 2 == 0 else '-'}" for i in range(k)]
        lines += ["", "[transitions]"]
        lines += [f"t_{i}_{j} : {self.guard_text(i, j)}" for i in range(k) for j in range(c)]
        lines += ["", "[arcs]"]
        for i in range(k):
            for j in range(c):
                lines.append(f"P{i} -> t_{i}_{j} : C{j}")
                lines.append(f"t_{i}_{j} -> P{(i + 1) % k} : C{j}")
        lines += ["", "[marking]"]
        for p in sorted(set(self.start)):
            lines.append(f"P{p} = " + "+".join(f"C{j}" for j in range(c) if self.start[j] == p))
        return "\n".join(lines) + "\n"

    def target_spec(self, dist: tuple[int, ...]) -> str:
        """Marking spec after moving token ``j`` forward ``dist[j]`` places."""
        where: dict[int, list[str]] = {}
        for j, d in enumerate(dist):
            where.setdefault((self.start[j] + d) % self.k, []).append(f"C{j}")
        return "; ".join(f"P{p} = {'+'.join(cs)}" for p, cs in sorted(where.items()))


def closed_form_counts(ring: Ring) -> tuple[int, int]:
    """(states, edges) of the subset-mode closure with every guard true."""
    return ring.k ** ring.c, ring.c * ring.k ** ring.c


def closed_form_witness(ring: Ring, dist: tuple[int, ...], bound: int) -> tuple[int, ...] | None:
    """Least firing-count witness for moving token ``j`` forward ``dist[j]``
    places (each ``dist[j] < k``), or None when it needs more than ``bound``."""
    if sum(dist) > bound:
        return None
    x = [0] * (ring.k * ring.c)
    for j, d in enumerate(dist):
        for step in range(d):
            x[((ring.start[j] + step) % ring.k) * ring.c + j] = 1
    return tuple(x)
