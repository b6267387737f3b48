"""Command-line driver: validate, fire, simulate, incidence, reach.

Exit codes are a stable contract for scripts: 0 success, 1 semantic failure
(structural violations, a firing that is not enabled, no witness under
--expect), 2 usage or parse errors.  Each subcommand imports the layers it
runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import netfile
from .expr import UnboundVariableError
from .model import MODES, Net, validate_net

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_env_pairs(text: str) -> dict[str, float]:
    env: dict[str, float] = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"expected name=value, got {pair!r}")
        try:
            number = float(value.strip())
        except ValueError:
            raise UsageError(f"value of {name!r} is not a number: {value.strip()!r}") from None
        if not math.isfinite(number):
            raise UsageError(f"value of {name!r} must be finite")
        env[name] = number
    return env


def _collect_env_at(values: list[str] | None, n_steps: int) -> dict[int, dict[str, float]]:
    overrides: dict[int, dict[str, float]] = {}
    for chunk in values or []:
        step_text, sep, pairs = chunk.partition(":")
        if not sep:
            raise UsageError(f"expected STEP:name=value, got {chunk!r}")
        try:
            step = int(step_text)
        except ValueError:
            raise UsageError(f"step must be an integer, got {step_text!r}") from None
        if not 1 <= step <= n_steps:
            raise UsageError(f"step {step} out of range 1..{n_steps}")
        overrides.setdefault(step, {}).update(_parse_env_pairs(pairs))
    return overrides


def _print_events(trace) -> None:
    for ev in trace.events:
        env_text = ", ".join(f"{k}={v:g}" for k, v in sorted(ev.env_snapshot.items()))
        suffix = f"   [{env_text}]" if env_text else ""
        print(f"  step {ev.step}: {ev.transition} -> {ev.marking_after}{suffix}")


def _write_trace(net: Net, trace, mode: str, out: str | None,
                 final_env: dict[str, float]) -> None:
    """Write the trace document to `out`, if one is given."""
    if out:
        from . import trace_io
        trace_io.write_trace(out, trace_io.trace_document(net, trace, mode, final_env=final_env))


def cmd_validate(args) -> int:
    try:
        net = netfile.read_net(args.path)
    except netfile.NetFileError as err:
        print(f"error: {args.path}: {err}", file=sys.stderr)
        return EXIT_USAGE

    violations = validate_net(net)
    if violations:
        print(f"INVALID: net {net.name!r}, {len(violations)} violation(s)")
        for v in violations:
            print(f"  - {v}")
        return EXIT_SEMANTIC
    signs = ", ".join(f"{p.id} ({'+' if p.rotation > 0 else '-'})" for p in net.places)
    print(f"OK: net {net.name!r} is valid")
    print(f"order: {net.order}")
    print(f"places: {signs if signs else '(none)'}")
    print(f"transitions: {', '.join(net.transition_ids) or '(none)'}")
    return EXIT_OK


def cmd_fire(args) -> int:
    from . import engine
    net = netfile.load_net(args.path)
    seq = [t.strip() for t in args.seq.split(",") if t.strip()]
    for t in seq:
        if t not in net.transition_index:
            raise UsageError(f"unknown transition {t!r} in --seq")
    base = _parse_env_pairs(",".join(args.env or ()))
    overrides = _collect_env_at(args.env_at, len(seq))
    envs = [dict(base, **overrides.get(k, {})) for k in range(1, len(seq) + 1)]
    try:
        trace = engine.fire_sequence(net, net.initial_marking, seq, envs, args.mode)
    except engine.NotEnabledError as err:
        print(f"error: {err}", file=sys.stderr)
        _write_trace(net, err.trace, args.mode, args.out, final_env=envs[err.step - 1])
        print(f"prefix trace ({len(err.trace.events)} event(s)):")
        _print_events(err.trace)
        print(f"marking before failure: {err.trace.final}")
        return EXIT_SEMANTIC
    _write_trace(net, trace, args.mode, args.out, final_env=envs[-1] if envs else base)
    _print_events(trace)
    print(f"final marking: {trace.final}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import engine
    net = netfile.load_net(args.path)
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    env = _parse_env_pairs(",".join(args.env or ()))
    trace = engine.simulate(net, net.initial_marking, env, args.steps, args.policy, args.mode)
    deadlock = not engine.enabled_set(net, trace.final, env, args.mode)
    _write_trace(net, trace, args.mode, args.out, final_env=env)
    _print_events(trace)
    print(f"final marking: {trace.final}")
    print(f"events: {len(trace.events)}; deadlock: {'yes' if deadlock else 'no'}")
    return EXIT_OK


def cmd_incidence(args) -> int:
    import json
    from . import algebra
    net = netfile.load_net(args.path)
    matrix = algebra.incidence_matrix(net)
    if args.format == "grid":
        print(algebra.format_incidence(matrix) if matrix.place_ids else "(no places)")
    else:
        payload = {
            "places": list(matrix.place_ids),
            "transitions": list(matrix.transition_ids),
            "entries": [[dict(e.items()) for e in row] for row in matrix.entries],
        }
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_reach(args) -> int:
    from . import algebra
    net = netfile.load_net(args.path)
    if args.bound < 0:
        raise UsageError("--bound must be >= 0")
    if args.max_states < 1:
        raise UsageError("--max-states must be >= 1")
    target = netfile.parse_marking_spec(args.target, net.colors, net.place_ids)
    witness = algebra.check_reachability_condition(net, net.initial_marking, target,
                                                   args.bound)
    if witness is None:
        print(f"no witness with total firings <= {args.bound}")
        print("note: absence of a witness certifies unreachability only up to the bound")
    else:
        counts = ", ".join(f"{t}={n}" for t, n in zip(net.transition_ids, witness))
        print(f"witness: X = ({', '.join(map(str, witness))})   [{counts}]")
        print("note: the state-equation condition is necessary, not sufficient, "
              "for executable reachability")
    if args.confirm:
        env = _parse_env_pairs(",".join(args.env or ()))
        graph = algebra.reachability_graph(net, net.initial_marking, env, max_depth=args.bound,
                                           max_states=args.max_states, mode=args.mode)
        where = graph.index_of(target)
        if where is None:
            extra = " (search truncated)" if graph.truncated else ""
            print(f"BFS confirmation: target NOT reached within depth {args.bound}{extra}")
        else:
            print(f"BFS confirmation: target reached at depth {graph.depths[where]}")
    if witness is None and args.expect:
        return EXIT_SEMANTIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opn",
        description="Work with orbital Petri nets: validate, fire, simulate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net file and report its structure")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fire", help="fire an explicit transition sequence")
    p.add_argument("path")
    p.add_argument("--seq", required=True, help="comma-separated transition ids")
    p.add_argument("--env", action="append", metavar="NAME=VALUE[,NAME=VALUE...]",
                   help="base environment bindings (repeatable)")
    p.add_argument("--env-at", action="append", metavar="STEP:NAME=VALUE[,...]",
                   help="per-step overrides, steps are 1-based (repeatable)")
    p.add_argument("--mode", choices=MODES, default="subset")
    p.add_argument("--out", help="write the trace document (JSON) here")
    p.set_defaults(func=cmd_fire)

    p = sub.add_parser("simulate", help="run sweep/single steps until quiescence")
    p.add_argument("path")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--policy", choices=("sweep", "single"), default="sweep")
    p.add_argument("--env", action="append", metavar="NAME=VALUE[,NAME=VALUE...]")
    p.add_argument("--mode", choices=MODES, default="subset")
    p.add_argument("--out", help="write the trace document (JSON) here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("incidence", help="print the incidence matrix")
    p.add_argument("path")
    p.add_argument("--format", choices=("grid", "json"), default="grid")
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("reach", help="search for a state-equation witness")
    p.add_argument("path")
    p.add_argument("--target", required=True,
                   help="marking spec like 'P5=A+C; P6=B+D' (omitted places empty)")
    p.add_argument("--bound", type=int, required=True,
                   help="maximum total number of firings to enumerate")
    p.add_argument("--confirm", action="store_true",
                   help="also search the reachability graph for the target")
    p.add_argument("--env", action="append", metavar="NAME=VALUE[,NAME=VALUE...]",
                   help="guard bindings for --confirm")
    p.add_argument("--max-states", type=int, default=10000)
    p.add_argument("--mode", choices=MODES, default="subset", help="containment mode for --confirm")
    p.add_argument("--expect", action="store_true",
                   help="exit 1 when no witness is found")
    p.set_defaults(func=cmd_reach)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (netfile.NetFileError, UnboundVariableError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
