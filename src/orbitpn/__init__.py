"""orbitpn: orbital Petri nets - engine, linear-algebraic analysis, and CLI.

Places are directed cyclic orbits, tokens are colored rotating objects, and
arcs carry weight expressions naming which tokens move when a transition
fires.  Transitions are additionally gated by boolean guards over external
scalar variables (collision probability, clock, ...).  The algebra layer
provides the symbolic incidence matrix, the state equation, and the
necessary reachability condition with bounded witness search.

The names below load their module on first use, so a program (or an `opn`
subcommand) pays only for the layers it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "multiset": "Multiset SignedMultiset",
    "expr": "TRUE AndExpr Arith Comparison GuardExpr NotExpr NumLit OrExpr ParseError "
            "TrueLiteral UnboundVariableError VarRef eval_guard parse_guard "
            "parse_weight_expr render_guard render_weight_expr",
    "model": "Arc Environment Marking Net Place Transition validate_net",
    "engine": "FiringEvent NotEnabledError Trace enabled enabled_set enabling_failure fire "
              "fire_sequence simulate step",
    "algebra": "IncidenceMatrix InfeasibleMarkingError ReachabilityGraph apply_state_equation "
               "check_reachability_condition firing_counts format_incidence incidence_matrix "
               "reachability_graph verify_sequence_consistency",
    "netfile": "NetFileError load_net parse_marking_spec parse_net",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_MODULE_OF])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
