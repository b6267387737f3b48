"""orbitpn: orbital Petri nets - engine, linear-algebraic analysis, and CLI.

Places are directed cyclic orbits, tokens are colored rotating objects, and
arcs carry weight expressions naming which tokens move when a transition
fires.  Transitions are additionally gated by boolean guards over external
scalar variables (collision probability, clock, ...).  The algebra layer
provides the symbolic incidence matrix, the state equation, and the
necessary reachability condition with bounded witness search.
"""

from .multiset import Multiset, SignedMultiset
from .expr import (
    TRUE,
    AndExpr,
    Arith,
    Comparison,
    GuardExpr,
    NotExpr,
    NumLit,
    OrExpr,
    ParseError,
    TrueLiteral,
    UnboundVariableError,
    VarRef,
    eval_guard,
    guard_variables,
    parse_guard,
    parse_weight_expr,
    render_guard,
    render_weight_expr,
)
from .model import (
    Arc,
    Environment,
    Marking,
    Net,
    Place,
    Transition,
    validate_net,
)
from .engine import (
    FiringEvent,
    NotEnabledError,
    Trace,
    enabled,
    enabled_set,
    enabling_failure,
    fire,
    fire_sequence,
    simulate,
    step,
)
from .algebra import (
    IncidenceMatrix,
    InfeasibleMarkingError,
    ReachabilityGraph,
    apply_state_equation,
    check_reachability_condition,
    firing_counts,
    format_incidence,
    incidence_matrix,
    reachability_graph,
    verify_sequence_consistency,
)
from .netfile import NetFileError, load_net, parse_marking_spec, parse_net

__version__ = "0.1.0"
