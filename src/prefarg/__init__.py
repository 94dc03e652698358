"""Preference-based reductions of argumentation frameworks, inverse solvers.

The library decides, for a framework and a target in/out/undec labelling,
whether some CC-wise total preference order makes the labelling complete
after one of the four standard reductions, and constructs a witness order
when one exists. An exhaustive oracle double-checks the deciders on small
instances.
"""

from .errors import (
    DomainMismatchError,
    InconsistentPreferenceError,
    InvalidOrderError,
    ParseError,
    PrefargError,
    SizeLimitError,
    UnknownArgumentError,
)
from .framework import Attack, Framework
from .io_formats import (
    emit_apx,
    emit_dot,
    emit_labelling,
    emit_result,
    parse_apx,
    parse_labelling,
    parse_order,
    parse_result,
)
from .oracle import brute_force_ex
from .preferences import (
    PreferenceFunction,
    PreferenceOrder,
    consistency_certificate,
    order_to_pref_fn,
    pref_fn_to_order,
    validate_order,
)
from .reductions import graph_from_pref_fn, reduce
from .semantics import (
    IN,
    OUT,
    UNDEC,
    Certificate,
    Labelling,
    completeness_violation,
    enumerate_complete,
    is_complete,
    require_total,
)
from .solvers import Decision, decide, decide_all, verify_witness

__all__ = [
    "Attack",
    "Certificate",
    "Decision",
    "DomainMismatchError",
    "Framework",
    "IN",
    "InconsistentPreferenceError",
    "InvalidOrderError",
    "Labelling",
    "OUT",
    "ParseError",
    "PrefargError",
    "PreferenceFunction",
    "PreferenceOrder",
    "SizeLimitError",
    "UNDEC",
    "UnknownArgumentError",
    "brute_force_ex",
    "completeness_violation",
    "consistency_certificate",
    "decide",
    "decide_all",
    "emit_apx",
    "emit_dot",
    "emit_labelling",
    "emit_result",
    "enumerate_complete",
    "graph_from_pref_fn",
    "is_complete",
    "order_to_pref_fn",
    "parse_apx",
    "parse_labelling",
    "parse_order",
    "parse_result",
    "pref_fn_to_order",
    "reduce",
    "require_total",
    "validate_order",
    "verify_witness",
]
