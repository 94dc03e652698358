"""The four preference reductions, from an order or from a preference function.

Reduction 1 reverses attacks from strictly less preferred sources, 2 deletes
the losing side of a mutual attack, 3 is the union of 1 and 2, and 4 deletes
every attack from a strictly less preferred source.
"""

from .errors import InconsistentPreferenceError, InvalidOrderError, WpsgConstraintError
from .framework import Framework
from .preferences import (
    PreferenceFunction,
    PreferenceOrder,
    consistency_certificate,
    validate_order,
)

REDUCTIONS = (1, 2, 3, 4)


def _check_index(index: int) -> None:
    if index not in REDUCTIONS:
        raise ValueError(f"reduction index must be one of {REDUCTIONS}, got {index!r}")


def _defeat_graph(framework: Framework, down, index: int) -> Framework:
    """Reduction `index` given the attacks whose source is strictly below its target.

    Every reduction keeps the other attacks; 1 and 3 add the converse of each
    down attack, and 2 and 3 keep the down attacks that have no converse.
    """
    attacks = framework.attacks
    kept = attacks - down
    if index in (1, 3):
        kept |= {(dst, src) for src, dst in down}
    if index in (2, 3):
        kept |= {(src, dst) for src, dst in down if (dst, src) not in attacks}
    return Framework._derived(framework.arguments, kept)


def reduce(framework: Framework, order: PreferenceOrder, index: int) -> Framework:
    """Apply reduction `index` to the framework under the given order."""
    _check_index(index)
    if not validate_order(framework, order):
        raise InvalidOrderError("order is not a CC-wise total order on the framework")
    rank = order._rank
    down = {(a, b) for a, b in framework.attacks if rank[a] < rank[b]}
    return _defeat_graph(framework, down, index)


def graph_from_pref_fn(
    framework: Framework,
    fn: PreferenceFunction,
    index: int,
    *,
    strict: bool = False,
) -> Framework:
    """Defeat graph induced directly by a consistent preference function.

    The 0-bit attacks are the ones whose source is strictly below its target,
    so the function feeds the same kernel as `reduce`. Reduction 2 keeps
    one-way attacks whatever their bit; pass strict=True to reject a 0 bit on
    one of them instead.
    """
    _check_index(index)
    certificate = consistency_certificate(framework, fn)
    if certificate is not None:
        raise InconsistentPreferenceError(
            "preference function has an inconsistent cycle", cycle=certificate
        )
    down = fn.zero_attacks
    if index == 2 and strict:
        offenders = sorted((s, t) for s, t in down if (t, s) not in framework.attacks)
        if offenders:
            raise WpsgConstraintError(
                f"one-way attacks mapped to 0 under reduction 2: {offenders}"
            )
    return _defeat_graph(framework, down, index)
