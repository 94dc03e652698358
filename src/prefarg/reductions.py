"""The four preference reductions, from an order or from a preference function.

Reduction 1 reverses attacks from strictly less preferred sources, 2 deletes
the losing side of a mutual attack, 3 is the union of 1 and 2, and 4 deletes
every attack from a strictly less preferred source.
"""

from .errors import InvalidOrderError
from .framework import Framework
from .preferences import PreferenceFunction, PreferenceOrder, pref_fn_to_order
# benchmarks/tracing.py patches `validate_order` under this name.
from .preferences import validate_order
from .semantics import Labelling, _violators

REDUCTIONS = (1, 2, 3, 4)


def _check_index(index: int) -> None:
    if index not in REDUCTIONS:
        raise ValueError(f"reduction index must be one of {REDUCTIONS}, got {index!r}")


def _reduced_attackers(framework: Framework, rank, index: int):
    """Each argument's attackers after reduction `index`, read off the input's index.

    Returns a function from an argument to a fresh set. `rank` maps every
    argument to its level, higher preferred; only levels within one
    component are compared. Reduction 4 keeps the attackers ranked at or
    above the argument, 2 also the lower-ranked ones whose attack has no
    converse, 1 adds the targets ranked above it (reflected attacks), and 3
    is 2's set plus those targets.
    """
    _check_index(index)
    attackers, targets = framework._attackers, framework._targets
    one_way, reflected = index in (2, 3), index in (1, 3)

    def kept(name: str) -> set[str]:
        level, sources, beaten = rank[name], attackers[name], targets[name]
        found = {s for s in sources if rank[s] >= level}
        if one_way:
            found |= sources - beaten
        if reflected:
            found |= {t for t in beaten if rank[t] > level}
        return found

    return kept


def _reduced_complete(framework: Framework, labelling: Labelling, rank, index: int) -> bool:
    """Whether the total labelling is complete after reduction `index` under `rank`.

    Stops at the first argument that breaks a clause; no reduced framework
    is built.
    """
    return next(_violators(labelling, _reduced_attackers(framework, rank, index)), None) is None


def _reduced(framework: Framework, rank, index: int) -> Framework:
    """The framework after reduction `index` under `rank`, its table straight from the kernel."""
    kept = _reduced_attackers(framework, rank, index)
    return Framework._derived(framework.arguments, {a: kept(a) for a in framework.arguments})


def reduce(framework: Framework, order: PreferenceOrder, index: int) -> Framework:
    """Apply reduction `index` to the framework under the given order."""
    if not validate_order(framework, order):
        raise InvalidOrderError("order is not a CC-wise total order on the framework")
    return _reduced(framework, order._rank, index)


def graph_from_pref_fn(framework: Framework, fn: PreferenceFunction, index: int) -> Framework:
    """Defeat graph induced directly by a consistent preference function.

    The canonical order realising a consistent function puts an attack's
    source strictly below its target exactly on the 0-bit attacks, so the
    function reduces as that order does. Reduction 2 keeps one-way attacks
    whatever their bit.
    """
    _check_index(index)
    order = pref_fn_to_order(framework, fn)
    # `pref_fn_to_order` builds a CC-wise total order, so it needs no validation.
    return _reduced(framework, order._rank, index)
