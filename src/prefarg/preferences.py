"""CC-wise preference orders, per-attack preference functions, conversions.

The bit convention throughout: assigning 1 to an attack (a, b) states that
the source is at least as preferred as the target (b is weakly below a);
assigning 0 states that the target is strictly preferred (a is strictly
below b). A function is consistent when no chain of these constraints
closes into a cycle containing a strict step.
"""

from typing import Iterable, Mapping

from .errors import DomainMismatchError, InconsistentPreferenceError, InvalidOrderError
from .framework import Attack, Framework, _Value, _bfs_path, _strongly_connected


class PreferenceOrder(_Value):
    """Ranked partition of arguments into equivalence classes, least first.

    Two arguments of the same connected component compare by class rank; the
    relative placement of classes from different components carries no
    meaning and is fixed only to keep serialisation deterministic.
    """

    classes: tuple[frozenset[str], ...]
    _fields = ("classes",)

    def __init__(self, classes: Iterable[Iterable[str]] = ()):
        tup = tuple(frozenset(c) for c in classes)
        rank: dict[str, int] = {}
        for i, cls in enumerate(tup):
            if not cls:
                raise InvalidOrderError("empty preference class")
            for name in cls:
                if rank.setdefault(name, i) != i:
                    raise InvalidOrderError("preference classes overlap")
        object.__setattr__(self, "classes", tup)
        object.__setattr__(self, "_rank", rank)

    def arguments(self) -> frozenset[str]:
        return frozenset(self._rank)

    @classmethod
    def all_equivalent(cls, framework: Framework) -> "PreferenceOrder":
        """The order that sees the arguments of each component as equals."""
        return cls(framework.connected_components())


def validate_order(framework: Framework, order: PreferenceOrder) -> bool:
    """True when the order is a CC-wise total order on the framework."""
    if order.arguments() != framework.arguments:
        return False
    component_of = framework._component_of
    return all(len({component_of[a] for a in cls}) == 1 for cls in order.classes)


class PreferenceFunction(_Value):
    """Total assignment of a 0/1 preference bit to every attack; unhashable, as its dict is."""

    bits: dict[Attack, int]
    _fields = ("bits",)

    def __init__(self, bits: Mapping[Attack, int]):
        clean: dict[Attack, int] = {}
        for (src, dst), bit in dict(bits).items():
            if bit not in (0, 1):
                raise ValueError(f"bit for attack ({src},{dst}) must be 0 or 1")
            clean[(src, dst)] = int(bit)
        object.__setattr__(self, "bits", clean)


def _require_total_fn(framework: Framework, fn: PreferenceFunction) -> None:
    if set(fn.bits) != set(framework.attacks):
        raise DomainMismatchError(
            "preference function domain differs from the framework's attacks"
        )


def _walk_components(
    framework: Framework, fn: PreferenceFunction
) -> tuple[tuple[str, ...] | None, dict[str, int]]:
    """An inconsistent cycle or None, plus the walk graph's strong components."""
    _require_total_fn(framework, fn)
    succ: dict[str, list[str]] = {a: [] for a in framework.arguments}
    strict_edges: list[Attack] = []
    for (src, dst), bit in fn.bits.items():
        if bit:
            succ[src].append(dst)
        else:
            succ[dst].append(src)
            strict_edges.append((dst, src))
    component = _strongly_connected(sorted(framework.arguments), succ.__getitem__)
    for src, dst in sorted(strict_edges):
        if component[src] == component[dst]:
            path = _bfs_path(dst, src, succ.__getitem__)
            return (src,) + tuple(path[:-1]), component
    return None, component


def consistency_certificate(
    framework: Framework, fn: PreferenceFunction
) -> tuple[str, ...] | None:
    """Return an inconsistent preference cycle as a node tuple, or None.

    The walk graph has an edge for every 1-bit attack and the converse of
    every 0-bit attack. A function is inconsistent exactly when some cycle
    of that graph uses a converse-of-0 edge, i.e. a strict preference step.
    """
    return _walk_components(framework, fn)[0]


def order_to_pref_fn(framework: Framework, order: PreferenceOrder) -> PreferenceFunction:
    """Bit 0 on attacks whose source is strictly below the target, else 1."""
    if not validate_order(framework, order):
        raise InvalidOrderError("order is not a CC-wise total order on the framework")
    rank = order._rank
    return PreferenceFunction({(s, t): 0 if rank[s] < rank[t] else 1 for s, t in framework.attacks})


def pref_fn_to_order(framework: Framework, fn: PreferenceFunction) -> PreferenceOrder:
    """Canonical CC-wise total order realising a consistent function.

    Constraints are read off the bits (0 on (a,b): a strictly below b; 1 on
    (a,b): b weakly below a), equal arguments are found as strongly
    connected sets of the constraint graph, and classes are ranked by the
    longest chain of strict constraints leading into them, which merges
    unconstrained arguments as low as possible.
    """
    certificate, component = _walk_components(framework, fn)
    if certificate is not None:
        raise InconsistentPreferenceError(
            "preference function has an inconsistent cycle", cycle=certificate
        )
    # The constraint graph is the converse of the walk graph, so the walk
    # graph's strong components are the classes. Condense to class-level
    # edges; a strict edge forces a rank increase, and consistency keeps
    # every strict edge between two different classes.
    edge_strict: dict[tuple[int, int], bool] = {}
    for (src, dst), bit in fn.bits.items():
        if bit == 0:
            edge_strict[(component[src], component[dst])] = True
        elif component[src] != component[dst]:
            edge_strict.setdefault((component[dst], component[src]), False)

    # Tarjan numbers walk-graph sinks first, so every condensed constraint
    # edge (a, b) has a < b and ascending order settles each rank in one pass.
    rank = dict.fromkeys(component.values(), 0)
    for (a, b), is_strict in sorted(edge_strict.items()):
        rank[b] = max(rank[b], rank[a] + is_strict)

    return order_by_depth(framework, {a: -rank[c] for a, c in component.items()})


def order_by_depth(framework: Framework, depth: Mapping[str, int]) -> PreferenceOrder:
    """Each component's arguments grouped by depth, deepest (least preferred) first.

    An attack runs strictly down, its source below its target, exactly when
    the source is deeper.
    """
    classes: list[frozenset[str]] = []
    for block in framework.connected_components():
        by_depth: dict[int, set[str]] = {}
        for name in block:
            by_depth.setdefault(depth[name], set()).add(name)
        for level in sorted(by_depth, reverse=True):
            classes.append(frozenset(by_depth[level]))
    return PreferenceOrder(classes)
