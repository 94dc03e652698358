"""Polynomial-time deciders for the four inverse problems, with witnesses.

`decide` answers whether some CC-wise total order turns the target
labelling into a complete labelling of the reduced framework. A positive
answer carries a witness order that `verify_witness` accepts; a negative
answer carries a certificate naming the violated condition and a witnessing
argument or attack.
"""

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidOrderError
from .framework import Framework, _strongly_connected
from .preferences import PreferenceOrder, order_by_depth
# benchmarks/tracing.py patches `validate_order` under this name.
from .preferences import validate_order
# Unused here: benchmarks/tracing.py patches `pref_fn_to_order` under this name.
from .preferences import pref_fn_to_order  # noqa: F401
from .reductions import _check_index, _reduced_complete
# Unused here: benchmarks/tracing.py patches `reduce` under this name.
from .reductions import reduce  # noqa: F401
from .semantics import Certificate, Labelling, _least_violation, _violators, require_total
# Unused here: benchmarks/tracing.py patches `completeness_violation` under this name.
from .semantics import completeness_violation  # noqa: F401


class Decision(NamedTuple):
    yes: bool
    reduction: int
    witness: PreferenceOrder | None = None
    certificate: Certificate | None = None

    @property
    def verdict(self) -> str:
        return "yes" if self.yes else "no"


def _conditions_1_2(
    framework: Framework, labelling: Labelling, violators: list[str]
) -> Certificate | None:
    """First violation of conditions 1-2, shared by reductions 1 and 3, read off the violators.

    Condition 1 forbids attacks inside I x I, I x U and U x I: an attack
    into an in argument from a non-out one, or into an undec argument from
    an in one. The targets of those attacks are the in violators and the
    undec violators with an in attacker. Condition 2 asks every out argument
    for an in-labelled attacker or target, so only an out violator can fail
    it, and only when no in argument's attackers hold it.
    """
    in_args, out_args = labelling.in_args, labelling.out_args
    attackers = framework._attackers
    clashes = [
        (s, d)
        for d in violators
        if d not in out_args
        for s in (attackers[d] - out_args if d in in_args else attackers[d] & in_args)
    ]
    if clashes:
        return Certificate(1, min(clashes), "attack between in/undec labelled arguments")
    unattacked = [a for a in violators if a in out_args]
    if unattacked:
        untouched = set(unattacked).difference(*(attackers[a] for a in in_args))
        if untouched:
            detail = "out argument with no in-labelled neighbour"
            return Certificate(2, (min(untouched),), detail)
    return None


class _Checks:
    """What the reductions of one `decide_all` call share, each made at most once.

    The rejection checks read the completeness violators, listed by one scan
    of the labelled arguments' attackers; reductions 1 and 3 read one
    layering; an already complete labelling gets one order of equals.
    """

    def __init__(self, framework: Framework, labelling: Labelling):
        self.framework, self.labelling = framework, labelling

    @cached_property
    def violators(self) -> list[str]:
        require_total(self.framework, self.labelling)
        return list(_violators(self.labelling, self.framework._attackers.__getitem__))

    @cached_property
    def violation(self) -> Certificate | None:
        return _least_violation(self.framework, self.labelling, self.violators)

    @cached_property
    def conditions_1_2(self) -> Certificate | None:
        return _conditions_1_2(self.framework, self.labelling, self.violators)

    @cached_property
    def equals(self) -> PreferenceOrder:
        return PreferenceOrder.all_equivalent(self.framework)

    @cached_property
    def layering(self) -> tuple[dict[str, int], list[frozenset[str]]]:
        """The depths of reductions 1 and 3, and the undec blocks they miss, by least name.

        The in arguments sit on layer 0 and the undec ones are layered from
        their cyclic core: every core argument keeps an attacker inside the
        core, and every other one keeps one on the layer above it, directly or
        by reflection. The blocks missed are those without a cycle; `_ex3`
        layers them into the same depths, which `_ex1` reads only when none is.
        """
        framework, undec = self.framework, self.labelling.undec_args
        depth = dict.fromkeys(self.labelling.in_args, 0)
        framework._layer(framework._cyclic_core(undec), depth, undec)
        return depth, framework._blocks(undec.difference(depth))


def _witness(framework: Framework, labelling: Labelling, depth: dict) -> PreferenceOrder:
    """The order of the in/undec depths, with every out argument below them all.

    Layers and rank values never exceed the argument count, so an attack
    into an out argument is kept and one leaving it runs down.
    """
    depth.update(dict.fromkeys(labelling.out_args, len(framework.arguments) + 1))
    return order_by_depth(framework, depth)


def _ex1(checks: _Checks) -> Decision:
    """Reduction 1 (attack reflection), on a labelling that is not complete.

    Positive exactly when no attack touches two in/undec arguments other
    than undec-undec pairs, every out argument has an in neighbour, and
    every component of the undec part of the attack graph contains a cycle.
    """
    failed = checks.conditions_1_2
    if failed is not None:
        return Decision(False, 1, certificate=failed)
    depth, missed = checks.layering
    if missed:
        detail = "undec component without a cycle"
        return Decision(False, 1, certificate=Certificate(3, tuple(sorted(missed[0])), detail))
    return Decision(True, 1, witness=_witness(checks.framework, checks.labelling, depth))


def _ex2(checks: _Checks) -> Decision:
    """Reduction 2 keeps a labelling complete only if it already is."""
    return Decision(False, 2, certificate=checks.violation)


def _ex3(checks: _Checks) -> Decision:
    """Reduction 3 (reflection plus weak removal), on a labelling that is not complete.

    Conditions 1 and 2 are as for reduction 1; condition 3 relaxes to
    requiring an undec neighbour for every undec argument.
    """
    failed = checks.conditions_1_2
    if failed is not None:
        return Decision(False, 3, certificate=failed)
    framework, labelling = checks.framework, checks.labelling
    depth, missed = checks.layering
    for block in missed:
        # Without a cycle, layer from the target d of the least attack (s, d):
        # s lands on layer 1, so that attack runs down and becomes mutual.
        least = min(((s, d) for s in block for d in framework._targets[s] & block), default=None)
        if least is None:
            # Blocks come ordered by least name, so this is the least isolated argument.
            detail = "undec argument isolated among undec arguments"
            return Decision(False, 3, certificate=Certificate(3, tuple(block), detail))
        framework._layer((least[1],), depth, block)
    return Decision(True, 3, witness=_witness(framework, labelling, depth))


def _rank_detail(framework: Framework, in_args: frozenset[str], undec: frozenset[str]):
    """The least ranking of the in and undec arguments, or the reason none exists.

    A ranking values them so that every attack among them that touches an
    in argument runs strictly down, and no undec argument sits below all its
    undec attackers. Every other argument of the framework is skipped.
    Returns (psi, None) on success and (None, certificate) on failure. The
    certificate, for condition 2 of reduction 4, names the least undec
    argument without an undec attacker or, when there is none, the least
    argument with no finite value.

    Values settle in increasing order, one level at a time (Knuth, *A
    generalization of Dijkstra's algorithm*, 1977). An in argument settles
    one level above its last in/undec target. An undec argument becomes
    eligible one level above its last in target, or at 0 without one, and
    settles at the first level from then on at which an undec attacker has
    settled or it lies on or below a cycle of eligible, unsettled undec
    arguments; such a cycle gets no finite derivation, so it is found by
    peeling. A cycle new at a level lies inside one strongly connected
    component (SCC) of the undec attack subgraph and passes through an
    argument that became eligible there, so each level peels only the
    forward reach of those inside their own SCCs; `settle` settles what
    lies below. Linear in n + m unless one SCC keeps gaining eligible
    arguments level after level; O(n * (n + m)) at worst.
    """
    attackers = framework._attackers
    unattacked = [u for u in undec if undec.isdisjoint(attackers[u])]
    if unattacked:
        detail = "undec argument without an undec attacker"
        return None, Certificate(2, (min(unattacked),), detail)
    targets = framework._targets
    # Targets still to settle: in/undec ones for an in argument, in ones for an undec one.
    waiting = {a: sum(t in in_args or t in undec for t in targets[a]) for a in in_args}
    waiting.update((u, sum(t in in_args for t in targets[u])) for u in undec)
    psi: dict[str, int] = {}  # the settled arguments
    eligible: set[str] = set()  # undec, past its in targets, without a settled undec attacker

    def settle(queue: list[str], level: int, upcoming: list[str]) -> None:
        for node in queue:
            psi[node] = level
            for other in attackers[node]:
                if other in in_args or (other in undec and node in in_args):
                    waiting[other] -= 1
                    if waiting[other] == 0:
                        upcoming.append(other)
            if node in undec:
                caught = targets[node] & eligible
                eligible.difference_update(caught)
                queue += caught

    ready = [a for a, count in waiting.items() if count == 0]
    level, scc = 0, None
    while ready:
        upcoming: list[str] = []
        # An unsettled argument's in attackers are unsettled too, so this asks for an undec one.
        fresh = [u for u in ready if u in undec and psi.keys().isdisjoint(attackers[u])]
        eligible.update(fresh)
        settle([a for a in ready if a not in eligible], level, upcoming)
        reach = [u for u in fresh if u in eligible and not eligible.isdisjoint(attackers[u])]
        if reach:
            scc = scc or _strongly_connected(undec, lambda u: targets[u] & undec)
            seen = set(reach)
            for node in reach:
                for other in targets[node]:
                    if other in eligible and other not in seen and scc[other] == scc[node]:
                        seen.add(other)
                        reach.append(other)
            core = list(framework._cyclic_core(seen))
            eligible.difference_update(core)
            settle(core, level, upcoming)
        ready = upcoming
        level += 1
    if len(psi) < len(waiting):
        detail = "rank value exceeded the argument count"
        return None, Certificate(2, (min(a for a in waiting if a not in psi),), detail)
    return psi, None


def _ex4(checks: _Checks) -> Decision:
    """Reduction 4 (attack removal), on a labelling that is not complete.

    Out arguments must keep an in-labelled attacker since removal never adds
    attacks; the rest reduces to finding a ranking of the in/undec part, and
    a ranking yields the witness by dropping every attack that runs strictly
    downhill.
    """
    framework, labelling = checks.framework, checks.labelling
    # An out argument without an in attacker is an out violator.
    name = min((a for a in checks.violators if a in labelling.out_args), default=None)
    if name is not None:
        detail = "out argument without an in-labelled attacker"
        return Decision(False, 4, certificate=Certificate(1, (name,), detail))
    psi, failure = _rank_detail(framework, labelling.in_args, labelling.undec_args)
    if psi is None:
        return Decision(False, 4, certificate=failure)
    return Decision(True, 4, witness=_witness(framework, labelling, psi))


# Each reduction's decider, called only on a labelling that is not already complete.
DECIDERS = {1: _ex1, 2: _ex2, 3: _ex3, 4: _ex4}


def decide(framework: Framework, labelling: Labelling, reduction: int) -> Decision:
    return next(decide_all(framework, labelling, (reduction,)))


def decide_all(
    framework: Framework, labelling: Labelling, reductions: Iterable[int]
) -> Iterator[Decision]:
    """Yield `decide(framework, labelling, r)` for each reduction r in turn.

    An already complete labelling gets the order of equals, under which every
    reduction keeps every attack. What the reductions share, from the scan for
    completeness violators on, is made under the first that needs it and
    dropped with the generator.
    """
    checks = _Checks(framework, labelling)
    for reduction in reductions:
        _check_index(reduction)
        if checks.violation is None:
            yield Decision(True, reduction, witness=checks.equals)
        else:
            yield DECIDERS[reduction](checks)


def verify_witness(
    framework: Framework, labelling: Labelling, reduction: int, order: PreferenceOrder
) -> bool:
    """True when the labelling is complete on the reduced framework.

    Reads the reduced attacker sets off the input's index; no reduced
    framework is built.
    """
    if not validate_order(framework, order):
        raise InvalidOrderError("witness is not a CC-wise total order on the framework")
    require_total(framework, labelling)
    return _reduced_complete(framework, labelling, order._rank, reduction)
