"""Complete labellings: verification and enumeration."""

from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import DomainMismatchError, SizeLimitError, UnknownArgumentError, least_names
from .framework import Framework, _Value, _strongly_connected

IN = "in"
OUT = "out"
UNDEC = "undec"
LABELS = (IN, OUT, UNDEC)

LABELLING_CAP = 20


class Labelling(_Value):
    """Total assignment of in/out/undec, stored as the three argument sets."""

    in_args: frozenset[str]
    out_args: frozenset[str]
    undec_args: frozenset[str]
    _fields = ("in_args", "out_args", "undec_args")

    def __init__(
        self,
        in_args: Iterable[str] = (),
        out_args: Iterable[str] = (),
        undec_args: Iterable[str] = (),
    ):
        i, o, u = frozenset(in_args), frozenset(out_args), frozenset(undec_args)
        if not (i.isdisjoint(o) and i.isdisjoint(u) and o.isdisjoint(u)):
            raise ValueError("labelling sets overlap")
        object.__setattr__(self, "in_args", i)
        object.__setattr__(self, "out_args", o)
        object.__setattr__(self, "undec_args", u)

    @classmethod
    def from_map(cls, mapping: Mapping[str, str]) -> "Labelling":
        sets: dict[str, set[str]] = {IN: set(), OUT: set(), UNDEC: set()}
        for name, label in mapping.items():
            if label not in sets:
                raise ValueError(f"bad label {label!r} for argument {name!r}")
            sets[label].add(name)
        return cls(sets[IN], sets[OUT], sets[UNDEC])

    def label(self, name: str) -> str:
        if name in self.in_args:
            return IN
        if name in self.out_args:
            return OUT
        if name in self.undec_args:
            return UNDEC
        raise UnknownArgumentError(f"argument {name!r} is not labelled")

    def arguments(self) -> frozenset[str]:
        return self.in_args | self.out_args | self.undec_args


class Certificate(NamedTuple):
    """A failed check: the condition or clause number, the arguments that witness it, and why."""

    condition: int
    witness: tuple[str, ...]
    detail: str = ""


def require_total(framework: Framework, labelling: Labelling) -> None:
    """Raise unless the labelling covers the framework's arguments exactly.

    The three label sets are disjoint, so they cover the arguments exactly
    when their sizes add up and each lies inside the arguments.
    """
    arguments = framework.arguments
    parts = (labelling.in_args, labelling.out_args, labelling.undec_args)
    if sum(map(len, parts)) != len(arguments) or not all(map(arguments.issuperset, parts)):
        missing = least_names(arguments - labelling.arguments())
        extra = least_names(labelling.arguments() - arguments)
        raise DomainMismatchError(
            f"labelling does not match the framework (missing {missing}, extra {extra})"
        )


def _violators(labelling: Labelling, attackers_of) -> Iterator[str]:
    """The arguments that break a completeness clause, lazily, given each one's attackers.

    Every argument's clause is the one of its label: 1 for in, 2 for out, 3
    for undec. Reads `attackers_of(name)` for the labelled arguments only.
    """
    in_args, out_args = labelling.in_args, labelling.out_args
    for name in in_args:
        if not attackers_of(name) <= out_args:
            yield name
    for name in out_args:
        if in_args.isdisjoint(attackers_of(name)):
            yield name
    for name in labelling.undec_args:
        attackers = attackers_of(name)
        if attackers <= out_args or not in_args.isdisjoint(attackers):
            yield name


def completeness_violation(framework: Framework, labelling: Labelling) -> Certificate | None:
    """Check the three completeness clauses; certify the least violating argument.

    Clause 1: an argument is in exactly when all its attackers are out.
    Clause 2: an argument is out exactly when some attacker is in.
    Clause 3: an argument is undec exactly when neither of the above holds.
    """
    require_total(framework, labelling)
    return _least_violation(
        framework, labelling, _violators(labelling, framework._attackers.__getitem__)
    )


def _least_violation(
    framework: Framework, labelling: Labelling, violators: Iterable[str]
) -> Certificate | None:
    """The certificate of `completeness_violation` for the least of the given violators."""
    name = min(violators, default=None)
    if name is None:
        return None
    if name in labelling.in_args:
        return Certificate(1, (name,), f"{name} is in but has a non-out attacker")
    if name in labelling.out_args:
        return Certificate(2, (name,), f"{name} is out but has no in attacker")
    all_out = framework._attackers[name] <= labelling.out_args
    reason = "all attackers out" if all_out else "an in attacker"
    return Certificate(3, (name,), f"{name} is undec but has {reason}")


def is_complete(framework: Framework, labelling: Labelling) -> bool:
    return completeness_violation(framework, labelling) is None


def enumerate_complete(framework: Framework) -> list[Labelling]:
    """All complete labellings, ordered by sorted in-set then out-set.

    The arguments are branched over {in, out, undec} with pruning as soon as
    a clause is unsatisfiable, attackers before their targets: strongly
    connected components of the attack graph sources first, names within
    one. Every leaf is complete: each argument's clause was checked once all
    of its attackers were assigned. The pruning tests walk attacker sets in
    name order, so the work does not depend on the hash seed. Refuses
    frameworks above `LABELLING_CAP` arguments.
    """
    count = len(framework.arguments)
    if count > LABELLING_CAP:
        raise SizeLimitError(
            f"enumeration over {count} arguments exceeds the cap of {LABELLING_CAP}"
        )
    assign: dict[str, str] = {}
    # Tarjan numbers sinks first, so the highest ids are the sources.
    scc = _strongly_connected(sorted(framework.arguments), framework._targets.__getitem__)
    free = sorted(framework.arguments, key=lambda a: (-scc[a], a))
    results: list[Labelling] = []
    attackers = framework._attackers

    def could_be_in(name: str) -> bool:
        # Open, not self-attacking, and no attacker labelled in or undec yet.
        return (
            name not in assign
            and name not in attackers[name]
            and all(assign.get(b, OUT) == OUT for b in sorted(attackers[name]))
        )

    def ends_out(name: str) -> bool:
        # Labelled out, or open with an attacker labelled in, so it can only end out.
        label = assign.get(name)
        return label == OUT or label is None and IN in map(assign.get, sorted(attackers[name]))

    def alive_around(name: str) -> bool:
        # Only the clauses that read the fresh label can newly fail: its own, its targets',
        # and, unless it is out, those of the labelled arguments its open targets attack.
        ahead = framework._targets[name] - assign.keys() if assign[name] != OUT else set()
        for node, label in assign.items():
            sources = attackers[node]
            if node != name and name not in sources and ahead.isdisjoint(sources):
                continue
            attacker_labels = [assign.get(b) for b in sources]
            if label == IN:
                if any(lb in (IN, UNDEC) for lb in attacker_labels):
                    return False
            elif label == OUT:
                if IN not in attacker_labels and not any(map(could_be_in, sorted(sources))):
                    return False
            elif IN in attacker_labels or all(map(ends_out, sorted(sources))):
                return False
        return True

    def search(index: int) -> None:
        if index == len(free):
            results.append(Labelling.from_map(assign))
            return
        name = free[index]
        for label in LABELS:
            assign[name] = label
            if alive_around(name):
                search(index + 1)
        del assign[name]

    search(0)
    results.sort(key=lambda l: (tuple(sorted(l.in_args)), tuple(sorted(l.out_args))))
    return results
