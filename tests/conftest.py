import itertools
import random
import re

import pytest

from prefarg import (
    IN,
    OUT,
    UNDEC,
    Certificate,
    Framework,
    Labelling,
    ParseError,
    PreferenceOrder,
)

EXAMPLE1_ATTACKS = [
    ("a", "b"),
    ("a", "c"),
    ("c", "a"),
    ("b", "c"),
    ("c", "b"),
    ("d", "c"),
    ("c", "d"),
]

EXAMPLE1_APX = """\
arg(a). arg(b). arg(c). arg(d).
att(a,b). att(a,c). att(c,a). att(b,c). att(c,b). att(d,c). att(c,d).
"""

# Labellings of a -> b that repeat the key "in". Read last-wins, the first
# is complete and the second overlaps.
REPEATED_KEY_LABELLINGS = [
    '{"in":["b"],"out":["a"],"in":["a"],"out":["b"]}',
    '{"in":["a"],"out":["b"],"in":["b"]}',
]

RANK_FIGURE_ATTACKS = [
    ("b", "a"),
    ("f", "b"),
    ("e", "b"),
    ("c", "e"),
    ("d", "c"),
    ("e", "c"),
]


@pytest.fixture
def example1() -> Framework:
    return Framework("abcd", EXAMPLE1_ATTACKS)


@pytest.fixture
def two_arg() -> Framework:
    return Framework("ab", [("a", "b")])


@pytest.fixture
def rank_figure() -> Framework:
    return Framework("abcdef", RANK_FIGURE_ATTACKS)


@pytest.fixture
def rank_figure_labelling() -> Labelling:
    return Labelling(in_args="abdf", undec_args="ce")


def random_framework(rng: random.Random, size: int, prob: float) -> Framework:
    names = [f"x{i}" for i in range(size)]
    attacks = [(s, t) for s in names for t in names if rng.random() < prob]
    return Framework(names, attacks)


def random_labelling(rng: random.Random, framework: Framework) -> Labelling:
    return Labelling.from_map(
        {name: rng.choice((IN, OUT, UNDEC)) for name in sorted(framework.arguments)}
    )


def random_order(rng: random.Random, framework: Framework) -> PreferenceOrder:
    """Random CC-wise total order in canonical component grouping."""
    classes = []
    for component in framework.connected_components():
        members = sorted(component)
        rng.shuffle(members)
        chain = [[members[0]]]
        for name in members[1:]:
            if rng.random() < 0.5:
                chain[-1].append(name)
            else:
                chain.append([name])
        classes.extend(frozenset(cls) for cls in chain)
    return PreferenceOrder(classes)


def all_labellings(framework: Framework):
    """Every total labelling of a small framework."""
    names = sorted(framework.arguments)
    for combo in itertools.product((IN, OUT, UNDEC), repeat=len(names)):
        yield Labelling.from_map(dict(zip(names, combo)))


def all_frameworks(names: tuple[str, ...]):
    """Every framework over the given argument names."""
    pairs = [(s, t) for s in names for t in names]
    for mask in range(1 << len(pairs)):
        yield Framework(names, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


_LINE_FACT = re.compile(
    r"\s*(?:arg\(\s*([A-Za-z0-9_]+)\s*\)|att\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\))\s*\."
)


def reference_parse_apx(text: str) -> Framework:
    """APX read line by line: cut each line at `%`, match facts from its start.

    Independent of `prefarg.io_formats`: the first line with anything left
    after its leading run of facts raises, naming up to 40 characters of it,
    and the facts go to the public, checked `Framework` constructor.
    """
    args: set[str] = set()
    atts: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        pos = 0
        while match := _LINE_FACT.match(line, pos):
            name, src, dst = match.groups()
            if name is None:
                atts.add((src, dst))
            else:
                args.add(name)
            pos = match.end()
        rest = line[pos:].lstrip()
        if rest:
            raise ParseError(f"unrecognised content: {rest[:40]!r}", line=lineno)
    return Framework(args, atts)


def reference_reduce(framework: Framework, order: PreferenceOrder, index: int) -> Framework:
    """The four reductions written out from their definitions, pair by pair.

    Independent of `prefarg.reductions`: ranks come straight from the
    order's classes and every ordered pair of arguments is tested against
    the membership condition of the reduced attack relation.
    """
    rank = {name: level for level, cls in enumerate(order.classes) for name in cls}
    attacks = framework.attacks

    def below(a, b):
        return rank[a] < rank[b]

    def reflection(a, b):
        # (a, b) survives unless a is below b, and (b, a) turns into (a, b) when b is below a
        return ((a, b) in attacks and not below(a, b)) or ((b, a) in attacks and below(b, a))

    def weak_removal(a, b):
        # (a, b) is removed only when a is below b and b attacks a back
        return (a, b) in attacks and (not below(a, b) or (b, a) not in attacks)

    def removal(a, b):
        return (a, b) in attacks and not below(a, b)

    member = {
        1: reflection,
        2: weak_removal,
        3: lambda a, b: reflection(a, b) or weak_removal(a, b),
        4: removal,
    }[index]
    names = sorted(framework.arguments)
    return Framework(names, [(a, b) for a in names for b in names if member(a, b)])


def enumerate_orders(framework: Framework):
    """Every CC-wise total order, in the order the oracle tries them.

    The product of each component's weak orders, components in
    `connected_components()` order and the last one varying fastest, each
    combination chained into one order.
    """
    from prefarg.oracle import _weak_order_pools

    for combo in itertools.product(*_weak_order_pools(framework)):
        yield PreferenceOrder(tuple(itertools.chain.from_iterable(combo)))


def write_order(order: PreferenceOrder, framework: Framework) -> str:
    """The order file `parse_order` reads: one line per component, least-preferred class first."""
    lines = (
        " < ".join(" = ".join(sorted(cls)) for cls in order.classes if cls <= component)
        for component in framework.connected_components()
    )
    return "".join(f"{line}\n" for line in lines)


def is_valid_ranking(framework: Framework, labelling: Labelling, psi) -> bool:
    """The two ranking conditions of an out-free labelling, checked off the attack set.

    Every attack with an in endpoint runs strictly down, and every undec
    argument has an undec attacker and a value at least the least of theirs.
    """
    assert not labelling.out_args
    if not framework.arguments <= set(psi):
        return False
    in_args, undec = labelling.in_args, labelling.undec_args
    for src, dst in framework.attacks:
        if (src in in_args or dst in in_args) and not psi[src] > psi[dst]:
            return False
    for name in undec:
        attackers = [s for s, t in framework.attacks if t == name and s in undec]
        if not attackers or psi[name] < min(psi[v] for v in attackers):
            return False
    return True


def reference_brute_force_ex(framework: Framework, labelling: Labelling, reduction: int):
    """The exhaustive oracle written plainly: build, reduce and check every enumerated order.

    Returns the first order of `enumerate_orders` under which the reduced
    framework makes the labelling complete, as `(True, order)`, or
    `(False, None)`.
    """
    from prefarg import is_complete, reduce, require_total

    require_total(framework, labelling)
    for order in enumerate_orders(framework):
        if is_complete(reduce(framework, order, reduction), labelling):
            return True, order
    return False, None


def assert_indexed_like_a_checked_build(graph: Framework) -> None:
    """The graph's index agrees with its attack set and with a fresh checked build."""
    fresh = Framework(graph.arguments, graph.attacks)
    assert graph == fresh
    for name in graph.arguments:
        assert graph._attackers[name] == {s for s, t in graph.attacks if t == name}
        assert graph._targets[name] == {t for s, t in graph.attacks if s == name}
        assert graph._attackers[name] == fresh._attackers[name]
        assert graph._targets[name] == fresh._targets[name]
    assert graph.connected_components() == fresh.connected_components()


def reference_grounded(framework: Framework) -> Labelling:
    """The grounded labelling by whole sweeps until nothing changes.

    Independent of `prefarg.semantics`: every sweep labels in each argument
    whose attackers are all out and labels out each argument with an in
    attacker, reading the attackers off the attack set.
    """
    attackers = {a: {s for s, t in framework.attacks if t == a} for a in framework.arguments}
    in_set: set[str] = set()
    out_set: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in sorted(framework.arguments - in_set - out_set):
            if attackers[name] <= out_set:
                in_set.add(name)
                changed = True
            elif attackers[name] & in_set:
                out_set.add(name)
                changed = True
    return Labelling(in_set, out_set, framework.arguments - in_set - out_set)


def reference_conditions_1_2(framework: Framework, labelling: Labelling):
    """The first violation of conditions 1-2 of reductions 1 and 3, by a scan of every attack.

    Condition 1 names the least attack between in/undec arguments other
    than an undec-undec one; condition 2 the least out argument with no
    in-labelled attacker or target. Returns the `Certificate`, or None.
    """
    from prefarg import Certificate

    in_args, out_args = labelling.in_args, labelling.out_args
    inner = ((s, d) for s, d in framework.attacks if s not in out_args and d not in out_args)
    attack = min(((s, d) for s, d in inner if s in in_args or d in in_args), default=None)
    if attack is not None:
        return Certificate(1, attack, "attack between in/undec labelled arguments")
    neighbours = {a: set() for a in framework.arguments}
    for s, d in framework.attacks:
        neighbours[s].add(d)
        neighbours[d].add(s)
    name = min((a for a in out_args if in_args.isdisjoint(neighbours[a])), default=None)
    if name is not None:
        return Certificate(2, (name,), "out argument with no in-labelled neighbour")
    return None


def reference_rank_detail(framework: Framework, in_args: frozenset[str], undec: frozenset[str]):
    """Fixpoint sweeps computing a ranking, or the reason none exists.

    The in and undec sets partition the framework's arguments. Returns
    (psi, None) on success and (None, (kind, argument)) on failure, where
    kind is "undec-unattacked" or "overflow".
    """
    names = sorted(framework.arguments)
    bound = len(names)
    targets = framework._targets
    undec_attackers = {u: framework._attackers[u] & undec for u in undec}
    in_targets = {u: targets[u] & in_args for u in undec}
    psi = {u: 0 for u in names}
    for _ in range((bound + 2) ** 2):
        changed = False
        for name in names:
            if name in in_args:
                value = psi[name]
                for other in targets[name]:
                    value = max(value, psi[other] + 1)
            elif name in undec:
                if not undec_attackers[name]:
                    return None, ("undec-unattacked", name)
                value = max(psi[name], min(psi[v] for v in undec_attackers[name]))
                for other in in_targets[name]:
                    value = max(value, psi[other] + 1)
            else:
                continue
            if value > bound:
                return None, ("overflow", name)
            if value != psi[name]:
                psi[name] = value
                changed = True
        if not changed:
            return psi, None
    raise AssertionError("rank sweep bound exceeded")


def kleene_rank(framework: Framework, in_args, undec) -> dict[str, int]:
    """Least ranking values of the in and undec arguments, n + 1 standing for none.

    Independent of `prefarg.solvers`: out arguments are dropped, and every
    round recomputes every value from the last round's, with no early exit,
    for as many rounds as the capped values can rise in total. An in
    argument's value exceeds each of its targets'; an undec argument's is at
    least its in targets' plus one and the least of its undec attackers'.
    """
    kept = set(in_args) | set(undec)
    names = sorted(kept)
    cap = len(names) + 1
    above = {a: [t for s, t in framework.attacks if s == a and t in kept] for a in names}
    above.update(
        {u: [t for s, t in framework.attacks if s == u and t in in_args] for u in undec}
    )
    floor = {u: [s for s, t in framework.attacks if t == u and s in undec] for u in undec}
    psi = dict.fromkeys(names, 0)
    for _ in range(len(names) * cap + 1):
        last = psi
        psi = {}
        for name in names:
            value = max([last[name]] + [last[t] + 1 for t in above[name]])
            if name in floor:
                value = max(value, min((last[v] for v in floor[name]), default=cap))
            psi[name] = min(value, cap)
    return psi


def ex4_certificate_holds(framework: Framework, labelling: Labelling, certificate) -> bool:
    """Whether a reduction-4 no certificate names what the graph alone shows.

    Condition 1 names the least out argument without an in attacker.
    Condition 2 names, when condition 1 holds, either the least undec
    argument without an undec attacker or, when there is none, the least
    argument that `kleene_rank` leaves without a value.
    """
    in_args, undec = labelling.in_args, labelling.undec_args
    attackers = {a: {s for s, t in framework.attacks if t == a} for a in framework.arguments}

    def least(names):
        return (min(names),) if names else None

    orphans = [a for a in labelling.out_args if not attackers[a] & in_args]
    if certificate.condition == 1:
        return certificate.witness == least(orphans)
    if orphans or certificate.condition != 2:
        return False
    unattacked = [u for u in undec if not attackers[u] & undec]
    if certificate.detail == "undec argument without an undec attacker":
        return certificate.witness == least(unattacked)
    if unattacked or certificate.detail != "rank value exceeded the argument count":
        return False
    psi = kleene_rank(framework, in_args, undec)
    return certificate.witness == least([a for a, value in psi.items() if value > len(psi)])


def shared_chain(k: int, length: int, closed: bool = False):
    """K undec arguments that become eligible one level apart, each feeding one pending chain.

    k_i attacks the in argument c_i, so it becomes eligible at level K - i + 1;
    k_{i+1} attacks k_i, k_1 attacks z and z attacks k_K, so the cycle closes
    only at level K, when every undec argument settles: reduction 4 answers
    yes, and reductions 1-3 no, since each in-chain attack joins two in
    arguments. `closed` adds an attack from the chain's last pending argument
    to k_1, which puts the pending chain inside the cycle's strongly
    connected component. Returns the framework, the labelling, the in chain
    and the undec arguments.
    """
    chain = [f"c{i:03d}" for i in range(k + 1)]
    waiting = {i: f"k{i:03d}" for i in range(1, k + 1)}
    pending = [f"p{i:04d}" for i in range(length)]
    attacks = [*zip(chain, chain[1:]), *zip(pending, pending[1:])]
    attacks += [(waiting[i], chain[i]) for i in waiting]
    attacks += [(waiting[i + 1], waiting[i]) for i in range(1, k)]
    attacks += [(waiting[1], "z"), ("z", waiting[k])]
    attacks += [(waiting[i], pending[0]) for i in waiting]
    if closed:
        attacks.append((pending[-1], waiting[1]))
    undec = [*waiting.values(), *pending, "z"]
    lab = Labelling(in_args=chain, undec_args=undec)
    return Framework(chain + undec, attacks), lab, chain, undec


class CountingTable(dict):
    """An adjacency table that charges each read 1 plus the size of the set it returns."""

    def __init__(self, table, meter: list[int]):
        super().__init__(table)
        self.meter = meter

    def __getitem__(self, name):
        found = super().__getitem__(name)
        self.meter[0] += 1 + len(found)
        return found


def metered(framework: Framework):
    """A copy of the framework whose attacker and target tables share one work meter.

    Returns the copy and the meter, a one-element list holding the work so far.
    """
    meter = [0]
    copy = Framework._derived(framework.arguments, CountingTable(framework._attackers, meter))
    object.__setattr__(copy, "_targets", CountingTable(framework._targets, meter))
    return copy, meter
