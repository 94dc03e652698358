"""Seeded instances whose answers are known before prefarg sees them.

The reduction, grounded-labelling and graph code here is the benchmark's
own and never calls prefarg, so no known answer comes from the code under
test. Three shapes:

- tied: G(n, m) under an order with 2-4 preference levels, labelled with
  the grounded labelling of the reduced graph. Ties keep many attacks in
  both directions, which leaves large undec blocks. Answer: yes.
- deep: G(n, m) over mostly forward attacks under a strict order, for
  reduction 4. Removing the attacks that run against the order leaves long
  chains of in arguments, which the ranking has to climb. Answer: yes.
- near-miss: a planted labelling in which the only in-labelled neighbour of
  some out argument is relabelled undec. Every defeat of every reduction
  joins two original neighbours, so that argument can never be legally
  out. Answer: no under every reduction.
"""

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field

IN, OUT, UNDEC = "in", "out", "undec"

# Share of unordered attacking pairs that attack both ways; 0.18 makes about
# 30 % of all attacks part of a mutual pair (2q / (1 + q)).
MUTUAL_PAIR_SHARE = 0.18


@dataclass
class Instance:
    """One framework, target labelling and call, with the answer planted."""

    name: str
    arguments: list[str]
    attacks: list[tuple[str, str]]
    labelling: dict[str, str]
    reduction: int
    expected: str
    shape: str
    stats: dict = field(default_factory=dict)

    def apx(self) -> str:
        lines = [f"arg({a})." for a in sorted(self.arguments)]
        lines += [f"att({s},{t})." for s, t in sorted(self.attacks)]
        return "\n".join(lines) + "\n"

    def labelling_json(self) -> str:
        sets = {IN: [], OUT: [], UNDEC: []}
        for name in sorted(self.labelling):
            sets[self.labelling[name]].append(name)
        return json.dumps(sets) + "\n"

    def size(self) -> int:
        return len(self.arguments) + len(self.attacks)


# --- graph code shared with the checker -------------------------------------


def reduce_attacks(attacks, rank: dict[str, int], index: int) -> set[tuple[str, str]]:
    """Defeats of reduction `index` when a ranks below b iff rank[a] < rank[b].

    Only pairs of one component are ever compared, so one global rank serves
    a CC-wise order.
    """
    attack_set = set(attacks)
    if index == 4:
        return {(a, b) for a, b in attack_set if rank[b] <= rank[a]}
    kept = set()
    for a, b in attack_set:
        if rank[b] <= rank[a]:
            kept.add((a, b))
            continue
        if index in (1, 3):
            kept.add((b, a))
        if index in (2, 3) and (b, a) not in attack_set:
            kept.add((a, b))
    return kept


def grounded(arguments, attacks) -> dict[str, str]:
    """Grounded labelling by a worklist over not-yet-out attacker counters."""
    pending = {a: 0 for a in arguments}
    targets: dict[str, list[str]] = {a: [] for a in arguments}
    for src, dst in attacks:
        pending[dst] += 1
        targets[src].append(dst)
    label: dict[str, str] = {}
    work = [a for a in arguments if pending[a] == 0]
    for name in work:
        label[name] = IN
    while work:
        name = work.pop()
        if label[name] == IN:
            for t in targets[name]:
                if t not in label:
                    label[t] = OUT
                    work.append(t)
        else:
            for t in targets[name]:
                pending[t] -= 1
                if pending[t] == 0 and t not in label:
                    label[t] = IN
                    work.append(t)
    for name in arguments:
        label.setdefault(name, UNDEC)
    return label


def is_complete(arguments, defeats, label: dict[str, str]) -> bool:
    """The three completeness clauses, checked argument by argument."""
    attackers: dict[str, list[str]] = {a: [] for a in arguments}
    for src, dst in defeats:
        attackers[dst].append(src)
    for name in arguments:
        labels = {label[b] for b in attackers[name]}
        all_out = labels <= {OUT}
        some_in = IN in labels
        own = label[name]
        if own == IN and not all_out:
            return False
        if own == OUT and not some_in:
            return False
        if own == UNDEC and (all_out or some_in):
            return False
    return True


def neighbours(arguments, attacks) -> dict[str, set[str]]:
    table: dict[str, set[str]] = {a: set() for a in arguments}
    for src, dst in attacks:
        table[src].add(dst)
        table[dst].add(src)
    return table


def components(arguments, attacks) -> list[set[str]]:
    """Undirected connected components."""
    table = neighbours(arguments, attacks)
    seen: set[str] = set()
    blocks = []
    for start in arguments:
        if start in seen:
            continue
        seen.add(start)
        block = {start}
        queue = deque([start])
        while queue:
            for other in table[queue.popleft()]:
                if other not in seen:
                    seen.add(other)
                    block.add(other)
                    queue.append(other)
        blocks.append(block)
    return blocks


def _in_chain_depth(label, attacks) -> int:
    """Longest path, in attacks, over attacks joining two in arguments."""
    inner = [(s, t) for s, t in attacks if label[s] == IN and label[t] == IN]
    nodes = {a for att in inner for a in att}
    indegree = {a: 0 for a in nodes}
    out: dict[str, list[str]] = {a: [] for a in nodes}
    for src, dst in inner:
        indegree[dst] += 1
        out[src].append(dst)
    depth = {a: 0 for a in nodes}
    queue = deque(a for a in nodes if indegree[a] == 0)
    done = 0
    while queue:
        node = queue.popleft()
        done += 1
        for nxt in out[node]:
            depth[nxt] = max(depth[nxt], depth[node] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if done < len(nodes):
        return -1
    return max(depth.values(), default=0)


def instance_stats(arguments, attacks, label) -> dict:
    undec = [a for a in arguments if label[a] == UNDEC]
    undec_set = set(undec)
    inner = [(s, t) for s, t in attacks if s in undec_set and t in undec_set]
    blocks = components(undec, inner)
    return {
        "n": len(arguments),
        "m": len(attacks),
        "undec_share": round(len(undec) / max(1, len(arguments)), 4),
        "largest_undec_block": max((len(b) for b in blocks), default=0),
        "in_chain_depth": _in_chain_depth(label, attacks),
    }


# --- shapes ------------------------------------------------------------------


def _names(rng: random.Random, n: int) -> list[str]:
    """Names in shuffled order, so name order says nothing about structure."""
    width = len(str(max(n - 1, 0)))
    names = [f"a{i:0{width}d}" for i in range(n)]
    rng.shuffle(names)
    return names


def _random_attacks(
    rng: random.Random, n: int, m: int, pick_pair, mutual: float = MUTUAL_PAIR_SHARE
) -> list[tuple[int, int]]:
    """About m attacks over node indices; a `mutual` share of pairs attack both ways.

    `pick_pair` must be able to reach at least min(m, n(n - 1)) distinct pairs.
    """
    attacks: set[tuple[int, int]] = set()
    while len(attacks) < min(m, n * (n - 1)):
        a, b = pick_pair()
        if a == b or (a, b) in attacks:
            continue
        attacks.add((a, b))
        if rng.random() < mutual:
            attacks.add((b, a))
    return sorted(attacks)


def _planted(name, shape, names, index_attacks, rank_of_index, reduction) -> Instance:
    attacks = [(names[a], names[b]) for a, b in index_attacks]
    rank = {names[i]: r for i, r in enumerate(rank_of_index)}
    label = grounded(names, reduce_attacks(attacks, rank, reduction))
    return Instance(name, names, attacks, label, reduction, "yes", shape)


def tied(
    rng: random.Random, name: str, n: int, ratio: float, levels: int, reduction: int
) -> Instance:
    """G(n, m) under a random order with `levels` tied preference levels."""
    names = _names(rng, n)
    draw = rng.random  # int(draw() * k) is a fast, seeded randrange(k)
    ranks = [int(draw() * levels) for _ in range(n)]
    attacks = _random_attacks(rng, n, round(ratio * n), lambda: (int(draw() * n), int(draw() * n)))
    return _planted(name, "tied", names, attacks, ranks, reduction)


# Deep shape: an attack joins positions at most DEEP_WINDOW apart in the
# strict order, runs forward (towards the more preferred end, so reduction 4
# removes it) with probability DEEP_FORWARD, and is never mutual: a kept
# converse would put one end out and cut the chain. At n = 150-600 this
# gives in-chains 10-150 attacks deep.
DEEP_WINDOW = 8
DEEP_FORWARD = 0.9


def deep(rng: random.Random, name: str, n: int, ratio: float) -> Instance:
    """Reduction-4 instance whose in arguments form long attack chains."""
    names = _names(rng, n)

    def pick_pair():
        low = int(rng.random() * n)
        high = min(n - 1, low + 1 + int(rng.random() * DEEP_WINDOW))
        return (low, high) if rng.random() < DEEP_FORWARD else (high, low)

    # Node index i is position i of the strict order, least preferred first.
    attacks = _random_attacks(rng, n, round(ratio * n), pick_pair, mutual=0.0)
    return _planted(name, "deep", names, attacks, list(range(n)), 4)


def near_miss(rng: random.Random, base: Instance) -> Instance:
    """Relabel undec the only in neighbour of some out argument of `base`."""
    label = base.labelling
    table = neighbours(base.arguments, base.attacks)
    candidates = []
    for name in sorted(base.arguments):
        if label[name] == OUT:
            ins = [b for b in table[name] if label[b] == IN]
            if len(ins) == 1:
                candidates.append(ins[0])
    if not candidates:
        raise ValueError("no out argument with a single in neighbour")
    changed = dict(label)
    changed[rng.choice(candidates)] = UNDEC
    return Instance(
        base.name, base.arguments, base.attacks, changed, base.reduction, "no", "near-miss"
    )


def small_component(rng: random.Random, names: list[str]) -> list[tuple[str, str]]:
    """A connected random attack graph over a few names."""
    attacks: set[tuple[str, str]] = set()
    for i in range(1, len(names)):
        a, b = names[rng.randrange(i)], names[i]
        pair = (a, b) if rng.random() < 0.5 else (b, a)
        attacks.add(pair)
        if rng.random() < 0.3:
            attacks.add((pair[1], pair[0]))
    for _ in range(rng.randint(0, len(names))):
        a, b = rng.sample(names, 2)
        attacks.add((a, b))
    return sorted(attacks)


# --- workloads ---------------------------------------------------------------


def _design(rng: random.Random, count: int, low: int, high: int) -> list[tuple[int, float, int]]:
    """(n, m/n, preference levels) for `count` instances, drawn by strata.

    n is log-uniform over [low, high] and m/n uniform over [1.5, 2.5], one
    draw inside each of `count` equal-width strata; the levels cycle through
    2, 3 and 4. The strata are paired the same way for every seed (ratio
    stratum 7k mod count with size stratum k), so the seed draws every size
    and graph while a run's totals and percentiles stay close across seeds.
    """
    span = math.log(high / low)
    stride = 7 if count % 7 else 1
    return [
        (
            round(low * math.exp(span * (k + rng.random()) / count)),
            1.5 + ((k * stride) % count + rng.random()) / count,
            2 + k % 3,
        )
        for k in range(count)
    ]


PLANTED_COUNT = 200
PLANTED_SIZES = (150, 600)
NEAR_MISS_COUNT = 100
NEAR_MISS_SIZES = (250, 2000)
# Component sizes per oracle instance, listed twice where the class should
# weigh double. A no-instance makes the oracle try the product of the
# ordered Bell numbers of its sizes: 13, 75, 169, 541, 975 and 2197 orders
# for the six mixes below, at most about 0.1 s per call.
ORACLE_MIXES = ((3,), (4,), (4,), (3, 3), (5,), (3, 4), (3, 4), (3, 3, 3))


def _with_retries(build):
    """Draw again until `build` finds a usable instance; bounded and seeded."""
    for _ in range(1000):
        try:
            return build()
        except ValueError:
            continue
    raise RuntimeError("generator found no usable instance in 1000 draws")


def planted_yes(seed: int, count: int = PLANTED_COUNT, sizes=PLANTED_SIZES) -> list[Instance]:
    """The same size design for each reduction; reduction 4 is deep."""
    rng = random.Random(f"planted-yes/{seed}")
    instances = []
    for reduction in (1, 2, 3, 4):
        for j, (n, ratio, levels) in enumerate(_design(rng, count // 4, *sizes)):
            name = f"r{reduction}_{j:03d}"
            if reduction == 4:
                instances.append(deep(rng, name, n, ratio))
            else:
                instances.append(tied(rng, name, n, ratio, levels, reduction))
    rng.shuffle(instances)
    return instances


def near_miss_batch(seed: int, count: int = NEAR_MISS_COUNT, sizes=NEAR_MISS_SIZES) -> list[Instance]:
    """Near-miss instances planted under each reduction in turn."""
    rng = random.Random(f"near-miss/{seed}")
    design = _design(rng, count, *sizes)
    rng.shuffle(design)
    instances = []
    for i, (n, ratio, levels) in enumerate(design):
        reduction = i % 4 + 1
        instances.append(
            _with_retries(
                lambda: near_miss(rng, tied(rng, f"i{i:03d}", n, ratio, levels, reduction))
            )
        )
    return instances


def oracle_small(seed: int) -> list[Instance]:
    """Two planted-yes and three near-miss instances per mix and reduction.

    With 40 % yes the median and the 90th percentile fall inside the
    near-miss classes of (4,) and (3, 4) components, not on the jump between
    the fast yes-instances and the exhaustive no-instances.
    """
    rng = random.Random(f"oracle-small/{seed}")
    instances = []
    specs = [
        (mix, reduction, want_yes)
        for mix in ORACLE_MIXES
        for reduction in (1, 2, 3, 4)
        for want_yes in (True, True, False, False, False)
    ]
    for i, (mix, reduction, want_yes) in enumerate(specs):

        def build():
            names = _names(rng, sum(mix))
            attacks: list[tuple[str, str]] = []
            start = 0
            for size in mix:
                attacks += small_component(rng, names[start:start + size])
                start += size
            rank = {name: rng.randrange(3) for name in names}
            label = grounded(names, reduce_attacks(attacks, rank, reduction))
            inst = Instance(f"o{i:03d}", names, attacks, label, reduction, "yes", "tied")
            return inst if want_yes else near_miss(rng, inst)

        instances.append(_with_retries(build))
    rng.shuffle(instances)
    return instances


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed, with their statistics."""
    instances = WORKLOADS[workload](seed)
    for inst in instances:
        inst.stats = instance_stats(inst.arguments, inst.attacks, inst.labelling)
    return instances


WORKLOADS = {
    "planted-yes": planted_yes,
    "near-miss": near_miss_batch,
    "oracle-small": oracle_small,
}
