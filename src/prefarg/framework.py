"""Immutable argumentation frameworks and every graph traversal the package runs."""

import re
from functools import cached_property
from typing import AbstractSet, Callable, Iterable

from .errors import UnknownArgumentError

Attack = tuple[str, str]

NAME_CHARS = "[A-Za-z0-9_]"  # an argument name is one or more of these
NAME_PATTERN = re.compile(f"{NAME_CHARS}+\\Z")


def _attacker_table(args: frozenset[str], attacks: Iterable[Attack]) -> dict[str, set[str]]:
    """Each argument's attackers, every source stored as the argument's own string.

    The pairs are read as they come, not copied into a list. An attack with an
    endpoint outside `args` raises UnknownArgumentError naming the least such attack.
    """
    table: dict[str, set[str]] = {a: set() for a in args}
    own = dict(zip(args, args))
    try:
        for src, dst in attacks:
            table[dst].add(own[src])
    except KeyError:  # at (src, dst); a collection is read again, an iterator to its end
        rest = ((s, d) for s, d in attacks if s not in args or d not in args)
        src, dst = min(((src, dst), *rest), key=lambda att: (str(att[0]), str(att[1])))
        raise UnknownArgumentError(
            f"attack ({str(src)[:40]},{str(dst)[:40]}) references an unknown argument"
        ) from None
    return table


class _Value:
    """An immutable value: equal, hashed and shown as the tuple of its `_fields` attributes.

    Constructors set attributes with `object.__setattr__`; `cached_property` writes `__dict__`.
    """

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Framework(_Value):
    """A finite set of named arguments plus a directed attack relation.

    Instances are immutable after construction and safe to share between
    threads. Argument names are nonempty strings over letters, digits and
    underscores; attacks may include self-attacks.

    The relation is stored once, as each argument's attacker set. The attack
    pairs and each argument's targets are built from it on first read.
    Nothing changes a table afterwards.
    """

    arguments: frozenset[str]
    _fields = ("arguments", "attacks")

    def __init__(self, arguments: Iterable[str] = (), attacks: Iterable[Attack] = ()):
        args = frozenset(arguments)
        for name in args:
            if not isinstance(name, str) or not NAME_PATTERN.match(name):
                raise ValueError(f"bad argument name: {name!r}")
        object.__setattr__(self, "arguments", args)
        object.__setattr__(self, "_attackers", _attacker_table(args, attacks))

    @classmethod
    def _derived(cls, arguments: frozenset[str], attackers: dict[str, set[str]]) -> "Framework":
        """A framework over well-formed names and a finished attacker table, taken as given."""
        framework = cls.__new__(cls)
        object.__setattr__(framework, "arguments", arguments)
        object.__setattr__(framework, "_attackers", attackers)
        return framework

    @cached_property
    def attacks(self) -> frozenset[Attack]:
        """The attack relation as (source, target) pairs, built on first read."""
        return frozenset((src, dst) for dst, srcs in self._attackers.items() for src in srcs)

    @cached_property
    def _targets(self) -> dict[str, set[str]]:
        """Each argument's targets, built on first read: no rejection check needs them."""
        targets: dict[str, set[str]] = {a: set() for a in self.arguments}
        for dst, srcs in self._attackers.items():
            for src in srcs:
                targets[src].add(dst)
        return targets

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arguments == other.arguments and self._attackers == other._attackers

    __hash__ = _Value.__hash__  # defining __eq__ drops the inherited hash

    def _require(self, name: str) -> None:
        if name not in self.arguments:
            raise UnknownArgumentError(f"unknown argument: {name!r}")

    def _layer(self, seeds: Iterable[str], depth: dict, within: AbstractSet[str]) -> list[str]:
        """Undirected BFS from the seeds inside `within`; returns what it reached, in order.

        Writes depth 0 for the seeds and one more per undirected step into
        `depth`, skipping arguments already in it and stepping only onto
        arguments of `within`. The depths do not depend on the order of the
        seeds or of the queue.
        """
        attackers, targets = self._attackers, self._targets
        queue = list(seeds)
        depth.update(dict.fromkeys(queue, 0))
        for node in queue:
            below = depth[node] + 1
            for other in attackers[node] | targets[node]:
                if other in within and other not in depth:
                    depth[other] = below
                    queue.append(other)
        return queue

    def _blocks(self, within: AbstractSet[str]) -> list[frozenset[str]]:
        """The undirected components of the subgraph `within` induces, by least name."""
        depth: dict[str, int] = {}
        blocks = []
        for start in sorted(within):
            if start not in depth:
                blocks.append(frozenset(self._layer((start,), depth, within)))
        return blocks

    @cached_property
    def _components(self) -> tuple[frozenset[str], ...]:
        return tuple(self._blocks(self.arguments))

    @cached_property
    def _component_of(self) -> dict[str, int]:
        """Position in `connected_components()` of each argument's component."""
        return {a: i for i, block in enumerate(self._components) for a in block}

    def connected_components(self) -> tuple[frozenset[str], ...]:
        """Partition of the arguments into undirected components.

        Components are returned ordered by their smallest member name and
        isolated arguments form singleton components. Computed once per
        framework.
        """
        return self._components

    def restrict(self, subset: Iterable[str]) -> "Framework":
        """Subframework induced by the given argument subset."""
        keep = frozenset(subset)
        for name in keep:
            self._require(name)
        attackers = self._attackers
        return Framework._derived(keep, {a: attackers[a] & keep for a in keep})

    def _cyclic_core(self, within: AbstractSet[str]) -> frozenset[str]:
        """What is left of `within` after repeatedly deleting the unattacked arguments.

        The peel sees only the subgraph `within` induces. Every argument left
        keeps an attacker that is also left, so the core is empty exactly
        when that subgraph is acyclic; self-attacks count.
        """
        attackers = self._attackers
        indegree = {a: sum(s in within for s in attackers[a]) for a in within}
        queue = [a for a, count in indegree.items() if count == 0]
        for node in queue:
            del indegree[node]
            for other in self._targets[node]:
                if other in indegree:
                    indegree[other] -= 1
                    if indegree[other] == 0:
                        queue.append(other)
        return frozenset(indegree)

    def has_cycle(self) -> bool:
        """True when a directed attack cycle exists; self-attacks count."""
        return bool(self._cyclic_core(self.arguments))


def _strongly_connected(
    nodes: Iterable[str], successors: Callable[[str], Iterable[str]]
) -> dict[str, int]:
    """Iterative Tarjan; maps every node to a component id.

    Components are numbered sinks first: every edge between two components
    runs from a higher id to a lower one.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    component: dict[str, int] = {}
    next_id = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work: list[tuple[str, Iterable[str]]] = [(root, iter(successors(root)))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                if nxt not in component:  # visited but in no component yet: on the stack
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    top = None
                    while top != node:
                        top = stack.pop()
                        component[top] = next_id
                    next_id += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return component


def _bfs_path(start: str, goal: str, successors: Callable[[str], Iterable[str]]) -> list[str]:
    """Shortest node path from start to goal (inclusive); assumes one exists."""
    if start == goal:
        return [start]
    parent = {start: start}
    queue = [start]
    for node in queue:
        for nxt in sorted(successors(node)):
            if nxt in parent:
                continue
            parent[nxt] = node
            if nxt == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            queue.append(nxt)
    raise AssertionError("no path found inside a strongly connected set")
