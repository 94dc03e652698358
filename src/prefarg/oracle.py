"""Exhaustive ground truth: try every CC-wise total order directly."""

import itertools
import math
from typing import Iterable, Iterator

from .errors import SizeLimitError
from .framework import Framework
from .preferences import PreferenceOrder, order_by_depth
from .reductions import _reduced_complete
# Unused here: benchmarks/tracing.py patches `reduce` under this name.
from .reductions import reduce  # noqa: F401
from .semantics import Labelling, require_total

COMPONENT_CAP = 8


def weak_orders(items: Iterable[str]) -> Iterator[tuple[frozenset[str], ...]]:
    """All ordered set partitions of the items, least-preferred class first.

    Built by inserting elements one at a time, each either joining an
    existing class or opening a new class at any position, so every weak
    order appears exactly once. The count for n items is the ordered Bell
    number: 1, 1, 3, 13, 75, ...
    """
    elements = sorted(items)

    def build(k: int) -> Iterator[tuple[frozenset[str], ...]]:
        if k == 0:
            yield ()
            return
        new = elements[k - 1]
        for base in build(k - 1):
            for i in range(len(base)):
                yield base[:i] + (base[i] | {new},) + base[i + 1 :]
            for i in range(len(base) + 1):
                yield base[:i] + (frozenset((new,)),) + base[i:]

    yield from build(len(elements))


def _weak_order_pools(framework: Framework) -> list[tuple[tuple[frozenset[str], ...], ...]]:
    """Every weak order of each component, components in `connected_components()` order.

    Refuses a component above the cap, and more orders in all than one at the cap has.
    """
    components = framework.connected_components()
    for component in components:
        if len(component) > COMPONENT_CAP:
            raise SizeLimitError(
                f"component of {len(component)} arguments exceeds the cap of {COMPONENT_CAP}"
            )
    counts = _ordered_bell_numbers(COMPONENT_CAP)
    orders, limit = math.prod(counts[len(c)] for c in components), counts[COMPONENT_CAP]
    if orders > limit:
        raise SizeLimitError(
            f"{orders} orders over {len(components)} components exceed the {limit}"
            f" of one component at the cap of {COMPONENT_CAP}"
        )
    return [tuple(weak_orders(component)) for component in components]


def _ordered_bell_numbers(n: int) -> list[int]:
    """The number of weak orders of 0, 1, ..., n items: 1, 1, 3, 13, 75, ..."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts


def brute_force_ex(
    framework: Framework, labelling: Labelling, reduction: int
) -> tuple[bool, PreferenceOrder | None]:
    """Search every order; return the first one making the labelling complete.

    Orders are tried as the product of the components' weak orders, the last
    component varying fastest. Each one is checked as a rank map merged from
    per-component level maps, and only the first that passes is built, by
    `order_by_depth`, as a `PreferenceOrder`.
    """
    require_total(framework, labelling)
    levels = [
        [{name: level for level, cls in enumerate(order) for name in cls} for order in pool]
        for pool in _weak_order_pools(framework)
    ]
    for level_maps in itertools.product(*levels):
        rank: dict[str, int] = {}
        for level_of in level_maps:
            rank.update(level_of)
        if _reduced_complete(framework, labelling, rank, reduction):
            return True, order_by_depth(framework, {a: -level for a, level in rank.items()})
    return False, None
