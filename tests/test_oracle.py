import random

import pytest

from conftest import enumerate_orders, random_framework
from prefarg import oracle
from prefarg import (
    Framework,
    Labelling,
    SizeLimitError,
    brute_force_ex,
    decide,
    is_complete,
    reduce,
    validate_order,
)
from prefarg.oracle import weak_orders

ORDERED_BELL = {0: 1, 1: 1, 2: 3, 3: 13, 4: 75}


def disjoint_cycles(*sizes):
    names, attacks = [], []
    for block, size in enumerate(sizes):
        ring = [f"c{block}_{i}" for i in range(size)]
        names += ring
        attacks += zip(ring, ring[1:] + ring[:1])
    return Framework(names, attacks)


def test_weak_orders_on_two_elements():
    found = set(weak_orders("ab"))
    assert found == {
        (frozenset("a"), frozenset("b")),
        (frozenset("b"), frozenset("a")),
        (frozenset("ab"),),
    }


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
def test_weak_order_counts(size):
    items = [f"e{i}" for i in range(size)]
    orders = list(weak_orders(items))
    assert len(orders) == ORDERED_BELL[size]
    assert len(set(orders)) == len(orders)


def test_two_singleton_components_have_one_order():
    fw = Framework("ab")
    assert len(list(enumerate_orders(fw))) == 1


def test_component_product_law():
    fw = Framework("abpqr", [("a", "b"), ("p", "q"), ("q", "r")])
    assert len(list(enumerate_orders(fw))) == ORDERED_BELL[2] * ORDERED_BELL[3]


def test_enumerated_orders_are_unique_and_valid():
    rng = random.Random(61)
    for _ in range(25):
        fw = random_framework(rng, rng.randrange(0, 6), rng.random())
        orders = list(enumerate_orders(fw))
        assert len({o.classes for o in orders}) == len(orders)
        for order in orders:
            assert validate_order(fw, order)


def test_enumerate_orders_respects_component_cap(monkeypatch):
    # One 9-argument component, one above COMPONENT_CAP: refused before any weak order is built.
    fw = disjoint_cycles(9)
    monkeypatch.setattr(oracle, "weak_orders", None)
    with pytest.raises(SizeLimitError, match="component of 9 arguments exceeds the cap of 8"):
        next(enumerate_orders(fw))
    with pytest.raises(SizeLimitError, match="component of 9 arguments"):
        brute_force_ex(fw, Labelling(in_args=fw.arguments), 1)


def test_oracle_refuses_more_orders_than_one_component_at_the_cap_has():
    # 4,683^2 orders, against 545,835 for one component of 8 arguments.
    fw = disjoint_cycles(6, 6)
    with pytest.raises(SizeLimitError, match="21930489 orders over 2 components"):
        brute_force_ex(fw, Labelling(in_args=fw.arguments), 1)
    with pytest.raises(SizeLimitError):
        next(enumerate_orders(fw))


@pytest.mark.parametrize(
    "sizes, undec_only",
    [((3, 3, 3), False), ((3, 3, 3), True), ((5, 5), True)],
    ids=["3-3-3-in", "3-3-3-undec", "5-5-undec"],
)
def test_oracle_answers_products_under_the_bound_as_decide_does(sizes, undec_only):
    fw = disjoint_cycles(*sizes)
    labelling = Labelling(undec_args=fw.arguments) if undec_only else Labelling(in_args=fw.arguments)
    for reduction in (1, 2, 3, 4):
        found, _ = brute_force_ex(fw, labelling, reduction)
        assert found == decide(fw, labelling, reduction).yes


def test_brute_force_mutual_undec_pair_only_under_reduction_three():
    fw = Framework("ab", [("a", "b")])
    both_undec = Labelling(undec_args="ab")
    found, order = brute_force_ex(fw, both_undec, 3)
    assert found
    assert is_complete(reduce(fw, order, 3), both_undec)
    assert brute_force_ex(fw, both_undec, 1) == (False, None)


def test_brute_force_complete_labelling_under_reduction_two(example1):
    found, order = brute_force_ex(example1, Labelling(in_args="ad", out_args="bc"), 2)
    assert found
    assert validate_order(example1, order)


def test_brute_force_witness_is_first_in_enumeration_order():
    fw = Framework("ab", [("a", "b")])
    labelling = Labelling(in_args="b", out_args="a")
    found, order = brute_force_ex(fw, labelling, 1)
    assert found
    expected = next(
        o for o in enumerate_orders(fw) if is_complete(reduce(fw, o, 1), labelling)
    )
    assert order == expected
