import random

import pytest

from conftest import (
    all_frameworks,
    assert_indexed_like_a_checked_build,
    random_framework,
    enumerate_orders,
    random_order,
    reference_reduce,
)
from prefarg import (
    Framework,
    InvalidOrderError,
    Labelling,
    PreferenceFunction,
    PreferenceOrder,
    graph_from_pref_fn,
    order_to_pref_fn,
    reduce,
    verify_witness,
)

ORDER_A_B_CD = PreferenceOrder([("a",), ("b",), ("c", "d")])

FIGURE_ATTACKS = {
    1: {("b", "a"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
    2: {("a", "b"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
    3: {("a", "b"), ("b", "a"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
    4: {("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
}


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_figure_reductions(example1, index):
    assert reduce(example1, ORDER_A_B_CD, index).attacks == FIGURE_ATTACKS[index]


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_all_equivalent_order_is_identity(example1, index):
    order = PreferenceOrder.all_equivalent(example1)
    assert reduce(example1, order, index) == example1


def test_reduce_rejects_bad_index(example1):
    with pytest.raises(ValueError):
        reduce(example1, ORDER_A_B_CD, 5)


@pytest.mark.parametrize(
    "use",
    [
        lambda fw, order: reduce(fw, order, 1),
        lambda fw, order: verify_witness(fw, Labelling(in_args="ad", out_args="bc"), 1, order),
    ],
    ids=["reduce", "verify_witness"],
)
def test_reduce_and_verify_witness_refuse_an_invalid_order(example1, use):
    with pytest.raises(InvalidOrderError):
        use(example1, PreferenceOrder([("a",), ("b",)]))


def test_graph_from_pref_fn_example2(example1):
    fn = order_to_pref_fn(example1, ORDER_A_B_CD)
    assert graph_from_pref_fn(example1, fn, 1).attacks == FIGURE_ATTACKS[1]
    assert graph_from_pref_fn(example1, fn, 4).attacks == FIGURE_ATTACKS[4]


def test_graph_from_pref_fn_all_ones_reduction4_is_identity():
    rng = random.Random(41)
    for _ in range(30):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random())
        fn = PreferenceFunction({att: 1 for att in fw.attacks})
        assert graph_from_pref_fn(fw, fn, 4) == fw


def test_graph_from_pref_fn_lenient_mode_keeps_one_way_attacks():
    fw = Framework("ab", [("a", "b")])
    fn = PreferenceFunction({("a", "b"): 0})
    assert graph_from_pref_fn(fw, fn, 2).attacks == {("a", "b")}


def test_equivalence_propositions_exhaustive_two_args():
    for fw in all_frameworks(("a", "b")):
        for order in enumerate_orders(fw):
            fn = order_to_pref_fn(fw, order)
            for index in (1, 2, 3, 4):
                assert reduce(fw, order, index) == graph_from_pref_fn(fw, fn, index)


def test_equivalence_propositions_sampled_three_four_args():
    rng = random.Random(42)
    for _ in range(25):
        fw = random_framework(rng, rng.choice((3, 4)), rng.random())
        for order in enumerate_orders(fw):
            fn = order_to_pref_fn(fw, order)
            for index in (1, 2, 3, 4):
                assert reduce(fw, order, index) == graph_from_pref_fn(fw, fn, index)


def test_reduce_matches_the_definitions_on_every_framework_up_to_three_args():
    for names in ((), ("a",), ("a", "b"), ("a", "b", "c")):
        for fw in all_frameworks(names):
            for order in enumerate_orders(fw):
                for index in (1, 2, 3, 4):
                    assert reduce(fw, order, index) == reference_reduce(fw, order, index)


def test_structural_invariants_on_random_instances():
    rng = random.Random(43)
    for _ in range(60):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random())
        order = random_order(rng, fw)
        reduced = {i: reduce(fw, order, i) for i in (1, 2, 3, 4)}
        assert reduced[3].attacks == reduced[1].attacks | reduced[2].attacks
        assert reduced[4].attacks <= fw.attacks
        one_way = {(s, t) for s, t in fw.attacks if (t, s) not in fw.attacks}
        assert one_way <= reduced[2].attacks
        for i in (1, 2, 3, 4):
            assert reduced[i].arguments == fw.arguments


def test_self_attacks_survive_every_reduction():
    rng = random.Random(44)
    fw = Framework("abc", [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
    for _ in range(10):
        order = random_order(rng, fw)
        for index in (1, 2, 3, 4):
            assert ("a", "a") in reduce(fw, order, index).attacks


def test_reflection_keeps_both_sides_of_an_equivalent_mutual_pair():
    fw = Framework("ab", [("a", "b"), ("b", "a")])
    order = PreferenceOrder([("a", "b")])
    assert reduce(fw, order, 1).attacks == {("a", "b"), ("b", "a")}


def test_reduced_graphs_index_like_a_checked_build():
    rng = random.Random(45)
    for _ in range(60):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random() * 0.6)
        order = random_order(rng, fw)
        fn = order_to_pref_fn(fw, order)
        for index in (1, 2, 3, 4):
            assert_indexed_like_a_checked_build(reduce(fw, order, index))
            assert_indexed_like_a_checked_build(graph_from_pref_fn(fw, fn, index))
