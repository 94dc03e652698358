import itertools
import random

import pytest

from conftest import all_frameworks, random_framework, random_order
from prefarg import (
    DomainMismatchError,
    Framework,
    InconsistentPreferenceError,
    InvalidOrderError,
    PreferenceFunction,
    PreferenceOrder,
    consistency_certificate,
    graph_from_pref_fn,
    order_to_pref_fn,
    pref_fn_to_order,
    reduce,
    validate_order,
)

EXAMPLE2_ORDER = PreferenceOrder([("a",), ("b",), ("c", "d")])


def example2_fn(example1):
    return PreferenceFunction(
        {att: 0 if att in {("a", "b"), ("b", "c"), ("a", "c")} else 1 for att in example1.attacks}
    )


def all_consistent_functions(framework):
    attacks = sorted(framework.attacks)
    for bits in itertools.product((0, 1), repeat=len(attacks)):
        fn = PreferenceFunction(dict(zip(attacks, bits)))
        if consistency_certificate(framework, fn) is None:
            yield fn


def test_three_cycle_all_zero_is_inconsistent():
    g = Framework("abc", [("a", "c"), ("c", "b"), ("b", "a")])
    fn = PreferenceFunction({att: 0 for att in g.attacks})
    assert consistency_certificate(g, fn) is not None


def test_example2_function_is_consistent(example1):
    assert consistency_certificate(example1, example2_fn(example1)) is None


def test_all_ones_is_always_consistent():
    rng = random.Random(31)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random())
        fn = PreferenceFunction({att: 1 for att in fw.attacks})
        assert consistency_certificate(fw, fn) is None


def test_certificate_is_a_real_cycle_with_a_strict_step():
    g = Framework("abc", [("a", "c"), ("c", "b"), ("b", "a")])
    fn = PreferenceFunction({att: 0 for att in g.attacks})
    cycle = consistency_certificate(g, fn)
    assert cycle is not None and len(cycle) >= 1
    strict_edges = {(t, s) for (s, t), bit in fn.bits.items() if bit == 0}
    walk_edges = strict_edges | {att for att, bit in fn.bits.items() if bit == 1}
    closed = list(cycle) + [cycle[0]]
    assert all((closed[i], closed[i + 1]) in walk_edges for i in range(len(cycle)))
    assert any((closed[i], closed[i + 1]) in strict_edges for i in range(len(cycle)))


def test_zero_bit_on_self_attack_is_inconsistent():
    fw = Framework("x", [("x", "x")])
    assert consistency_certificate(fw, PreferenceFunction({("x", "x"): 0})) == ("x",)


def test_order_to_pref_fn_example2(example1):
    fn = order_to_pref_fn(example1, EXAMPLE2_ORDER)
    assert fn.bits == {
        **dict.fromkeys([("a", "b"), ("b", "c"), ("a", "c")], 0),
        **dict.fromkeys([("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")], 1),
    }


def test_order_to_pref_fn_all_equivalent_is_all_ones(example1):
    fn = order_to_pref_fn(example1, PreferenceOrder.all_equivalent(example1))
    assert set(fn.bits.values()) == {1}


def test_order_to_pref_fn_strict_pair():
    fw = Framework("ab", [("a", "b")])
    fn = order_to_pref_fn(fw, PreferenceOrder([("a",), ("b",)]))
    assert fn.bits[("a", "b")] == 0


def test_order_to_pref_fn_rejects_bad_order(example1):
    with pytest.raises(InvalidOrderError):
        order_to_pref_fn(example1, PreferenceOrder([("a",)]))


def test_pref_fn_to_order_example2(example1):
    order = pref_fn_to_order(example1, example2_fn(example1))
    assert order.classes == (frozenset("a"), frozenset("b"), frozenset("cd"))


def test_pref_fn_to_order_merges_unconstrained():
    fw = Framework("ab", [("a", "b")])
    order = pref_fn_to_order(fw, PreferenceFunction({("a", "b"): 1}))
    assert order.classes == (frozenset("ab"),)


def test_pref_fn_to_order_empty():
    assert pref_fn_to_order(Framework(), PreferenceFunction({})).classes == ()


def test_pref_fn_to_order_rejects_a_function_over_other_attacks(example1):
    with pytest.raises(DomainMismatchError, match="differs from the framework's attacks"):
        pref_fn_to_order(example1, PreferenceFunction({("a", "b"): 1}))


def test_pref_fn_to_order_rejects_inconsistent():
    g = Framework("abc", [("a", "c"), ("c", "b"), ("b", "a")])
    fn = PreferenceFunction({att: 0 for att in g.attacks})
    with pytest.raises(InconsistentPreferenceError) as info:
        pref_fn_to_order(g, fn)
    assert info.value.cycle


def test_validate_order_example2(example1):
    assert validate_order(example1, EXAMPLE2_ORDER)


def test_validate_order_rejects_cross_component_class():
    fw = Framework("abcd", [("a", "b"), ("c", "d")])
    assert not validate_order(fw, PreferenceOrder([("a", "c"), ("b",), ("d",)]))


def test_validate_order_rejects_missing_argument(example1):
    assert not validate_order(example1, PreferenceOrder([("a",), ("b",), ("c",)]))


def test_order_to_pref_fn_always_consistent():
    rng = random.Random(32)
    for _ in range(80):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random())
        order = random_order(rng, fw)
        assert validate_order(fw, order)
        assert consistency_certificate(fw, order_to_pref_fn(fw, order)) is None


def test_round_trip_bits_on_all_attacks_small_exhaustive():
    for fw in all_frameworks(("a", "b")):
        for fn in all_consistent_functions(fw):
            back = order_to_pref_fn(fw, pref_fn_to_order(fw, fn))
            assert back.bits == fn.bits


def test_round_trip_bits_on_all_attacks_sampled():
    rng = random.Random(33)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(0, 5), rng.random())
        for fn in all_consistent_functions(fw):
            back = order_to_pref_fn(fw, pref_fn_to_order(fw, fn))
            assert back.bits == fn.bits


def test_round_trip_at_reduction_level():
    rng = random.Random(34)
    frameworks = list(all_frameworks(("a", "b")))
    frameworks += [random_framework(rng, 3, rng.random()) for _ in range(12)]
    frameworks.append(Framework("abcd", [
        ("a", "b"), ("a", "c"), ("c", "a"), ("b", "c"), ("c", "b"), ("d", "c"), ("c", "d"),
    ]))
    for fw in frameworks:
        for fn in all_consistent_functions(fw):
            order = pref_fn_to_order(fw, fn)
            for index in (1, 2, 3, 4):
                assert reduce(fw, order, index) == graph_from_pref_fn(fw, fn, index)


def test_preference_function_rejects_bad_bit():
    with pytest.raises(ValueError):
        PreferenceFunction({("a", "b"): 2})


def test_order_class_overlap_rejected():
    with pytest.raises(InvalidOrderError):
        PreferenceOrder([("a", "b"), ("b",)])


def test_order_empty_class_rejected():
    with pytest.raises(InvalidOrderError):
        PreferenceOrder([()])
