import random

import pytest

from conftest import (
    assert_indexed_like_a_checked_build,
    random_framework,
    random_labelling,
    random_order,
    reference_reduce,
)
from prefarg import (
    Framework,
    Labelling,
    PreferenceOrder,
    UnknownArgumentError,
    decide_all,
    emit_apx,
    enumerate_complete,
    is_complete,
    parse_apx,
    reduce,
    verify_witness,
)


def test_attackers_example1(example1):
    assert example1._attackers["c"] == {"a", "b", "d"}


def test_attackers_isolated_argument():
    assert Framework("x")._attackers["x"] == set()


def test_attackers_self_attack():
    fw = Framework("x", [("x", "x")])
    assert fw._attackers["x"] == {"x"}


def test_connected_components_example1(example1):
    assert example1.connected_components() == (frozenset("abcd"),)


def test_connected_components_two_blocks():
    fw = Framework("abcd", [("a", "b"), ("c", "d")])
    assert fw.connected_components() == (frozenset("ab"), frozenset("cd"))


def test_connected_components_isolated_singletons():
    fw = Framework("abc")
    assert fw.connected_components() == (frozenset("a"), frozenset("b"), frozenset("c"))


def test_restrict_example1(example1):
    sub = example1.restrict({"a", "b"})
    assert sub == Framework("ab", [("a", "b")])


def test_restrict_identity(example1):
    assert example1.restrict(example1.arguments) == example1


def test_restrict_empty(example1):
    assert example1.restrict(set()) == Framework()


def test_restrict_unknown_argument(example1):
    with pytest.raises(UnknownArgumentError):
        example1.restrict({"a", "z"})


def test_has_cycle_three_cycle():
    fw = Framework("abc", [("a", "c"), ("c", "b"), ("b", "a")])
    assert fw.has_cycle()


def test_has_cycle_single_argument():
    assert not Framework("a").has_cycle()


def test_has_cycle_self_attack():
    assert Framework("a", [("a", "a")]).has_cycle()


def test_attack_endpoints_must_exist():
    with pytest.raises(UnknownArgumentError):
        Framework("a", [("a", "b")])


def test_bad_argument_name_rejected():
    with pytest.raises(ValueError):
        Framework(["not ok"])


def test_components_partition_properties():
    rng = random.Random(11)
    for _ in range(60):
        fw = random_framework(rng, rng.randrange(0, 9), rng.random())
        components = fw.connected_components()
        union = set()
        for block in components:
            assert block, "components must be nonempty"
            assert not (block & union), "components must be disjoint"
            union |= block
        assert union == set(fw.arguments)


def test_restriction_properties():
    rng = random.Random(12)
    for _ in range(60):
        fw = random_framework(rng, rng.randrange(1, 9), rng.random())
        subset = {a for a in fw.arguments if rng.random() < 0.6}
        sub = fw.restrict(subset)
        assert sub.attacks <= fw.attacks
        if sub.has_cycle():
            assert fw.has_cycle()
        for name in subset:
            assert sub._attackers[name] == fw._attackers[name] & subset


def test_restrict_indexes_like_a_checked_build():
    rng = random.Random(13)
    for _ in range(80):
        fw = random_framework(rng, rng.randrange(0, 9), rng.random() * 0.6)
        sub = fw.restrict({a for a in fw.arguments if rng.random() < 0.6})
        assert_indexed_like_a_checked_build(sub)


@pytest.mark.parametrize("seed", range(4))
def test_unknown_endpoints_name_the_least_attack(seed):
    attacks = [("z", "a"), ("b", "y"), ("a", "x"), ("a", "b")]
    random.Random(seed).shuffle(attacks)
    for given in (attacks, iter(attacks)):
        with pytest.raises(UnknownArgumentError, match=r"\(a,x\)"):
            Framework("ab", given)
    apx = "arg(a). arg(b).\n" + "".join(f"att({s},{t}).\n" for s, t in attacks)
    with pytest.raises(UnknownArgumentError, match=r"\(a,x\)"):
        parse_apx(apx)


@pytest.mark.parametrize("seed", range(4))
def test_unknown_sources_name_the_least_attack(seed):
    attacks = [("z", "a"), ("y", "b"), ("a", "b"), ("b", "a")]
    random.Random(seed).shuffle(attacks)
    for given in (attacks, iter(attacks)):
        with pytest.raises(UnknownArgumentError, match=r"\(y,b\)"):
            Framework("ab", given)
    apx = "arg(a). arg(b).\n" + "".join(f"att({s},{t}).\n" for s, t in attacks)
    with pytest.raises(UnknownArgumentError, match=r"\(y,b\)"):
        parse_apx(apx)


@pytest.mark.parametrize("attacks", [[("a", 1)], [(None, "a")], [("a", 2), (1.5, "a")]])
def test_non_string_endpoints_are_unknown_arguments(attacks):
    with pytest.raises(UnknownArgumentError):
        Framework("a", attacks)


def test_target_table_is_built_on_first_read():
    rng = random.Random(63)
    for _ in range(30):
        fw = random_framework(rng, rng.randrange(0, 8), rng.random() * 0.5)
        again = Framework(fw.arguments, fw.attacks)
        assert "_targets" not in vars(fw) and "_targets" not in vars(again)
        assert "attacks" not in vars(again)
        for name in fw.arguments:
            assert fw._targets[name] == {t for s, t in fw.attacks if s == name}
        assert_indexed_like_a_checked_build(again)


def test_rejection_checks_and_reduced_graphs_leave_the_target_table_unbuilt():
    fw = Framework("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    # Condition 1 fails at (c,a) under the first labelling, condition 2 at a under the second.
    for lab in (Labelling(in_args="a", undec_args="bc"), Labelling(out_args="abc")):
        assert [d.yes for d in decide_all(fw, lab, (1, 2, 3, 4))] == [False] * 4
    assert "_targets" not in vars(fw)
    reduced = reduce(fw, PreferenceOrder([("a",), ("b",), ("c",)]), 1)
    is_complete(reduced, Labelling(in_args="c", out_args="a", undec_args="b"))
    assert "_targets" not in vars(reduced)


def test_every_build_agrees_with_a_checked_build_and_stays_immutable():
    rng = random.Random(65)
    for _ in range(60):
        fw = random_framework(rng, rng.randrange(0, 8), rng.random() * 0.5)
        subset = {a for a in fw.arguments if rng.random() < 0.6}
        order = random_order(rng, fw)
        index = rng.choice((1, 2, 3, 4))
        restricted = {(s, t) for s, t in fw.attacks if s in subset and t in subset}
        builds = (
            (parse_apx(emit_apx(fw)), fw.attacks),
            (Framework(sorted(fw.arguments), sorted(fw.attacks)), fw.attacks),
            (fw.restrict(subset), restricted),
            (reduce(fw, order, index), reference_reduce(fw, order, index).attacks),
        )
        for built, attacks in builds:
            checked = Framework(built.arguments, attacks)
            assert built == checked and checked == built
            assert hash(built) == hash(checked)
            assert repr(built).startswith("Framework(arguments=frozenset(")
            assert eval(repr(built)) == checked
            assert built.attacks == checked.attacks and type(built.attacks) is frozenset
            for field in ("arguments", "attacks", "_attackers"):
                with pytest.raises(AttributeError):
                    setattr(built, field, frozenset())
                with pytest.raises(AttributeError):
                    delattr(built, field)


def test_stored_attackers_are_the_argument_strings_themselves():
    rng = random.Random(66)
    for _ in range(30):
        fw = random_framework(rng, rng.randrange(1, 8), rng.random() * 0.5)
        text = emit_apx(fw)
        # Equal strings that are other objects than the argument names.
        pairs = [("".join(list(s)), "".join(list(t))) for s, t in fw.attacks]
        assert not any(s is t for (s, _), (t, _) in zip(pairs, fw.attacks))
        for built in (parse_apx(text), Framework(sorted(fw.arguments), pairs)):
            names = {id(a) for a in built.arguments}
            assert all(id(s) in names for srcs in built._attackers.values() for s in srcs)


def test_frameworks_differ_by_their_attacks():
    assert Framework("ab", [("a", "b")]) != Framework("ab", [("b", "a")])
    assert Framework("ab") != Framework("abc")
    assert Framework("ab") != ("ab", ())
    assert Framework("ab") != Labelling(undec_args="ab")
    assert parse_apx("arg(a). arg(b). att(a,b).") != parse_apx("arg(a). arg(b). att(b,a).")


def test_parsing_deciding_and_verifying_leave_the_attack_set_unbuilt():
    rng = random.Random(67)
    verdicts = set()
    for _ in range(40):
        text = emit_apx(random_framework(rng, rng.randrange(1, 7), rng.random() * 0.5))
        # A complete labelling is a yes under every reduction; a random one mostly a no.
        labellings = [random_labelling(rng, parse_apx(text))]
        labellings.append(rng.choice(enumerate_complete(parse_apx(text))))
        for labelling in labellings:
            fw = parse_apx(text)
            assert "attacks" not in vars(fw)
            for decision in decide_all(fw, labelling, (1, 2, 3, 4)):
                verdicts.add(decision.yes)
                if decision.yes:
                    assert verify_witness(fw, labelling, decision.reduction, decision.witness)
            assert "attacks" not in vars(fw)
    assert verdicts == {True, False}


def undirected_distances(fw: Framework, seeds, within) -> dict[str, int]:
    """Distances from the seed set along attacks in either direction inside `within`."""
    distance = dict.fromkeys(seeds, 0)
    changed = True
    while changed:
        changed = False
        for s, t in fw.attacks:
            for a, b in ((s, t), (t, s)):
                if b not in within:
                    continue
                if a in distance and distance.get(b, len(fw.arguments)) > distance[a] + 1:
                    distance[b] = distance[a] + 1
                    changed = True
    return distance


def test_layer_returns_every_argument_it_reaches_by_depth():
    rng = random.Random(62)
    saw_proper = False
    for _ in range(400):
        fw = random_framework(rng, rng.randrange(1, 10), rng.random() * 0.3)
        within = fw.arguments
        if rng.random() < 0.5:
            within = frozenset(a for a in fw.arguments if rng.random() < 0.6)
            saw_proper |= within != fw.arguments
        seeds = {a for a in within if rng.random() < 0.3}
        depth = {}
        reached = fw._layer(seeds, depth, within)
        assert set(depth) <= within
        assert depth == undirected_distances(fw, seeds, within)
        assert sorted(reached) == sorted(depth)
        assert [depth[a] for a in reached] == sorted(depth[a] for a in reached)
    assert saw_proper


def test_layer_skips_arguments_already_placed():
    fw = Framework("abc", [("a", "b"), ("b", "c")])
    depth = {"b": 0}
    assert fw._layer(("a",), depth, fw.arguments) == ["a"]
    assert depth == {"a": 0, "b": 0}


def test_layer_stays_inside_its_boundary():
    fw = Framework("abcd", [("a", "b"), ("b", "c"), ("d", "a")])
    depth = {}
    assert fw._layer(("a",), depth, {"a", "c", "d"}) == ["a", "d"]
    assert depth == {"a": 0, "d": 1}
