import collections
import itertools
import random
import weakref

import pytest

from conftest import (
    all_frameworks,
    all_labellings,
    ex4_certificate_holds,
    is_valid_ranking,
    random_framework,
    random_labelling,
    reference_rank_detail,
    shared_chain,
)
from prefarg import (
    Decision,
    DomainMismatchError,
    Framework,
    Labelling,
    PreferenceOrder,
    brute_force_ex,
    completeness_violation,
    decide,
    decide_all,
    is_complete,
    verify_witness,
)
from prefarg import solvers
from prefarg.solvers import _rank_detail

L1 = Labelling(undec_args="ab")
L2 = Labelling(in_args="b", out_args="a")
L3 = Labelling(in_args="b", undec_args="a")


# --- reduction 1 -----------------------------------------------------------


def test_ex1_out_in_pair_is_positive(two_arg):
    decision = decide(two_arg, L2, 1)
    assert decision.yes
    assert decision.witness.classes == (frozenset("a"), frozenset("b"))
    assert verify_witness(two_arg, L2, 1, decision.witness)


def test_ex1_complete_labelling_yields_trivial_witness(example1):
    labelling = Labelling(in_args="ad", out_args="bc")
    decision = decide(example1, labelling, 1)
    assert decision.yes
    assert decision.witness == PreferenceOrder.all_equivalent(example1)
    assert verify_witness(example1, labelling, 1, decision.witness)


def test_ex1_undec_attacking_in_fails_condition_one(two_arg):
    decision = decide(two_arg, L3, 1)
    assert not decision.yes
    assert decision.certificate.condition == 1
    assert decision.certificate.witness == ("a", "b")


def test_ex1_out_without_in_neighbour_fails_condition_two():
    fw = Framework("ab", [("a", "b")])
    decision = decide(fw, Labelling(out_args="a", undec_args="b"), 1)
    assert not decision.yes
    assert decision.certificate.condition == 2
    assert decision.certificate.witness == ("a",)


def test_ex1_acyclic_undec_component_fails_condition_three(two_arg):
    decision = decide(two_arg, L1, 1)
    assert not decision.yes
    assert decision.certificate.condition == 3


# --- reduction 2 -----------------------------------------------------------


def test_ex2_complete_labelling(example1):
    decision = decide(example1, Labelling(in_args="ad", out_args="bc"), 2)
    assert decision.yes
    assert decision.witness == PreferenceOrder.all_equivalent(example1)


def test_ex2_incomplete_labelling(two_arg):
    decision = decide(two_arg, L1, 2)
    assert not decision.yes
    assert decision.certificate is not None


def test_ex2_empty_framework():
    assert decide(Framework(), Labelling(), 2).yes


def test_ex2_matches_is_complete_on_random_instances():
    rng = random.Random(51)
    for _ in range(80):
        fw = random_framework(rng, rng.randrange(0, 6), rng.random())
        lab = random_labelling(rng, fw)
        assert decide(fw, lab, 2).yes == is_complete(fw, lab)


# --- reduction 3 -----------------------------------------------------------


def test_ex3_mutualises_a_one_way_undec_pair(two_arg):
    decision = decide(two_arg, L1, 3)
    assert decision.yes
    assert decision.witness.classes == (frozenset("a"), frozenset("b"))
    assert verify_witness(two_arg, L1, 3, decision.witness)


def test_ex3_isolated_undec_argument_is_negative():
    decision = decide(Framework("a"), Labelling(undec_args="a"), 3)
    assert not decision.yes
    assert decision.certificate.condition == 3
    assert decision.certificate.witness == ("a",)


def test_ex3_accepts_whatever_ex1_accepts(two_arg):
    decision = decide(two_arg, L2, 3)
    assert decision.yes
    assert verify_witness(two_arg, L2, 3, decision.witness)


# --- reductions 1 and 3: cyclic cores that are not one simple cycle --------

# Each shape is one undec block. The out argument o has no in attacker, so
# every labelling below is incomplete and the layering has to run.
CORE_SHAPES = {
    "two_cycles_joined_by_a_path": [
        ("a", "b"), ("b", "c"), ("c", "a"), ("p", "a"), ("p", "q"), ("q", "x"),
        ("x", "y"), ("y", "x"),
    ],
    "cycle_with_a_downstream_tail": [
        ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
    ],
    "self_attack_with_a_tail": [("a", "a"), ("a", "b"), ("b", "c")],
    "every_argument_attacked": [
        ("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "b"),
    ],
}


@pytest.mark.parametrize("reduction", [1, 3])
@pytest.mark.parametrize("shape", sorted(CORE_SHAPES))
def test_cyclic_core_blocks_give_verified_witnesses(shape, reduction):
    attacks = CORE_SHAPES[shape] + [("o", "i")]
    fw = Framework({name for att in attacks for name in att}, attacks)
    lab = Labelling(in_args="i", out_args="o", undec_args=fw.arguments - {"i", "o"})
    assert not is_complete(fw, lab)
    decision = decide(fw, lab, reduction)
    assert decision.yes
    assert verify_witness(fw, lab, reduction, decision.witness)


# --- reduction 3 on acyclic undec blocks ----------------------------------

ACYCLIC_SHAPES = {
    "path": [("a", "b"), ("b", "c"), ("c", "d")],
    "fan_in": [("a", "d"), ("b", "d"), ("c", "d")],
    "fan_out": [("d", "a"), ("d", "b"), ("d", "c")],
    "diamond": [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
}


@pytest.mark.parametrize("shape", sorted(ACYCLIC_SHAPES))
def test_acyclic_undec_blocks_need_weak_removal(shape):
    attacks = ACYCLIC_SHAPES[shape]
    fw = Framework("abcd", attacks)
    lab = Labelling(undec_args="abcd")
    assert not is_complete(fw, lab)
    decision = decide(fw, lab, 3)
    assert decision.yes
    assert verify_witness(fw, lab, 3, decision.witness)
    refused = decide(fw, lab, 1)
    assert not refused.yes
    assert refused.certificate.condition == 3
    assert refused.certificate.witness == ("a", "b", "c", "d")


def test_acyclic_undec_blocks_yield_each_missed_block_once():
    # The cyclic core x-y-z is layered, the two paths are missed and left unlayered.
    attacks = [("a", "b"), ("b", "c"), ("d", "e"), ("x", "y"), ("y", "x"), ("y", "z")]
    fw = Framework("abcdexyz", attacks)
    depth, blocks = solvers._Checks(fw, Labelling(undec_args=fw.arguments)).layering
    assert blocks == [frozenset("abc"), frozenset("de")]
    assert depth == dict.fromkeys("xyz", 0)


# --- reductions 1 and 3 on undec parts of several blocks --------------------

# Block shapes over local positions 0..2; each block gets fresh names.
BLOCK_SHAPES = {
    "cycle": (2, [(0, 1), (1, 0)]),
    "three_cycle": (3, [(0, 1), (1, 2), (2, 0)]),
    "self_attack": (1, [(0, 0)]),
    "path": (3, [(0, 1), (1, 2)]),
    "fan_in": (3, [(0, 2), (1, 2)]),
    "isolated": (1, []),
}
CYCLIC_BLOCKS = {"cycle", "three_cycle", "self_attack"}


@pytest.mark.parametrize("seed", range(40))
def test_several_undec_blocks_fail_at_the_least_block(seed):
    rng = random.Random(seed)
    shapes = [rng.choice(sorted(BLOCK_SHAPES)) for _ in range(rng.randrange(2, 5))]
    pool = [f"u{i}" for i in range(12)]
    rng.shuffle(pool)
    blocks, attacks = [], [("o", "i")]
    for shape in shapes:
        size, edges = BLOCK_SHAPES[shape]
        names = [pool.pop() for _ in range(size)]
        blocks.append((shape, frozenset(names)))
        attacks += [(names[s], names[t]) for s, t in edges]
    undec = frozenset().union(*(block for _, block in blocks))
    fw = Framework(undec | {"i", "o"}, attacks)
    lab = Labelling(in_args="i", out_args="o", undec_args=undec)
    # The out argument o has no in attacker, so the layering has to run.
    assert not is_complete(fw, lab)
    failing = {
        1: [block for shape, block in blocks if shape not in CYCLIC_BLOCKS],
        3: [block for shape, block in blocks if shape == "isolated"],
    }
    for reduction, bad in failing.items():
        decision = decide(fw, lab, reduction)
        if bad:
            least = min(bad, key=min)
            assert not decision.yes
            assert decision.certificate.condition == 3
            assert decision.certificate.witness == tuple(sorted(least))
        else:
            assert decision.yes
            assert verify_witness(fw, lab, reduction, decision.witness)


def test_undec_blocks_joined_only_through_an_out_argument_stay_apart():
    # The undec part has two blocks, {u1, u2} with a cycle and {p1, p2}
    # without; only the out argument o links them, and p1 is incomplete.
    attacks = [("i", "o"), ("o", "u1"), ("o", "p1"), ("u1", "u2"), ("u2", "u1"), ("p1", "p2")]
    fw = Framework({name for att in attacks for name in att}, attacks)
    lab = Labelling(in_args="i", out_args="o", undec_args={"u1", "u2", "p1", "p2"})
    assert not is_complete(fw, lab)
    refused = decide(fw, lab, 1)
    assert not refused.yes
    assert refused.certificate.condition == 3
    assert refused.certificate.witness == ("p1", "p2")
    decision = decide(fw, lab, 3)
    assert decision.yes
    assert verify_witness(fw, lab, 3, decision.witness)


# --- rank ------------------------------------------------------------------


def least_ranking(fw, lab):
    """The least ranking of an out-free labelling, or None when there is none."""
    return _rank_detail(fw, lab.in_args, lab.undec_args)[0]


def test_rank_figure_instance(rank_figure, rank_figure_labelling):
    assert least_ranking(rank_figure, rank_figure_labelling) == {
        "a": 0,
        "b": 1,
        "c": 2,
        "d": 3,
        "e": 2,
        "f": 2,
    }


def test_rank_figure_with_extra_attack_is_negative(rank_figure, rank_figure_labelling):
    fw = Framework(rank_figure.arguments, set(rank_figure.attacks) | {("b", "d")})
    assert least_ranking(fw, rank_figure_labelling) is None


def test_rank_single_unconstrained_argument():
    assert least_ranking(Framework("a"), Labelling(in_args="a")) == {"a": 0}


def _in_undec_labellings(fw):
    names = sorted(fw.arguments)
    for undec in itertools.product((False, True), repeat=len(names)):
        yield Labelling.from_map({a: "undec" if u else "in" for a, u in zip(names, undec)})


def _valid_rankings(fw, lab):
    """Every ranking in {0..n}^n, checked against the two conditions directly."""
    names = sorted(fw.arguments)
    at = {a: i for i, a in enumerate(names)}
    strict = [(at[s], at[t]) for s, t in fw.attacks if s in lab.in_args or t in lab.in_args]
    undec = [
        (at[u], [at[v] for v in lab.undec_args if (v, u) in fw.attacks])
        for u in lab.undec_args
    ]
    if not all(attackers for _, attackers in undec):
        return
    for psi in itertools.product(range(len(names) + 1), repeat=len(names)):
        if all(psi[s] > psi[t] for s, t in strict) and all(
            psi[u] >= min(psi[v] for v in attackers) for u, attackers in undec
        ):
            yield dict(zip(names, psi))


def test_rank_is_the_least_valid_ranking():
    """None exactly when no ranking exists, else pointwise below every ranking."""
    frameworks = [fw for size in range(4) for fw in all_frameworks(("a", "b", "c")[:size])]
    rng = random.Random(56)
    frameworks += [random_framework(rng, 4, rng.random() * 0.6) for _ in range(20)]
    several = 0
    for fw in frameworks:
        for lab in _in_undec_labellings(fw):
            valid = list(_valid_rankings(fw, lab))
            least = least_ranking(fw, lab)
            assert (least is None) == (not valid)
            for psi in valid:
                assert all(least[a] <= psi[a] for a in psi)
            several += len(valid) > 1
    assert several > 500


def test_rank_output_satisfies_ranking_conditions():
    rng = random.Random(52)
    for _ in range(120):
        fw = random_framework(rng, rng.randrange(0, 7), rng.random() * 0.6)
        lab = Labelling.from_map(
            {a: rng.choice(("in", "undec")) for a in sorted(fw.arguments)}
        )
        psi = least_ranking(fw, lab)
        if psi is not None:
            assert is_valid_ranking(fw, lab, psi)
            assert max(psi.values(), default=0) <= len(fw.arguments)


PAPER_RANKING = {"a": 0, "b": 1, "f": 2, "e": 2, "c": 2, "d": 3}


def test_paper_annotated_ranking_is_valid(rank_figure, rank_figure_labelling):
    assert is_valid_ranking(rank_figure, rank_figure_labelling, PAPER_RANKING)


@pytest.mark.parametrize(
    "psi",
    [
        {name: value for name, value in PAPER_RANKING.items() if name != "d"},
        # b attacks a, and both are in.
        {**PAPER_RANKING, "b": 0},
        # c's one undec attacker is e.
        {**PAPER_RANKING, "c": 1},
        # d attacks c, from in to undec, and nothing else is broken.
        {**PAPER_RANKING, "d": 2},
    ],
    ids=[
        "missing-value",
        "in-attack-not-descending",
        "below-its-undec-attackers",
        "in-undec-attack-not-descending",
    ],
)
def test_is_valid_ranking_refuses_a_broken_paper_ranking(rank_figure, rank_figure_labelling, psi):
    assert not is_valid_ranking(rank_figure, rank_figure_labelling, psi)


def test_is_valid_ranking_refuses_an_undec_argument_without_an_undec_attacker():
    lab = Labelling(in_args="a", undec_args="b")
    assert not is_valid_ranking(Framework("ab", [("a", "b")]), lab, {"a": 1, "b": 0})


def _random_instance(rng, labels):
    """A framework of 1-9 arguments, self-attacks included, and a labelling over `labels`."""
    fw = random_framework(rng, rng.randrange(1, 10), rng.random() * 0.5)
    weights = [rng.random() for _ in labels]
    names = sorted(fw.arguments)
    return fw, Labelling.from_map(dict(zip(names, rng.choices(labels, weights, k=len(names)))))


def test_rank_detail_matches_the_reference_sweeps():
    """Same values and failure kind as the sweeps, and the same undec-unattacked argument."""
    details = {
        "undec-unattacked": "undec argument without an undec attacker",
        "overflow": "rank value exceeded the argument count",
    }
    rng = random.Random(57)
    kinds = collections.Counter()
    for _ in range(2000):
        fw, lab = _random_instance(rng, ("in", "undec"))
        psi, failure = _rank_detail(fw, lab.in_args, lab.undec_args)
        expected_psi, expected = reference_rank_detail(fw, lab.in_args, lab.undec_args)
        assert psi == expected_psi
        if expected is None:
            assert failure is None
        else:
            kind, name = expected
            assert (failure.condition, failure.detail) == (2, details[kind])
            if kind == "undec-unattacked":
                assert failure.witness == (name,)
        kinds[expected and expected[0]] += 1
    assert min(kinds.values()) > 200, kinds


def test_ex4_agrees_with_the_sweeps_and_its_certificates_hold():
    """Every no certificate re-derives from the graph; every yes witness verifies."""
    rng = random.Random(58)
    details = collections.Counter()
    for _ in range(2000):
        fw, lab = _random_instance(rng, ("in", "out", "undec"))
        decision = decide(fw, lab, 4)
        core = fw.restrict(lab.in_args | lab.undec_args)
        expected = is_complete(fw, lab) or (
            all(fw._attackers[o] & lab.in_args for o in lab.out_args)
            and reference_rank_detail(core, lab.in_args, lab.undec_args)[0] is not None
        )
        assert decision.yes == expected
        if decision.yes:
            assert verify_witness(fw, lab, 4, decision.witness)
        else:
            assert ex4_certificate_holds(fw, lab, decision.certificate)
            details[decision.certificate.detail] += 1
    assert len(details) == 3 and min(details.values()) > 100, details


def test_deciders_hand_on_the_certificates_of_their_checks():
    """Reduction 2 answers with the completeness check's certificate, 4 with the ranking's."""
    rng = random.Random(59)
    ranking_failures = 0
    for _ in range(500):
        fw, lab = _random_instance(rng, ("in", "undec"))
        violation = completeness_violation(fw, lab)
        assert decide(fw, lab, 2).certificate == violation
        if violation is not None:
            failure = _rank_detail(fw, lab.in_args, lab.undec_args)[1]
            assert decide(fw, lab, 4).certificate == failure
            ranking_failures += failure is not None
    assert ranking_failures > 100


def test_ex4_settles_a_long_all_in_chain():
    """The sweeps' worst case: names sorted along the chain, one step per sweep."""
    n = 20_000
    names = [f"c{i:05d}" for i in range(n)]
    fw = Framework(names, zip(names, names[1:]))
    lab = Labelling(in_args=names)
    assert decide(fw, lab, 4).yes
    assert least_ranking(fw, lab) == {name: n - 1 - i for i, name in enumerate(names)}


def test_rank_settles_an_undec_cycle_that_becomes_eligible_late():
    """The cycle's closing argument attacks the head of a deep in-chain."""
    depth, length = 20_000, 50
    chain = [f"c{i:05d}" for i in range(depth)]
    cycle = [f"u{i:02d}" for i in range(length)]
    attacks = [*zip(chain, chain[1:]), *zip(cycle, cycle[1:] + cycle[:1]), (cycle[-1], chain[0])]
    fw = Framework(chain + cycle, attacks)
    lab = Labelling(in_args=chain, undec_args=cycle)
    psi = least_ranking(fw, lab)
    assert [psi[u] for u in cycle] == [depth] * length
    assert psi[chain[0]] == depth - 1
    assert decide(fw, lab, 4).yes


def test_rank_settles_eligible_arguments_that_wait_on_a_shared_chain():
    k = 200
    fw, lab, chain, undec = shared_chain(k, 1000)
    psi = least_ranking(fw, lab)
    assert {psi[u] for u in undec} == {k}
    assert [psi[c] for c in chain] == list(range(k, -1, -1))
    assert decide(fw, lab, 4).yes


def test_rank_peels_a_shared_chain_once_not_once_per_level(monkeypatch):
    """Each level's reach stays inside its fresh arguments' SCCs, and the chain's are singletons."""
    fw, lab, _, _ = shared_chain(200, 1000)
    peeled = []
    cyclic_core = Framework._cyclic_core

    def counted(self, within):
        peeled.append(len(within))
        return cyclic_core(self, within)

    monkeypatch.setattr(Framework, "_cyclic_core", counted)
    assert least_ranking(fw, lab) is not None
    assert sum(peeled) <= 2 * len(fw.arguments)


# --- reduction 4 -----------------------------------------------------------


@pytest.mark.parametrize("labelling", [Labelling(in_args="a"), Labelling(in_args="abc")])
def test_ex4_rejects_a_labelling_that_does_not_cover_the_framework(labelling):
    with pytest.raises(DomainMismatchError):
        decide(Framework("ab", [("a", "b")]), labelling, 4)


def test_ex4_undec_in_pair_is_negative(two_arg):
    decision = decide(two_arg, L3, 4)
    assert not decision.yes
    assert decision.certificate.condition == 2


def test_ex4_out_without_in_attacker_is_negative(two_arg):
    decision = decide(two_arg, L2, 4)
    assert not decision.yes
    assert decision.certificate.condition == 1
    assert decision.certificate.witness == ("a",)


def test_ex4_rank_figure_instance(rank_figure, rank_figure_labelling):
    decision = decide(rank_figure, rank_figure_labelling, 4)
    assert decision.yes
    assert verify_witness(rank_figure, rank_figure_labelling, 4, decision.witness)


def test_ex4_removes_an_attack_between_in_arguments():
    fw = Framework("ab", [("a", "b")])
    labelling = Labelling(in_args="ab")
    decision = decide(fw, labelling, 4)
    assert decision.yes
    assert verify_witness(fw, labelling, 4, decision.witness)


# Out arguments o, p both attack and are attacked by in arguments that sit
# above rank 0, so the witness must put them below every rank value.
OUT_SHAPES = {
    "chain": ([("a", "b"), ("a", "o"), ("o", "a")], "ab", "", "o"),
    "two_outs": (
        [("a", "b"), ("b", "c"), ("a", "o"), ("o", "b"), ("b", "p"), ("p", "a"), ("o", "p")],
        "abc",
        "",
        "op",
    ),
    "with_undec": (
        [("a", "b"), ("u", "v"), ("v", "u"), ("a", "u"), ("a", "o"), ("o", "a"), ("u", "o")],
        "ab",
        "uv",
        "o",
    ),
}


@pytest.mark.parametrize("shape", sorted(OUT_SHAPES))
def test_ex4_out_arguments_between_in_arguments(shape):
    attacks, in_args, undec_args, out_args = OUT_SHAPES[shape]
    fw = Framework(in_args + undec_args + out_args, attacks)
    lab = Labelling(in_args=in_args, undec_args=undec_args, out_args=out_args)
    assert not is_complete(fw, lab)
    decision = decide(fw, lab, 4)
    assert decision.yes
    assert verify_witness(fw, lab, 4, decision.witness)
    assert brute_force_ex(fw, lab, 4)[0]


# --- verify_witness --------------------------------------------------------


def test_verify_witness_accepts_reflection_witness(two_arg):
    assert verify_witness(two_arg, L2, 1, PreferenceOrder([("a",), ("b",)]))


def test_verify_witness_all_equivalent_on_complete(example1):
    labelling = Labelling(in_args="ad", out_args="bc")
    order = PreferenceOrder.all_equivalent(example1)
    for index in (1, 2, 3, 4):
        assert verify_witness(example1, labelling, index, order)


def test_verify_witness_no_order_fixes_l2_under_removal(two_arg):
    for order in ([("a",), ("b",)], [("b",), ("a",)], [("a", "b")]):
        assert not verify_witness(two_arg, L2, 4, PreferenceOrder(order))


# --- separation matrix and corollary ---------------------------------------


def test_separation_matrix(two_arg):
    expected = {
        "l1": (False, False, True, False),
        "l2": (True, False, True, False),
        "l3": (False, False, False, False),
    }
    for name, labelling in (("l1", L1), ("l2", L2), ("l3", L3)):
        row = tuple(decide(two_arg, labelling, i).yes for i in (1, 2, 3, 4))
        oracle_row = tuple(brute_force_ex(two_arg, labelling, i)[0] for i in (1, 2, 3, 4))
        assert row == oracle_row == expected[name]


def test_exhaustive_two_argument_differential():
    for fw in all_frameworks(("a", "b")):
        for lab in all_labellings(fw):
            for index in (1, 2, 3, 4):
                decision = decide(fw, lab, index)
                expected, _ = brute_force_ex(fw, lab, index)
                assert decision.yes == expected
                if decision.yes:
                    assert verify_witness(fw, lab, index, decision.witness)


def test_corollary_relations_on_random_instances():
    rng = random.Random(53)
    for _ in range(150):
        fw = random_framework(rng, rng.randrange(0, 5), rng.random())
        lab = random_labelling(rng, fw)
        yes = {i: decide(fw, lab, i).yes for i in (1, 2, 3, 4)}
        assert yes[2] == (yes[1] and yes[4]) == (yes[3] and yes[4])
        assert not yes[1] or yes[3]


def test_decider_witnesses_verify_on_random_instances():
    rng = random.Random(54)
    for _ in range(200):
        fw = random_framework(rng, rng.randrange(0, 6), rng.random() * 0.7)
        lab = random_labelling(rng, fw)
        for index in (1, 2, 3, 4):
            decision = decide(fw, lab, index)
            if decision.yes:
                assert verify_witness(fw, lab, index, decision.witness)
            else:
                assert decision.certificate is not None


def test_decide_rejects_bad_reduction(two_arg):
    with pytest.raises(ValueError):
        decide(two_arg, L1, 0)
    with pytest.raises(ValueError):
        list(decide_all(two_arg, L1, [1, 5]))


def test_decide_all_runs_each_check_once_and_keeps_nothing(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # The one scan of the labelled arguments' attackers, which every check reads.
    monkeypatch.setattr(solvers, "_violators", counted("violators", solvers._violators))
    monkeypatch.setattr(solvers, "_conditions_1_2", counted("conditions", solvers._conditions_1_2))
    fw, lab = Framework("ab", [("a", "b")]), Labelling(undec_args="ab")
    decisions = list(decide_all(fw, lab, (4, 3, 2, 1, 3)))
    assert [d.yes for d in decisions] == [False, True, False, False, True]
    assert calls == {"violators": 1, "conditions": 1}
    kept = weakref.ref(fw), weakref.ref(lab)
    del fw, lab
    assert [ref() for ref in kept] == [None, None]


@pytest.fixture
def recorded(monkeypatch):
    """Each entry of `solvers.DECIDERS` replaced by a stub that records its reduction and checks."""
    seen = []

    def stub(reduction):
        def decider(checks):
            seen.append((reduction, checks))
            return Decision(False, reduction)

        return decider

    for reduction in solvers.DECIDERS:
        monkeypatch.setitem(solvers.DECIDERS, reduction, stub(reduction))
    return seen


def test_decide_all_answers_a_complete_labelling_without_a_decider(example1, recorded):
    decisions = list(decide_all(example1, Labelling(in_args="ad", out_args="bc"), (1, 2, 3, 4)))
    assert recorded == []
    equals = PreferenceOrder.all_equivalent(example1)
    assert decisions == [Decision(True, r, witness=equals) for r in (1, 2, 3, 4)]


def test_decide_all_hands_each_asked_decider_the_instance_checks_once(two_arg, recorded):
    decisions = list(decide_all(two_arg, L1, (4, 2, 3)))
    assert decisions == [Decision(False, r) for r in (4, 2, 3)]
    assert [reduction for reduction, _ in recorded] == [4, 2, 3]
    checks = recorded[0][1]
    assert all(seen is checks for _, seen in recorded)
    assert (checks.framework, checks.labelling) == (two_arg, L1)


def test_deciders_reject_partial_labellings(example1):
    with pytest.raises(DomainMismatchError):
        decide(example1, Labelling(in_args="a"), 1)
