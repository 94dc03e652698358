"""Property tests on small frameworks: the deciders against the oracle and the
reference scans, the reduction-4 ranking, and format round trips."""

import pytest

from conftest import (
    ex4_certificate_holds,
    kleene_rank,
    reference_brute_force_ex,
    reference_conditions_1_2,
    reference_grounded,
    reference_reduce,
    write_order,
)
from prefarg import (
    IN,
    OUT,
    UNDEC,
    Certificate,
    Decision,
    Framework,
    Labelling,
    PreferenceOrder,
    brute_force_ex,
    completeness_violation,
    decide,
    decide_all,
    emit_apx,
    emit_labelling,
    emit_result,
    is_complete,
    parse_apx,
    parse_labelling,
    parse_order,
    parse_result,
    reduce,
    verify_witness,
)
from prefarg.reductions import REDUCTIONS, _reduced_attackers, _reduced_complete
from prefarg.solvers import _Checks, _rank_detail

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NAMES = tuple("abcdefg")
PROPERTY_SETTINGS = hypothesis.settings(
    derandomize=True, max_examples=300, deadline=None, database=None
)


@st.composite
def instances(draw, labels=("in", "out", "undec"), size=len(NAMES)):
    """Up to `size` (at most 7) arguments, self-attacks and isolated ones included, and a labelling.

    The labelling is random, or the grounded one with one or two labels
    redrawn, unless that uses a label outside `labels`.
    """
    names = NAMES[: draw(st.integers(0, size))]
    pairs = [(s, t) for s in names for t in names]
    framework = Framework(names, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    marks = draw(st.lists(st.sampled_from(labels), min_size=len(names), max_size=len(names)))
    label = dict(zip(names, marks))
    if names and draw(st.booleans()):
        redrawn = draw(st.sets(st.sampled_from(names), min_size=1, max_size=2))
        grounded = reference_grounded(framework)
        label.update((a, grounded.label(a)) for a in names if a not in redrawn)
        if not set(label.values()) <= set(labels):
            label = dict(zip(names, marks))
    return framework, Labelling.from_map(label)


@PROPERTY_SETTINGS
@hypothesis.given(instances(labels=("in", "undec")))
def test_rank_is_the_kleene_fixpoint(instance):
    fw, lab = instance
    reference = kleene_rank(fw, lab.in_args, lab.undec_args)
    psi = _rank_detail(fw, lab.in_args, lab.undec_args)[0]
    if max(reference.values(), default=0) > len(reference):
        assert psi is None
    else:
        assert psi == reference


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_ex4_yes_witnesses_verify_and_no_certificates_hold(instance):
    fw, lab = instance
    decision = decide(fw, lab, 4)
    if decision.yes:
        assert verify_witness(fw, lab, 4, decision.witness)
    else:
        assert ex4_certificate_holds(fw, lab, decision.certificate)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_conditions_1_2_match_the_attack_scan(instance):
    fw, lab = instance
    assert _Checks(fw, lab).conditions_1_2 == reference_conditions_1_2(fw, lab)


@PROPERTY_SETTINGS
@hypothesis.given(instances(), st.lists(st.sampled_from(REDUCTIONS), max_size=6))
def test_decide_all_matches_separate_calls_in_any_order(instance, reductions):
    fw, lab = instance
    decisions = list(decide_all(fw, lab, reductions))
    assert decisions == [decide(fw, lab, r) for r in reductions]
    # A complete labelling gets one order-of-equals object under every reduction;
    # otherwise no two decisions share a witness object.
    equals = [Decision(True, r, witness=PreferenceOrder.all_equivalent(fw)) for r in reductions]
    witnesses = [id(d.witness) for d in decisions if d.yes]
    if is_complete(fw, lab):
        assert decisions == equals and len(set(witnesses)) <= 1
    else:
        assert len(set(witnesses)) == len(witnesses)


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_every_reduction_keeps_every_attack_under_the_order_of_equals(instance):
    # So `cli._verified` checks the one witness `decide_all` shares among reductions once.
    fw, _ = instance
    rank = PreferenceOrder.all_equivalent(fw)._rank
    for reduction in REDUCTIONS:
        kept = _reduced_attackers(fw, rank, reduction)
        assert {a: kept(a) for a in fw.arguments} == fw._attackers


# Five arguments keep each instance's exhaustive search at 541 orders or fewer.
@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(instances(size=5))
def test_deciders_agree_with_the_oracle(instance):
    fw, lab = instance
    for reduction in REDUCTIONS:
        assert decide(fw, lab, reduction).yes == brute_force_ex(fw, lab, reduction)[0]


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_completeness_violation_names_the_least_violator(instance):
    fw, lab = instance
    clause_of = {IN: 1, OUT: 2, UNDEC: 3}

    def broken(name):
        attackers = {s for s, t in fw.attacks if t == name}
        all_out, some_in = attackers <= lab.out_args, bool(attackers & lab.in_args)
        return {IN: not all_out, OUT: not some_in, UNDEC: all_out or some_in}[lab.label(name)]

    assert sorted(_Checks(fw, lab).violators) == sorted(filter(broken, fw.arguments))
    least = min(filter(broken, fw.arguments), default=None)
    violation = completeness_violation(fw, lab)
    if least is None:
        assert violation is None
    else:
        assert (violation.witness, violation.condition) == ((least,), clause_of[lab.label(least)])


ROUND_TRIP_SETTINGS = hypothesis.settings(
    derandomize=True, max_examples=100, deadline=None, database=None
)


@st.composite
def orders(draw, framework: Framework) -> PreferenceOrder:
    """A CC-wise total order, its classes grouped by component as `write_order` writes them."""
    classes = []
    for component in framework.connected_components():
        members = draw(st.permutations(sorted(component)))
        chain = [[members[0]]]
        for name in members[1:]:
            if draw(st.booleans()):
                chain[-1].append(name)
            else:
                chain.append([name])
        classes += chain
    return PreferenceOrder(classes)


@st.composite
def decisions(draw, framework: Framework) -> Decision:
    """A yes with a witness order, or a no with or without a certificate."""
    reduction = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return Decision(True, reduction, witness=draw(orders(framework)))
    certificate = draw(
        st.none()
        | st.builds(
            Certificate,
            st.integers(1, 3),
            st.lists(st.sampled_from(NAMES), max_size=2).map(tuple),
            st.text(max_size=12),
        )
    )
    return Decision(False, reduction, certificate=certificate)


@ROUND_TRIP_SETTINGS
@hypothesis.given(st.data())
def test_every_format_reads_back_what_it_writes(data):
    fw, lab = data.draw(instances())
    assert parse_apx(emit_apx(fw)) == fw
    assert parse_labelling(emit_labelling(lab)) == lab
    order = data.draw(orders(fw))
    assert parse_order(write_order(order, fw)) == order
    decision = data.draw(decisions(fw))
    assert parse_result(emit_result(decision)) == decision


ORDERED_BELL = (1, 1, 3, 13, 75)
BLOCK_NAMES = tuple("abcdefghijkl")


@st.composite
def blocks(draw, max_orders=ORDERED_BELL[4] ** 3):
    """1-3 blocks of 1-4 arguments, each attack inside one block.

    Every argument may attack itself, and every pair of a block is joined
    by no attack, one either way, or a mutual pair. The product of the
    blocks' ordered Bell numbers, the oracle's order count when no block
    falls apart, stays at most `max_orders`.
    """
    names = iter(BLOCK_NAMES)
    arguments, attacks = [], []
    budget = max_orders
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, max(k for k in range(1, 5) if ORDERED_BELL[k] <= budget)))
        budget //= ORDERED_BELL[size]
        block = [next(names) for _ in range(size)]
        arguments += block
        attacks += [(a, a) for a in block if draw(st.booleans())]
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                kind = draw(st.sampled_from(("none", "forward", "back", "mutual")))
                attacks += [(a, b)] if kind in ("forward", "mutual") else []
                attacks += [(b, a)] if kind in ("back", "mutual") else []
    return Framework(arguments, attacks)


def labellings(framework: Framework):
    """Random total labellings of the framework."""
    label, names = st.sampled_from((IN, OUT, UNDEC)), sorted(framework.arguments)
    return st.fixed_dictionaries(dict.fromkeys(names, label)).map(Labelling.from_map)


@PROPERTY_SETTINGS
@hypothesis.given(st.data())
def test_reduced_attackers_match_the_literal_reduction(data):
    fw = data.draw(blocks())
    order = data.draw(orders(fw))
    references = {r: reference_reduce(fw, order, r) for r in REDUCTIONS}
    # The grounded labelling of each reduced graph is complete under that reduction.
    candidates = [data.draw(labellings(fw))]
    candidates += [reference_grounded(graph) for graph in references.values()]
    for r, reference in references.items():
        assert reduce(fw, order, r) == reference
        for lab in candidates:
            assert _reduced_complete(fw, lab, order._rank, r) == is_complete(reference, lab)


# At most 1000 orders per search, 975 for blocks of 4 and 3, keep the reference oracle quick.
@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(st.data())
def test_oracle_matches_the_reduce_based_reference(data):
    fw = data.draw(blocks(max_orders=1000))
    if data.draw(st.booleans()):
        lab = data.draw(labellings(fw))
    else:
        graph = reference_reduce(fw, data.draw(orders(fw)), data.draw(st.sampled_from(REDUCTIONS)))
        lab = reference_grounded(graph)
    for r in REDUCTIONS:
        assert brute_force_ex(fw, lab, r) == reference_brute_force_ex(fw, lab, r)
