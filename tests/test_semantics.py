import ast
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import metered, random_framework, reference_grounded
from prefarg import (
    IN,
    OUT,
    UNDEC,
    DomainMismatchError,
    Framework,
    Labelling,
    SizeLimitError,
    UnknownArgumentError,
    completeness_violation,
    enumerate_complete,
    is_complete,
)


def as_triple(labelling):
    return (
        tuple(sorted(labelling.in_args)),
        tuple(sorted(labelling.out_args)),
        tuple(sorted(labelling.undec_args)),
    )


def test_is_complete_example1(example1):
    assert is_complete(example1, Labelling(in_args="ad", out_args="bc"))


def test_is_complete_rejects_all_undec_on_one_way_pair(two_arg):
    assert not is_complete(two_arg, Labelling(undec_args="ab"))


def test_is_complete_empty_framework():
    assert is_complete(Framework(), Labelling())


def test_violation_reports_first_argument_and_clause(two_arg):
    violation = completeness_violation(two_arg, Labelling(undec_args="ab"))
    assert violation.witness == ("a",)
    assert violation.condition == 3


def test_violation_in_clause():
    fw = Framework("ab", [("a", "b")])
    violation = completeness_violation(fw, Labelling(in_args="ab"))
    assert violation.witness == ("b",)
    assert violation.condition == 1


def test_violation_out_clause():
    fw = Framework("ab", [("a", "b")])
    violation = completeness_violation(fw, Labelling(out_args="a", in_args="b"))
    assert violation.witness == ("a",)
    assert violation.condition == 2


def test_labelling_domain_mismatch(example1):
    with pytest.raises(DomainMismatchError):
        is_complete(example1, Labelling(in_args="a"))


def test_domain_mismatch_names_the_missing_and_the_extra_arguments():
    labelling = Labelling(in_args="a", out_args="x", undec_args="b")
    message = "labelling does not match the framework (missing ['c'], extra ['x'])"
    with pytest.raises(DomainMismatchError) as raised:
        is_complete(Framework("abc"), labelling)
    assert str(raised.value) == message


def test_labelling_rejects_overlapping_sets_and_bad_labels():
    with pytest.raises(ValueError):
        Labelling(in_args="a", out_args="a")
    with pytest.raises(ValueError, match="bad label 'maybe'"):
        Labelling.from_map({"a": "in", "b": "maybe"})


def test_enumerate_complete_example1(example1):
    found = {as_triple(l) for l in enumerate_complete(example1)}
    assert found == {
        ((), (), ("a", "b", "c", "d")),
        (("a", "d"), ("b", "c"), ()),
        (("c",), ("a", "b", "d"), ()),
    }


def test_enumerate_complete_single_unattacked():
    labellings = enumerate_complete(Framework("a"))
    assert [as_triple(l) for l in labellings] == [(("a",), (), ())]


def test_enumerate_complete_self_attacker_matches_brute_force():
    fw = Framework("a", [("a", "a")])
    brute = [
        Labelling.from_map({"a": label})
        for label in (IN, OUT, UNDEC)
        if is_complete(fw, Labelling.from_map({"a": label}))
    ]
    assert [as_triple(l) for l in brute] == [((), (), ("a",))]
    assert [as_triple(l) for l in enumerate_complete(fw)] == [((), (), ("a",))]


def test_enumerate_complete_respects_cap():
    # 21 arguments, one above LABELLING_CAP: refused before the targets table is read.
    fw = Framework([f"n{i:02d}" for i in range(21)])
    object.__setattr__(fw, "_targets", BoundedTable(fw._targets, budget=0))
    with pytest.raises(SizeLimitError, match="enumeration over 21 arguments exceeds the cap of 20"):
        enumerate_complete(fw)


class BoundedTable(dict):
    """A targets table that fails the test on its read after the first `budget`."""

    def __init__(self, table, budget):
        super().__init__(table)
        self.budget = budget

    def __getitem__(self, name):
        self.budget -= 1
        assert self.budget >= 0, "read the targets table more often than allowed"
        return super().__getitem__(name)


def test_enumeration_labels_attackers_before_their_targets():
    # A self-attacking `z` attacks every other argument; all are undec in the
    # one complete labelling. In name order `z` comes last, and every other
    # argument keeps three open labels until then: 3^(n-1) branches.
    n = 20
    names = [f"a{i:02d}" for i in range(n - 1)] + ["z"]
    fw = Framework(names, [("z", name) for name in names])
    object.__setattr__(fw, "_targets", BoundedTable(fw._targets, budget=10 * n))
    assert [as_triple(l) for l in enumerate_complete(fw)] == [((), (), tuple(names))]


# Each shape's work: the reads of both tables, each charged 1 plus the size of
# its set (`conftest.metered`). The search walks attacker sets in name order,
# so the count is the same under every hash seed.
ENUMERATION_WORK = {"mutual-clique": 154_440, "complete-digraph": 14_490, "mutual-K10,10": 27_225}


def _enumeration_work(shape):
    """The shape's complete labellings, as triples, and the work of enumerating them."""
    names = [f"a{i:02d}" for i in range(20)]
    if shape == "mutual-K10,10":
        sides = names[:10], names[10:]
        attacks = [(a, b) for one, other in (sides, sides[::-1]) for a in one for b in other]
    else:
        attacks = [(a, b) for a in names for b in names if shape == "complete-digraph" or a != b]
    fw, meter = metered(Framework(names, attacks))
    return [as_triple(l) for l in enumerate_complete(fw)], meter[0]


@pytest.mark.parametrize("shape", ENUMERATION_WORK)
def test_enumeration_is_polynomial_on_complete_digraphs(shape):
    # In the cliques every ordered pair of distinct arguments attacks: the
    # complete labellings are all undec, or one argument in and the rest out;
    # with self-attacks only all undec. An out argument with no in attacker is
    # pruned once no open attacker can still be in (each attacks itself or has
    # an in or undec attacker), so the search is polynomial in n instead of
    # exponential.
    # In K10,10 each side attacks every argument of the other: all undec, or
    # one side in and the other out. Once a side's argument turns in or undec,
    # the labels of its own side are re-checked through the open other side,
    # whose arguments can no longer be in and, under an in one, must end out.
    names = [f"a{i:02d}" for i in range(20)]
    expected = [((), (), tuple(names))]
    if shape == "mutual-K10,10":
        sides = names[:10], names[10:]
        expected += [(tuple(one), tuple(other), ()) for one, other in (sides, sides[::-1])]
    elif shape == "mutual-clique":
        expected += [((a,), tuple(b for b in names if b != a), ()) for a in names]
    assert _enumeration_work(shape) == (expected, ENUMERATION_WORK[shape])


@pytest.mark.parametrize("seed", ["0", "1"])
def test_enumeration_work_is_the_same_under_every_hash_seed(seed):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = "import test_semantics as t; print([t._enumeration_work(s)[1] for s in t.ENUMERATION_WORK])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert ast.literal_eval(done.stdout) == list(ENUMERATION_WORK.values())


def test_enumeration_matches_exhaustive_scan():
    rng = random.Random(21)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(0, 6), rng.random())
        names = sorted(fw.arguments)
        expected = set()
        for combo in itertools.product((IN, OUT, UNDEC), repeat=len(names)):
            lab = Labelling.from_map(dict(zip(names, combo)))
            if is_complete(fw, lab):
                expected.add(as_triple(lab))
        assert {as_triple(l) for l in enumerate_complete(fw)} == expected


def test_all_enumerated_labellings_are_complete():
    rng = random.Random(22)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(0, 8), rng.random() * 0.5)
        for lab in enumerate_complete(fw):
            assert is_complete(fw, lab)


def test_grounded_is_among_complete_labellings():
    rng = random.Random(23)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(0, 8), rng.random() * 0.5)
        grounded = reference_grounded(fw)
        assert is_complete(fw, grounded)
        assert as_triple(grounded) in {as_triple(l) for l in enumerate_complete(fw)}


def test_is_complete_invariant_under_renaming():
    rng = random.Random(24)
    for _ in range(40):
        fw = random_framework(rng, rng.randrange(1, 7), rng.random())
        names = sorted(fw.arguments)
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, (f"r{n}" for n in shuffled)))
        renamed = Framework(
            mapping.values(), [(mapping[s], mapping[t]) for s, t in fw.attacks]
        )
        labels = {n: rng.choice((IN, OUT, UNDEC)) for n in names}
        lab = Labelling.from_map(labels)
        renamed_lab = Labelling.from_map({mapping[n]: labels[n] for n in names})
        assert is_complete(fw, lab) == is_complete(renamed, renamed_lab)


def test_enumeration_output_is_sorted(example1):
    keys = [
        (tuple(sorted(l.in_args)), tuple(sorted(l.out_args)))
        for l in enumerate_complete(example1)
    ]
    assert keys == sorted(keys)


def test_label_answers_by_membership():
    lab = Labelling(in_args="a", out_args="b", undec_args="c")
    assert [lab.label(name) for name in "abc"] == [IN, OUT, UNDEC]
    with pytest.raises(UnknownArgumentError):
        lab.label("z")
