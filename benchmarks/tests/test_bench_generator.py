"""The generator is deterministic and its planted answers are right."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import generator as g  # noqa: E402
from prefarg import brute_force_ex, parse_apx, parse_labelling  # noqa: E402


def _bytes(instances):
    return [(inst.name, inst.apx(), inst.labelling_json()) for inst in instances]


def test_same_seed_gives_byte_identical_instances():
    for build in (
        lambda seed: g.planted_yes(seed, count=8, sizes=(30, 90)),
        lambda seed: g.near_miss_batch(seed, count=4, sizes=(30, 90)),
        g.oracle_small,
    ):
        assert _bytes(build(7)) == _bytes(build(7))
        assert _bytes(build(7)) != _bytes(build(8))


def test_generate_records_instance_statistics():
    for inst in g.generate("oracle-small", 3)[:10]:
        assert inst.stats["n"] == len(inst.arguments)
        assert inst.stats["m"] == len(inst.attacks)
        assert 0 <= inst.stats["undec_share"] <= 1
        assert inst.stats["largest_undec_block"] <= inst.stats["n"]


def test_grounded_matches_the_fixpoint_definition():
    rng = random.Random(1)
    for _ in range(50):
        names = [f"x{i}" for i in range(6)]
        attacks = {(rng.choice(names), rng.choice(names)) for _ in range(8)}
        label = g.grounded(names, attacks)
        assert g.is_complete(names, attacks, label)
        # Least fixpoint: nothing unattacked is left undec.
        attacked = {t for _, t in attacks}
        assert all(label[a] == "in" for a in names if a not in attacked)


def _oracle(inst, reduction):
    framework = parse_apx(inst.apx())
    labelling = parse_labelling(inst.labelling_json())
    found, _ = brute_force_ex(framework, labelling, reduction)
    return found


def test_small_planted_answers_agree_with_the_oracle():
    rng = random.Random(5)
    for trial in range(24):
        reduction = trial % 4 + 1
        n = 4 + trial % 2
        if reduction == 4 and trial % 8 == 3:
            inst = g.deep(rng, "d", n, 1.5)
        else:
            inst = g.tied(rng, "t", n, 1.5, 2 + trial % 3, reduction)
        assert inst.expected == "yes"
        assert _oracle(inst, inst.reduction)
        miss = g._with_retries(
            lambda: g.near_miss(rng, g.tied(rng, "m", n, 1.5, 3, reduction))
        )
        assert miss.expected == "no"
        for index in (1, 2, 3, 4):
            assert not _oracle(miss, index)


def test_oracle_small_answers_agree_with_the_oracle():
    instances = g.oracle_small(2)[:40]
    assert {inst.expected for inst in instances} == {"yes", "no"}
    for inst in instances:
        assert _oracle(inst, inst.reduction) == (inst.expected == "yes")
