"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The differential criteria share their instance sets through session fixtures.
"""

import itertools
import json
import random
import time

import pytest

from conftest import (
    EXAMPLE1_APX,
    enumerate_orders,
    is_valid_ranking,
    random_framework,
    random_labelling,
    random_order,
    write_order,
)
from prefarg import (
    IN,
    OUT,
    UNDEC,
    Framework,
    Labelling,
    brute_force_ex,
    decide,
    emit_apx,
    emit_labelling,
    parse_apx,
    parse_labelling,
    parse_order,
    verify_witness,
)
from prefarg.cli import main
from prefarg.preferences import order_to_pref_fn
from prefarg.reductions import graph_from_pref_fn, reduce
from prefarg.solvers import _rank_detail

RANK_FIGURE = Framework(
    "abcdef",
    [("b", "a"), ("f", "b"), ("e", "b"), ("c", "e"), ("d", "c"), ("e", "c")],
)
RANK_LABELLING = Labelling(in_args="abdf", undec_args="ce")


def _criterion(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {message}")
    assert ok, f"criterion {number} failed: {message}"


def _run_cells(instances):
    """Decider-vs-oracle agreement over (framework, labelling) instances."""
    mismatches = 0
    witness_failures = 0
    verdicts = []
    for framework, labelling in instances:
        row = {}
        for index in (1, 2, 3, 4):
            decision = decide(framework, labelling, index)
            expected, _ = brute_force_ex(framework, labelling, index)
            if decision.yes != expected:
                mismatches += 1
            if decision.yes and not verify_witness(
                framework, labelling, index, decision.witness
            ):
                witness_failures += 1
            row[index] = decision.yes
        verdicts.append(row)
    return mismatches, witness_failures, verdicts


@pytest.fixture(scope="session")
def exhaustive_run():
    names = ("a", "b", "c")
    pairs = [(s, t) for s in names for t in names]
    labellings = [
        Labelling.from_map(dict(zip(names, combo)))
        for combo in itertools.product((IN, OUT, UNDEC), repeat=3)
    ]
    instances = []
    for mask in range(512):
        framework = Framework(
            names, [pairs[i] for i in range(9) if mask >> i & 1]
        )
        instances.extend((framework, labelling) for labelling in labellings)
    started = time.perf_counter()
    mismatches, witness_failures, verdicts = _run_cells(instances)
    elapsed = time.perf_counter() - started
    return mismatches, witness_failures, verdicts, elapsed, len(instances)


@pytest.fixture(scope="session")
def randomized_run():
    rng = random.Random(20250810)
    names = ("a", "b", "c", "d")
    instances = []
    for _ in range(500):
        attacks = [(s, t) for s in names for t in names if rng.random() < 0.35]
        framework = Framework(names, attacks)
        labelling = Labelling.from_map(
            {n: rng.choice((IN, OUT, UNDEC)) for n in names}
        )
        instances.append((framework, labelling))
    started = time.perf_counter()
    mismatches, witness_failures, verdicts = _run_cells(instances)
    elapsed = time.perf_counter() - started
    return mismatches, witness_failures, verdicts, elapsed, len(instances)


def test_criterion_1_example1_enumeration(tmp_path, capsys):
    framework_file = tmp_path / "example1.apx"
    framework_file.write_text(EXAMPLE1_APX)
    started = time.perf_counter()
    code = main(["labellings", "--framework", str(framework_file)])
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.strip().splitlines()
    found = [json.loads(line) for line in lines]
    expected = [
        {"in": [], "out": [], "undec": ["a", "b", "c", "d"]},
        {"in": ["a", "d"], "out": ["b", "c"], "undec": []},
        {"in": ["c"], "out": ["a", "b", "d"], "undec": []},
    ]
    with capsys.disabled():
        _criterion(
            1,
            code == 0 and found == expected and elapsed < 1.0,
            f"3 complete labellings in {elapsed * 1000:.0f} ms",
        )


def test_criterion_2_figure_reductions(tmp_path, capsys):
    framework_file = tmp_path / "example1.apx"
    framework_file.write_text(EXAMPLE1_APX)
    order_file = tmp_path / "order.txt"
    order_file.write_text("a < b < c = d\n")
    expected = {
        1: {("b", "a"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
        2: {("a", "b"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
        3: {("a", "b"), ("b", "a"), ("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
        4: {("c", "a"), ("c", "b"), ("c", "d"), ("d", "c")},
    }
    started = time.perf_counter()
    ok = True
    for index in (1, 2, 3, 4):
        code = main(
            [
                "reduce",
                "--framework", str(framework_file),
                "--order", str(order_file),
                "--reduction", str(index),
            ]
        )
        produced = parse_apx(capsys.readouterr().out)
        ok = ok and code == 0 and produced.attacks == expected[index]
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _criterion(2, ok and elapsed < 1.0, f"four reductions exact in {elapsed * 1000:.0f} ms")


def test_criterion_3_rank_regression(capsys):
    started = time.perf_counter()
    psi = _rank_detail(RANK_FIGURE, RANK_LABELLING.in_args, RANK_LABELLING.undec_args)[0]
    annotated = {"a": 0, "b": 1, "f": 2, "e": 2, "c": 2, "d": 3}
    extended = Framework(
        RANK_FIGURE.arguments, set(RANK_FIGURE.attacks) | {("b", "d")}
    )
    negative = _rank_detail(extended, RANK_LABELLING.in_args, RANK_LABELLING.undec_args)[0]
    elapsed = time.perf_counter() - started
    ok = (
        psi is not None
        and is_valid_ranking(RANK_FIGURE, RANK_LABELLING, psi)
        and is_valid_ranking(RANK_FIGURE, RANK_LABELLING, annotated)
        and negative is None
        and elapsed < 1.0
    )
    with capsys.disabled():
        _criterion(3, ok, f"rank YES with valid ranking, NO after adding (b,d), {elapsed * 1000:.0f} ms")


def test_criterion_4_separation_matrix(capsys):
    framework = Framework("ab", [("a", "b")])
    rows = {
        "l1": Labelling(undec_args="ab"),
        "l2": Labelling(in_args="b", out_args="a"),
        "l3": Labelling(in_args="b", undec_args="a"),
    }
    started = time.perf_counter()
    agree = True
    matrix = {}
    for name, labelling in rows.items():
        decided = tuple(decide(framework, labelling, i).yes for i in (1, 2, 3, 4))
        oracle = tuple(brute_force_ex(framework, labelling, i)[0] for i in (1, 2, 3, 4))
        agree = agree and decided == oracle
        matrix[name] = decided
    elapsed = time.perf_counter() - started
    ok = (
        agree
        and matrix["l1"] == (False, False, True, False)
        and matrix["l2"] == (True, False, True, False)
        and matrix["l3"] == (False, False, False, False)
        and elapsed < 1.0
    )
    with capsys.disabled():
        _criterion(
            4,
            ok,
            "12 cells oracle-agreed; l1 only R3, l2 R1+R3; "
            "l3 pinned to the exhaustive oracle (all four negative)",
        )


def test_criterion_5_exhaustive_differential(exhaustive_run, capsys):
    mismatches, witness_failures, _, elapsed, count = exhaustive_run
    ok = mismatches == 0 and witness_failures == 0 and elapsed < 300.0
    with capsys.disabled():
        _criterion(
            5,
            ok,
            f"{count * 4} cells over 512 frameworks x 27 labellings, "
            f"{mismatches} mismatches, {witness_failures} unverified witnesses, "
            f"{elapsed:.1f} s",
        )


def test_criterion_6_randomized_differential(randomized_run, capsys):
    mismatches, witness_failures, _, elapsed, count = randomized_run
    ok = mismatches == 0 and witness_failures == 0 and elapsed < 600.0
    with capsys.disabled():
        _criterion(
            6,
            ok,
            f"{count} random 4-argument instances x 4 reductions, "
            f"{mismatches} mismatches, {witness_failures} unverified witnesses, "
            f"{elapsed:.1f} s",
        )


def test_criterion_7_corollary_relations(exhaustive_run, randomized_run, capsys):
    violations = 0
    total = 0
    for _, _, verdicts, _, _ in (exhaustive_run, randomized_run):
        for row in verdicts:
            total += 1
            holds = (
                row[2] == (row[1] and row[4]) == (row[3] and row[4])
                and (not row[1] or row[3])
            )
            if not holds:
                violations += 1
    with capsys.disabled():
        _criterion(7, violations == 0, f"{total} instances, {violations} violations")


def test_criterion_8_equivalence_propositions(capsys):
    started = time.perf_counter()
    mismatches = 0
    total = 0
    for size in range(4):
        names = ("a", "b", "c")[:size]
        pairs = [(s, t) for s in names for t in names]
        for mask in range(1 << len(pairs)):
            framework = Framework(
                names, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            )
            for order in enumerate_orders(framework):
                fn = order_to_pref_fn(framework, order)
                for index in (1, 2, 3, 4):
                    total += 1
                    if reduce(framework, order, index) != graph_from_pref_fn(
                        framework, fn, index
                    ):
                        mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 300.0
    with capsys.disabled():
        _criterion(8, ok, f"{total} comparisons, {mismatches} mismatches, {elapsed:.1f} s")


def test_criterion_9_polynomial_scale_smoke(tmp_path, capsys):
    framework_file = tmp_path / "big.apx"
    labelling_file = tmp_path / "big.json"
    code = main(
        [
            "gen", "--args", "1000", "--attack-prob", "0.005", "--seed", "424242",
            "--labelling-mode", "random",
            "--framework-out", str(framework_file),
            "--labelling-out", str(labelling_file),
        ]
    )
    assert code == 0
    framework = parse_apx(framework_file.read_text())
    labelling = parse_labelling(labelling_file.read_text())
    attack_count = len(framework.attacks)
    started = time.perf_counter()
    decisions = [decide(framework, labelling, i) for i in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - started
    ok = (
        len(framework.arguments) == 1000
        and 4000 <= attack_count <= 6000
        and all(d.yes or d.certificate is not None for d in decisions)
        and elapsed < 5.0
    )
    with capsys.disabled():
        _criterion(
            9,
            ok,
            f"1000 arguments, {attack_count} attacks, four reductions decided "
            f"in {elapsed:.2f} s",
        )


def test_criterion_10_io_round_trips(capsys):
    rng = random.Random(99)
    failures = 0
    for _ in range(1000):
        framework = random_framework(rng, rng.randrange(0, 9), rng.random())
        if parse_apx(emit_apx(framework)) != framework:
            failures += 1
        labelling = random_labelling(rng, framework)
        if parse_labelling(emit_labelling(labelling)) != labelling:
            failures += 1
        order = random_order(rng, framework)
        if parse_order(write_order(order, framework)) != order:
            failures += 1
    with capsys.disabled():
        _criterion(10, failures == 0, f"1000 frameworks/labellings/orders, {failures} failures")
