"""Deciding and verifying do work linear in n + m, counted in table reads, not timed.

The work on one instance is what `decide_all` under the four reductions and
the CLI's check of every yes witness (`cli._verified`) read from the attacker
and target tables, each read charged 1 plus the size of the set it returns
(`conftest.metered`). The count is the same on every machine and under
every hash seed, so a quadratic shows as work per (n + m) that grows with n.
Every shape's verdicts under the reductions it was planted for are checked
too.
"""

import random
import sys
from pathlib import Path

import pytest

from conftest import metered, shared_chain
from prefarg import Framework, Labelling, decide_all
from prefarg.cli import _verified

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import generator  # noqa: E402

SIZES = (1000, 2000, 4000, 8000)
RATIO = 1.5  # m / n of the random shapes
LEVELS = 3  # preference levels of the tied shapes
# Growth allowed per doubling of n: linear work doubles, up to the noise of
# drawing each size's graph afresh.
PER_DOUBLING = 2.1


def _planted(build, reductions=None):
    """The shape at size n as (framework, labelling, planted).

    `planted` maps each of `reductions`, by default the instance's own, to the
    generator's answer.
    """

    def instance(n):
        inst = build(random.Random(n), n)
        planted = dict.fromkeys(reductions or (inst.reduction,), inst.expected)
        return Framework(inst.arguments, inst.attacks), Labelling.from_map(inst.labelling), planted

    return instance


def _tied(reduction):
    return _planted(lambda rng, n: generator.tied(rng, "t", n, RATIO, LEVELS, reduction))


def _near_miss(rng, n):
    return generator._with_retries(
        lambda: generator.near_miss(rng, generator.tied(rng, "base", n, RATIO, LEVELS, 1))
    )


def _chain(closed):
    def instance(n):
        framework, labelling, _, _ = shared_chain(n // 8, n // 2, closed)
        return framework, labelling, {4: "yes"}  # as `shared_chain` plants it

    return instance


# Each shape's builder, its bound on the work per n + m (about 1.2 times the
# most it reads at any size) and its sizes.
SHAPES = {
    "tied-r1": (_tied(1), 10, SIZES),
    "tied-r3": (_tied(3), 8.5, SIZES),
    # Complete as planted: every reduction answers yes with the one order of
    # equals, which is verified once.
    "tied-r2": (_tied(2), 6, SIZES),
    "deep": (_planted(lambda rng, n: generator.deep(rng, "d", n, RATIO)), 9, SIZES),
    # The relabelled out argument has no in neighbour left, so all four answer no.
    "near-miss": (_planted(_near_miss, (1, 2, 3, 4)), 1.7, SIZES),
    "open-chain": (_chain(False), 18, SIZES),
    # At n = 4000 this shape alone takes seconds.
    "closed-chain": (_chain(True), 18, SIZES[:2]),
}


def _work(framework: Framework, labelling: Labelling) -> tuple[int, dict[int, str]]:
    """The work of deciding and verifying, and each reduction's verdict."""
    counted, meter = metered(framework)
    verdicts = {}
    for decision in _verified(counted, labelling, decide_all(counted, labelling, (1, 2, 3, 4))):
        verdicts[decision.reduction] = decision.verdict
    return meter[0], verdicts


@pytest.mark.parametrize(
    "shape",
    [
        *(shape for shape in SHAPES if shape != "closed-chain"),
        pytest.param(
            "closed-chain",
            marks=pytest.mark.xfail(
                strict=True,
                reason="reduction 4 re-walks the pending chain at every level (ROADMAP item 5)",
            ),
        ),
    ],
)
def test_work_is_linear_in_n_plus_m(shape):
    build, bound, sizes = SHAPES[shape]
    works = []
    for n in sizes:
        framework, labelling, planted = build(n)
        work, verdicts = _work(framework, labelling)
        assert {r: verdicts[r] for r in planted} == planted, n
        works.append(work)
        assert work <= bound * (len(framework.arguments) + len(framework.attacks)), n
    for n, smaller, larger in zip(sizes, works, works[1:]):
        assert larger <= PER_DOUBLING * smaller, n
