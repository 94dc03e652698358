"""Property tests of the reduction-4 ranking and decider on small frameworks."""

import pytest

from conftest import ex4_certificate_holds, kleene_rank
from prefarg import Framework, Labelling, decide_ex4, grounded_labelling, rank, verify_witness

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NAMES = tuple("abcdefg")
PROPERTY_SETTINGS = hypothesis.settings(
    derandomize=True, max_examples=300, deadline=None, database=None
)


@st.composite
def instances(draw, labels=("in", "out", "undec")):
    """Up to 7 arguments, self-attacks and isolated arguments included, and a labelling.

    The labelling is random, or the grounded one with one or two labels
    redrawn, unless that uses a label outside `labels`.
    """
    names = NAMES[: draw(st.integers(0, len(NAMES)))]
    pairs = [(s, t) for s in names for t in names]
    framework = Framework(names, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    marks = draw(st.lists(st.sampled_from(labels), min_size=len(names), max_size=len(names)))
    label = dict(zip(names, marks))
    if names and draw(st.booleans()):
        redrawn = draw(st.sets(st.sampled_from(names), min_size=1, max_size=2))
        grounded = grounded_labelling(framework)
        label.update((a, grounded.label(a)) for a in names if a not in redrawn)
        if not set(label.values()) <= set(labels):
            label = dict(zip(names, marks))
    return framework, Labelling.from_map(label)


@PROPERTY_SETTINGS
@hypothesis.given(instances(labels=("in", "undec")))
def test_rank_is_the_kleene_fixpoint(instance):
    fw, lab = instance
    reference = kleene_rank(fw, lab.in_args, lab.undec_args)
    psi = rank(fw, lab)
    if max(reference.values(), default=0) > len(reference):
        assert psi is None
    else:
        assert psi == reference


@PROPERTY_SETTINGS
@hypothesis.given(instances())
def test_ex4_yes_witnesses_verify_and_no_certificates_hold(instance):
    fw, lab = instance
    decision = decide_ex4(fw, lab)
    if decision.yes:
        assert verify_witness(fw, lab, 4, decision.witness)
    else:
        assert ex4_certificate_holds(fw, lab, decision.certificate)
