import pytest

import prefarg
from prefarg import (
    Certificate,
    Decision,
    Framework,
    Labelling,
    PreferenceFunction,
    PreferenceOrder,
)

CERT_REPR = "Certificate(condition=2, witness=('b',), detail='x')"

# Each value type: a builder, its fields, and the repr of what it builds.
VALUES = [
    (
        lambda: Framework("a", [("a", "a")]),
        ("arguments", "attacks"),
        "Framework(arguments=frozenset({'a'}), attacks=frozenset({('a', 'a')}))",
    ),
    (
        lambda: Labelling("a", "b"),
        ("in_args", "out_args", "undec_args"),
        "Labelling(in_args=frozenset({'a'}), out_args=frozenset({'b'}), undec_args=frozenset())",
    ),
    (
        lambda: PreferenceOrder([["a"], ["b"]]),
        ("classes",),
        "PreferenceOrder(classes=(frozenset({'a'}), frozenset({'b'})))",
    ),
    (
        lambda: PreferenceFunction({("a", "b"): 1}),
        ("bits",),
        "PreferenceFunction(bits={('a', 'b'): 1})",
    ),
    (lambda: Certificate(2, ("b",), "x"), ("condition", "witness", "detail"), CERT_REPR),
    (
        lambda: Decision(False, 3, None, Certificate(2, ("b",), "x")),
        ("yes", "reduction", "witness", "certificate"),
        f"Decision(yes=False, reduction=3, witness=None, certificate={CERT_REPR})",
    ),
    (
        lambda: Decision(True, 1, PreferenceOrder([["a"], ["b"]])),
        ("yes", "reduction", "witness", "certificate"),
        "Decision(yes=True, reduction=1, witness=PreferenceOrder(classes="
        "(frozenset({'a'}), frozenset({'b'}))), certificate=None)",
    ),
]


@pytest.mark.parametrize(
    "build, fields, shown", VALUES, ids=[shown.split("(")[0] for _, _, shown in VALUES]
)
def test_value_types_compare_by_fields_print_as_their_constructor_and_refuse_writes(
    build, fields, shown
):
    value, twin = build(), build()
    assert value is not twin and value == twin and not value != twin
    if isinstance(value, PreferenceFunction):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    assert repr(value) == shown
    assert eval(repr(value), vars(prefarg)) == value
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == twin and repr(value) == shown


def test_certificates_and_decisions_are_named_tuples():
    assert Certificate(1, ("a",)) == (1, ("a",), "")
    assert Decision(True, 2) == (True, 2, None, None)
    assert Decision(False, 4).verdict == "no"
