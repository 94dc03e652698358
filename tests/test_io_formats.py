import random

import pytest

from conftest import (
    EXAMPLE1_APX,
    REPEATED_KEY_LABELLINGS,
    random_framework,
    reference_parse_apx,
    random_labelling,
    random_order,
    write_order,
)
from prefarg import (
    Certificate,
    Decision,
    Framework,
    Labelling,
    ParseError,
    PreferenceOrder,
    UnknownArgumentError,
    emit_apx,
    emit_dot,
    emit_labelling,
    emit_result,
    parse_apx,
    parse_labelling,
    parse_order,
    parse_result,
)


# --- APX -------------------------------------------------------------------


def test_parse_apx_minimal():
    assert parse_apx("arg(a). arg(b). att(a,b).") == Framework("ab", [("a", "b")])


def test_parse_apx_example1(example1):
    assert parse_apx(EXAMPLE1_APX) == example1


def test_parse_apx_undeclared_argument():
    with pytest.raises(UnknownArgumentError):
        parse_apx("att(a,b).")


def test_parse_apx_duplicates_are_idempotent():
    text = "arg(a). arg(a). arg(b). att(a,b). att(a,b)."
    assert parse_apx(text) == Framework("ab", [("a", "b")])


def test_parse_apx_comments_and_blank_lines():
    text = "% header\n\narg(a).  % trailing\n% att(a,a).\n"
    assert parse_apx(text) == Framework("a")


def test_parse_apx_reports_line_number():
    with pytest.raises(ParseError) as info:
        parse_apx("arg(a).\nargh!\n")
    assert info.value.line == 2


def test_parse_apx_whitespace_tolerant():
    assert parse_apx("arg( a ).\natt( a , a ).") == Framework("a", [("a", "a")])


def test_parse_apx_names_the_junk_after_whitespace():
    with pytest.raises(ParseError) as info:
        parse_apx("arg(a).\narg(b). \t junk(b).\n")
    assert info.value.line == 2
    assert str(info.value) == "line 2: unrecognised content: 'junk(b).'"


def test_parse_apx_unicode_spaces_separate_facts():
    text = "arg(a).\u3000arg(b).\u00a0att(\u2003a ,b)\u3000."
    assert parse_apx(text) == Framework("ab", [("a", "b")])


def test_apx_round_trip_example1(example1):
    assert parse_apx(emit_apx(example1)) == example1


# Every line break of `str.splitlines`, and spaces that are not line breaks.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = ("", " ", "\t", "\u3000", "\xa0", "\u2003", "\x1f")
JUNK = ("junk", "arg(a", "att(a b).", "arg(a)", ")", ".", "arg(\xe9).", "x" * 50, "arg()", "att(a,b,c).")


def random_apx_text(rng: random.Random) -> str:
    """Facts, comments, line breaks and spaces, now and then a fact cut by a break or junk."""

    def space():
        return "".join(rng.choice(SPACES) for _ in range(rng.randrange(3)))

    def name():
        return rng.choice("abcd")

    # Half the texts declare every name first, so that more attacks stand.
    pieces = [f"arg({n}). " for n in "abcd"] if rng.random() < 0.5 else []
    for _ in range(rng.randrange(12)):
        roll = rng.random()
        if roll < 0.3:
            pieces.append(f"arg({space()}{name()}{space()}){space()}.")
        elif roll < 0.55:
            pieces.append(f"att({space()}{name()}{space()},{space()}{name()}{space()}){space()}.")
        elif roll < 0.65:
            pieces.append(f"%{rng.choice(('', ' arg(z).', ' junk %'))}")
        elif roll < 0.8:
            pieces.append(rng.choice(LINE_BREAKS))
        elif roll < 0.9:
            pieces.append(space() or " ")
        elif roll < 0.95:
            cut = rng.choice(("arg(", "arg(a", "att(a,", "att(a,b)"))
            pieces.append(f"{cut}{rng.choice(LINE_BREAKS)}{'a).' if cut == 'arg(' else 'b).'}")
        else:
            pieces.append(rng.choice(JUNK))
    return "".join(pieces)


def parse_outcome(parse, text: str):
    """The framework parsed, or the error's type, text and line."""
    try:
        return parse(text)
    except (ParseError, UnknownArgumentError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parse_apx_agrees_with_the_line_by_line_reference():
    rng = random.Random(9)
    kinds = set()
    for _ in range(4000):
        text = random_apx_text(rng)
        expected = parse_outcome(reference_parse_apx, text)
        assert parse_outcome(parse_apx, text) == expected, text
        kinds.add(type(expected) if isinstance(expected, Framework) else expected[0])
    assert kinds == {Framework, ParseError, UnknownArgumentError}


def test_parse_apx_agrees_with_the_reference_after_one_inserted_character():
    rng = random.Random(10)
    inserts = [c for c in SPACES if c] + list(LINE_BREAKS) + list("x(),.%\xe9")
    outcomes = set()
    for i in range(3000):
        text = random_apx_text(rng)
        while not isinstance(parse_outcome(reference_parse_apx, text), Framework):
            text = random_apx_text(rng)
        pos = rng.randrange(len(text) + 1)
        text = text[:pos] + inserts[i % len(inserts)] + text[pos:]
        expected = parse_outcome(reference_parse_apx, text)
        assert parse_outcome(parse_apx, text) == expected, text
        outcomes.add(type(expected) if isinstance(expected, Framework) else expected[0])
    assert outcomes == {Framework, ParseError, UnknownArgumentError}


def test_parse_apx_reads_every_line_break_of_splitlines():
    for brk in LINE_BREAKS:
        assert parse_apx(f"arg(a).{brk}%arg(b).{brk}att(a,a).") == Framework("a", [("a", "a")])
        with pytest.raises(ParseError) as info:
            parse_apx(f"arg(a).{brk}{brk}arg({brk}b).")
        assert str(info.value) == "line 3: unrecognised content: 'arg('"


def test_parse_apx_names_junk_up_to_a_comment_and_40_characters():
    with pytest.raises(ParseError) as info:
        parse_apx("arg(a).\r\n arg(b). arg(c %x).\n")
    assert str(info.value) == "line 2: unrecognised content: 'arg(c '"
    with pytest.raises(ParseError) as info:
        parse_apx("arg(a). " + "y" * 60)
    assert str(info.value) == f"line 1: unrecognised content: {'y' * 40!r}"


@pytest.mark.parametrize(
    "text, line, junk",
    [
        ("junk arg(a).\n", 1, "junk arg(a)."),
        ("arg(a). junk arg(b).\n", 1, "junk arg(b)."),
        ("arg(a).\narg(b).\n junk", 3, "junk"),
    ],
    ids=["before-the-facts", "between-facts", "after-the-facts"],
)
def test_parse_apx_refuses_junk_anywhere_around_the_facts(text, line, junk):
    with pytest.raises(ParseError) as info:
        parse_apx(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: unrecognised content: {junk!r}"


def test_parse_apx_pairs_attacks_across_interleaved_facts():
    text = "att(a,b). arg(b). att(b,a). arg(a). att(a,a)."
    assert parse_apx(text) == Framework("ab", [("a", "b"), ("b", "a"), ("a", "a")])


# --- labellings ------------------------------------------------------------


def test_parse_labelling_example1_extension():
    lab = parse_labelling('{"in":["a","d"],"out":["b","c"],"undec":[]}')
    assert lab == Labelling(in_args="ad", out_args="bc")


def test_parse_labelling_empty():
    assert parse_labelling('{"in":[],"out":[],"undec":[]}') == Labelling()


def test_parse_labelling_overlap_error():
    with pytest.raises(ParseError):
        parse_labelling('{"in":["a"],"out":["a"],"undec":[]}')


def test_parse_labelling_unknown_key_error():
    with pytest.raises(ParseError):
        parse_labelling('{"in":[],"out":[],"undec":[],"maybe":[]}')


@pytest.mark.parametrize("text", ["not json", '["a"]'], ids=["malformed", "not-an-object"])
def test_parse_labelling_bad_json(text):
    with pytest.raises(ParseError):
        parse_labelling(text)


@pytest.mark.parametrize(
    "parse, what",
    [
        (parse_labelling, "labelling"),
        (parse_result, "result"),
    ],
    ids=["labelling", "result"],
)
@pytest.mark.parametrize("text", ["not json", "[" * 200_000], ids=["malformed", "deeply_nested"])
def test_json_parsers_turn_malformed_or_deeply_nested_input_into_parse_errors(parse, what, text):
    with pytest.raises(ParseError, match=f"^{what} is not valid JSON: "):
        parse(text)


@pytest.mark.parametrize("text", REPEATED_KEY_LABELLINGS, ids=["complete", "overlapping"])
def test_parse_labelling_refuses_a_repeated_key(text):
    with pytest.raises(ParseError, match="^labelling repeats the JSON key 'in'$"):
        parse_labelling(text)


# --- orders ----------------------------------------------------------------


def test_parse_order_single_component():
    order = parse_order("a < b < c = d\n")
    assert order.classes == (frozenset("a"), frozenset("b"), frozenset("cd"))


def test_parse_order_multiple_components():
    order = parse_order("a < b\n% a comment line\nq = p\n")
    assert order.classes == (frozenset("a"), frozenset("b"), frozenset("pq"))


@pytest.mark.parametrize("text", ["a << b", "a < b\nb = c\n"], ids=["empty-name", "overlapping-classes"])
def test_parse_order_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_order(text)


def test_order_round_trip(example1):
    order = PreferenceOrder([("a",), ("b",), ("c", "d")])
    assert parse_order(write_order(order, example1)) == order


# --- DOT ---------------------------------------------------------------------


def test_emit_dot_single_green_node():
    fw = Framework("a")
    out = emit_dot(fw, Labelling(in_args="a"))
    assert out == "digraph framework {\n  a [style=filled fillcolor=green];\n}\n"


def test_emit_dot_example1_colours(example1):
    out = emit_dot(example1, Labelling(in_args="ad", out_args="bc"))
    assert "a [style=filled fillcolor=green]" in out
    assert "b [style=filled fillcolor=red]" in out
    assert "c [style=filled fillcolor=red]" in out
    assert "d [style=filled fillcolor=green]" in out


def test_emit_dot_unlabelled_nodes(example1):
    out = emit_dot(example1)
    assert "fillcolor" not in out
    assert "  a;" in out


def test_emit_dot_highlight_and_determinism(example1):
    first = emit_dot(example1, highlight=[("a", "b")])
    second = emit_dot(example1, highlight=[("a", "b")])
    assert first == second
    assert "a -> b [color=red];" in first


def test_emit_dot_quotes_keywords_and_names_led_by_a_digit():
    fw = Framework(["node", "1a", "graph", "Edge", "12", "a1"], [("1a", "graph"), ("node", "12")])
    out = emit_dot(fw, Labelling(in_args=["1a", "12", "a1", "Edge"], out_args=["graph", "node"]))
    assert out == (
        "digraph framework {\n"
        "  12 [style=filled fillcolor=green];\n"
        '  "1a" [style=filled fillcolor=green];\n'
        '  "Edge" [style=filled fillcolor=green];\n'
        "  a1 [style=filled fillcolor=green];\n"
        '  "graph" [style=filled fillcolor=red];\n'
        '  "node" [style=filled fillcolor=red];\n'
        '  "1a" -> "graph";\n'
        '  "node" -> 12;\n'
        "}\n"
    )
    assert '  "1a" -> "graph" [color=red];' in emit_dot(fw, highlight=[("1a", "graph")])


# --- results -----------------------------------------------------------------


def test_emit_result_yes_shape():
    decision = Decision(True, 1, witness=PreferenceOrder([("a",), ("b",)]))
    out = emit_result(decision)
    assert '"verdict": "yes"' in out
    assert '"witness": [["a"], ["b"]]' in out


def test_emit_result_no_shape():
    decision = Decision(False, 1, certificate=Certificate(3, ("x",), "no cycle"))
    out = emit_result(decision)
    assert '"condition": 3' in out
    assert '"witness": ["x"]' in out


def test_emit_result_text_forms():
    yes = Decision(True, 2, witness=PreferenceOrder([("a", "b")]))
    no = Decision(False, 4, certificate=Certificate(1, ("a",), "missing attacker"))
    assert emit_result(yes, fmt="text") == "YES (reduction 2) witness: a = b"
    assert emit_result(no, fmt="text").startswith("NO (reduction 4) condition 1")
    empty = Decision(True, 1, witness=PreferenceOrder([]))
    assert emit_result(empty, fmt="text") == "YES (reduction 1) witness: (empty order)"
    with pytest.raises(ValueError, match="unknown result format 'xml'"):
        emit_result(yes, fmt="xml")


def test_result_round_trip_random_decisions():
    rng = random.Random(71)
    for _ in range(200):
        if rng.random() < 0.5:
            classes = []
            pool = [f"w{i}" for i in range(rng.randrange(1, 6))]
            while pool:
                take = rng.randrange(1, len(pool) + 1)
                classes.append(frozenset(pool[:take]))
                pool = pool[take:]
            decision = Decision(True, rng.randrange(1, 5), witness=PreferenceOrder(classes))
        else:
            cert = Certificate(
                rng.randrange(1, 4),
                tuple(f"c{i}" for i in range(rng.randrange(1, 3))),
                rng.choice(("", "why not")),
            )
            decision = Decision(False, rng.randrange(1, 5), certificate=cert)
        assert parse_result(emit_result(decision)) == decision


@pytest.mark.parametrize(
    "text",
    [
        '{"verdict": "no", "reduction": 1, "certificate": {"witness": ["a"]}}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": 1, "witness": 5}}',
        '{"verdict": "no", "reduction": 1, "certificate": 5}',
        '{"verdict": "yes", "reduction": 1, "witness": 5}',
        '{"verdict": "yes", "reduction": 1, "witness": [5]}',
        '{"verdict": "yes", "reduction": 1, "witness": [["a"], ["a"]]}',
        '{"verdict": "yes", "reduction": 1, "witness": ["ab", "c"]}',
        '{"verdict": "yes", "reduction": 1, "witness": [["a", 5]]}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": "x", "witness": ["a"]}}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": 1.0, "witness": ["a"]}}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": true, "witness": ["a"]}}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": 1, "witness": [1]}}',
        '{"verdict": "no", "reduction": 1, "certificate": {"condition": 1}}',
    ],
)
def test_parse_result_malformed_witness_or_certificate(text):
    with pytest.raises(ParseError, match="malformed witness or certificate"):
        parse_result(text)


@pytest.mark.parametrize("text", ['["yes", 1]', '{"reduction": 1}', '{"verdict": "no"}'])
def test_parse_result_needs_an_object_with_verdict_and_reduction(text):
    with pytest.raises(ParseError, match="^result must be a JSON object with verdict and reduction$"):
        parse_result(text)


@pytest.mark.parametrize("verdict", ['"maybe"', '"YES"', "true", "1", "null"])
def test_parse_result_rejects_unknown_verdicts(verdict):
    with pytest.raises(ParseError, match="verdict"):
        parse_result(f'{{"verdict": {verdict}, "reduction": 1}}')


@pytest.mark.parametrize("reduction", ["0", "5", "9", "true", "false", "1.0", '"1"', "null"])
def test_parse_result_rejects_reductions_outside_one_to_four(reduction):
    with pytest.raises(ParseError, match="reduction"):
        parse_result(f'{{"verdict": "no", "reduction": {reduction}}}')


CERT = '{"condition": 1, "witness": ["a"]}'
NO = '{"verdict": "no", "reduction": 1, '


@pytest.mark.parametrize(
    "text",
    [
        NO + '"certificate": {"condition": 1, "witness": ["a"], "detail": 5}}',
        NO + '"certificate": {"condition": 1, "witness": ["a"], "detail": null}}',
        '{"verdict": "yes", "reduction": 1}',
        '{"verdict": "yes", "reduction": 1, "witness": null, "certificate": null}',
        '{"verdict": "yes", "reduction": 1, "certificate": ' + CERT + "}",
        '{"verdict": "yes", "reduction": 1, "witness": [["a"]], "certificate": ' + CERT + "}",
        NO + '"witness": [["a"]]}',
        NO + '"witness": [], "certificate": ' + CERT + "}",
    ],
)
def test_parse_result_rejects_payloads_that_contradict_the_verdict(text):
    with pytest.raises(ParseError, match="malformed witness or certificate"):
        parse_result(text)


@pytest.mark.parametrize(
    "text, key",
    [
        (NO + '"reduction": 2}', "reduction"),
        (NO + '"certificate": {"condition": 1, "witness": ["a"], "condition": 2}}', "condition"),
    ],
    ids=["top", "nested"],
)
def test_parse_result_refuses_a_repeated_key_at_any_depth(text, key):
    with pytest.raises(ParseError, match=f"^result repeats the JSON key '{key}'$"):
        parse_result(text)


def test_parse_result_accepts_a_no_without_certificate():
    # `prefarg oracle` prints a negative verdict without a certificate.
    assert parse_result('{"verdict": "no", "reduction": 2, "witness": null}') == Decision(False, 2)


def test_parse_result_ignores_timing():
    # Results written by earlier versions carry an `elapsed_ms` field.
    text = (
        '{"verdict": "yes", "reduction": 3, "witness": [["a"]], "certificate": null,'
        ' "elapsed_ms": 12.5}'
    )
    assert parse_result(text) == Decision(True, 3, witness=PreferenceOrder([("a",)]))


# --- canonical round trips over random objects -------------------------------


def test_round_trips_on_random_objects():
    rng = random.Random(72)
    for _ in range(150):
        fw = random_framework(rng, rng.randrange(0, 8), rng.random())
        assert parse_apx(emit_apx(fw)) == fw
        lab = random_labelling(rng, fw)
        assert parse_labelling(emit_labelling(lab)) == lab
        order = random_order(rng, fw)
        assert parse_order(write_order(order, fw)) == order
