import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import EXAMPLE1_APX, REPEATED_KEY_LABELLINGS, shared_chain
from prefarg import cli, emit_apx, emit_labelling, verify_witness
from prefarg.cli import main

TWO_ARG_APX = "arg(a). arg(b). att(a,b).\n"
L1_JSON = '{"in": [], "out": [], "undec": ["a", "b"]}\n'
L2_JSON = '{"in": ["b"], "out": ["a"], "undec": []}\n'
L3_JSON = '{"in": ["b"], "out": [], "undec": ["a"]}\n'
EXAMPLE1_COMPLETE_JSON = '{"in": ["a", "d"], "out": ["b", "c"], "undec": []}\n'


@pytest.fixture
def example1_files(tmp_path):
    fw = tmp_path / "example1.apx"
    fw.write_text(EXAMPLE1_APX)
    lab = tmp_path / "example1.json"
    lab.write_text(EXAMPLE1_COMPLETE_JSON)
    return fw, lab


@pytest.fixture
def two_arg_file(tmp_path):
    fw = tmp_path / "two.apx"
    fw.write_text(TWO_ARG_APX)
    return fw


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_decide_complete_instance_exits_zero(example1_files, capsys):
    fw, lab = example1_files
    code = main(["decide", "--framework", str(fw), "--labelling", str(lab), "--reduction", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "yes"
    assert "elapsed_ms" not in payload


def test_decide_negative_instance_exits_one(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l3.json", L3_JSON)
    code = main(["decide", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["condition"] == 1


def test_decide_missing_file_exits_two(tmp_path, capsys):
    code = main(
        ["decide", "--framework", str(tmp_path / "absent.apx"), "--labelling", str(tmp_path / "absent.json"), "--reduction", "1"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_decide_mismatched_labelling_exits_two(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "bad.json", '{"in": ["a"], "out": [], "undec": []}')
    code = main(["decide", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    assert code == 2


def test_decide_all_prints_matrix(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l1.json", L1_JSON)
    code = main(["decide", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "all"])
    assert code == 0  # reduction 3 answers yes
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    verdicts = {json.loads(line)["reduction"]: json.loads(line)["verdict"] for line in lines}
    assert verdicts == {1: "no", 2: "no", 3: "yes", 4: "no"}


def test_decide_all_exits_one_when_every_row_is_negative(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l3.json", L3_JSON)
    code = main(["decide", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "all"])
    assert code == 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_decide_text_format(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l2.json", L2_JSON)
    code = main(
        ["decide", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1", "--format", "text"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("YES (reduction 1) witness: a < b")


def test_solve_emits_verified_witness(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l2.json", L2_JSON)
    code = main(["solve", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == [["a"], ["b"]]


def test_solve_on_complete_instance_emits_trivial_witness(example1_files, capsys):
    fw, lab = example1_files
    code = main(["solve", "--framework", str(fw), "--labelling", str(lab), "--reduction", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"] == [["a", "b", "c", "d"]]


@pytest.mark.parametrize("command", ["decide", "solve"])
def test_solve_refuses_an_unverified_witness(tmp_path, two_arg_file, capsys, monkeypatch, command):
    from prefarg import Decision, PreferenceOrder
    from prefarg.solvers import DECIDERS

    def broken_decider(checks):
        return Decision(True, 1, witness=PreferenceOrder([("a", "b")]))

    monkeypatch.setitem(DECIDERS, 1, broken_decider)
    lab = write(tmp_path, "l2.json", L2_JSON)
    code = main([command, "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal error" in captured.err


@pytest.mark.parametrize("witness", ["equals", None])
def test_oracle_refuses_an_unverified_witness(tmp_path, two_arg_file, capsys, monkeypatch, witness):
    from prefarg import PreferenceOrder

    # Under the order of equals the target keeps its out argument without an in attacker.
    order = PreferenceOrder([("a", "b")]) if witness == "equals" else None
    monkeypatch.setattr(cli, "brute_force_ex", lambda framework, labelling, reduction: (True, order))
    lab = write(tmp_path, "l2.json", L2_JSON)
    code = main(["oracle", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal error" in captured.err


@pytest.mark.parametrize(("complete", "verified"), [(True, [1]), (False, [1, 3])])
def test_solve_verifies_each_witness_object_once(
    tmp_path, example1_files, two_arg_file, capsys, monkeypatch, complete, verified
):
    # A complete labelling shares the order of equals among all four reductions;
    # otherwise each yes (reductions 1 and 3 on the two-argument instance) has its own.
    calls = []

    def counted(framework, labelling, reduction, order):
        calls.append(reduction)
        return verify_witness(framework, labelling, reduction, order)

    monkeypatch.setattr(cli, "verify_witness", counted)
    fw, lab = example1_files if complete else (two_arg_file, write(tmp_path, "l2.json", L2_JSON))
    code = main(["solve", "--framework", str(fw), "--labelling", str(lab), "--reduction", "all"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert calls == verified


def test_solve_negative_instance_has_no_witness(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l3.json", L3_JSON)
    code = main(["solve", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "4"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["witness"] is None


def test_reduce_reproduces_removal_figure(tmp_path, example1_files, capsys):
    fw, _ = example1_files
    order = write(tmp_path, "order.txt", "a < b < c = d\n")
    code = main(["reduce", "--framework", str(fw), "--order", str(order), "--reduction", "4"])
    assert code == 0
    out = capsys.readouterr().out
    attack_lines = [l for l in out.splitlines() if l.startswith("att")]
    assert attack_lines == ["att(c,a).", "att(c,b).", "att(c,d).", "att(d,c)."]


def test_reduce_all_equivalent_is_identity(tmp_path, example1_files, capsys):
    from prefarg import emit_apx, parse_apx

    fw, _ = example1_files
    order = write(tmp_path, "order.txt", "a = b = c = d\n")
    code = main(["reduce", "--framework", str(fw), "--order", str(order), "--reduction", "2"])
    assert code == 0
    assert capsys.readouterr().out == emit_apx(parse_apx(EXAMPLE1_APX))


def test_reduce_rejects_order_missing_an_argument(tmp_path, example1_files, capsys):
    fw, _ = example1_files
    order = write(tmp_path, "order.txt", "a < b < c\n")
    code = main(["reduce", "--framework", str(fw), "--order", str(order), "--reduction", "1"])
    assert code == 2


# `node` is a DOT keyword and `1a` starts with a digit, so DOT needs both quoted.
@pytest.mark.parametrize(
    "apx, order_text, expected",
    [
        (EXAMPLE1_APX, "a = b = c = d\n", ["  a;", "  a -> b;"]),
        (
            "arg(node). arg(1a). arg(b). att(node,1a). att(1a,b). att(b,node).\n",
            "b = node = 1a\n",
            ['  "node";', '  "1a";', '  "node" -> "1a";'],
        ),
    ],
    ids=["example1", "quoted"],
)
def test_reduce_dot_output(tmp_path, capsys, apx, order_text, expected):
    fw = write(tmp_path, "fw.apx", apx)
    order = write(tmp_path, "order.txt", order_text)
    code = main(["reduce", "--framework", str(fw), "--order", str(order), "--reduction", "1", "--dot"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert out.startswith("digraph framework {\n")
    assert set(expected) <= set(out.splitlines())


def test_labellings_example1(example1_files, capsys):
    fw, _ = example1_files
    code = main(["labellings", "--framework", str(fw)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[1]) == {"in": ["a", "d"], "out": ["b", "c"], "undec": []}


def test_labellings_single_unattacked(tmp_path, capsys):
    fw = write(tmp_path, "one.apx", "arg(a).\n")
    code = main(["labellings", "--framework", str(fw)])
    assert code == 0
    assert capsys.readouterr().out.strip() == '{"in": ["a"], "out": [], "undec": []}'


def apx_text(names, attacks):
    return "".join(f"arg({n}).\n" for n in names) + "".join(f"att({s},{t}).\n" for s, t in attacks)


def chain_apx(size):
    names = [f"a{i}" for i in range(size)]
    return apx_text(names, zip(names, names[1:]))


def test_labellings_above_cap_exits_two(tmp_path, capsys):
    fw = write(tmp_path, "chain.apx", chain_apx(21))
    code = main(["labellings", "--framework", str(fw)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: enumeration over 21 arguments exceeds the cap of 20\n"


def test_oracle_matches_decide(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l1.json", L1_JSON)
    code = main(["oracle", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "yes"
    code = main(["oracle", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    assert code == 1


def test_oracle_text_no_verdict_says_no_order_works(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "l2.json", L2_JSON)
    argv = ["oracle", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "4"]
    assert main(argv + ["--format", "text"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NO (reduction 4) no CC-wise order makes the labelling complete\n"
    assert "Traceback" not in captured.err
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        '{"verdict": "no", "reduction": 4, "witness": null, "certificate": null}\n'
    )


def test_oracle_respects_size_cap(tmp_path, capsys):
    fw = write(tmp_path, "chain.apx", chain_apx(9))
    lab = write(tmp_path, "chain.json", json.dumps({"undec": [f"a{i}" for i in range(9)]}))
    code = main(["oracle", "--framework", str(fw), "--labelling", str(lab), "--reduction", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: component of 9 arguments exceeds the cap of 8\n"


def test_oracle_refuses_two_disjoint_six_cycles(tmp_path, capsys):
    names = [f"{side}{i}" for side in "pq" for i in range(6)]
    attacks = [(f"{side}{i}", f"{side}{(i + 1) % 6}") for side in "pq" for i in range(6)]
    fw = write(tmp_path, "cycles.apx", apx_text(names, attacks))
    lab = write(tmp_path, "cycles.json", json.dumps({"in": names}))
    code = main(["oracle", "--framework", str(fw), "--labelling", str(lab), "--reduction", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 21930489 orders over 2 components exceed")
    assert captured.err.count("\n") == 1


def test_gen_empty_framework(capsys):
    code = main(["gen", "--args", "0", "--attack-prob", "0.5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "arg(" not in out


def test_gen_full_probability_gives_complete_digraph(capsys):
    code = main(["gen", "--args", "4", "--attack-prob", "1", "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("att(") == 16
    assert "att(a0,a0)." in out


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--args", "6", "--attack-prob", "0.4", "--seed", "123", "--labelling-mode", "random"]
    paths = []
    for run in ("one", "two"):
        fw = tmp_path / f"{run}.apx"
        lab = tmp_path / f"{run}.json"
        code = main([*argv, "--framework-out", str(fw), "--labelling-out", str(lab)])
        assert code == 0
        paths.append((fw.read_bytes(), lab.read_bytes()))
    assert paths[0] == paths[1]
    # Without either path, stdout holds the framework, a blank line and the labelling.
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == paths[0][0] + b"\n" + paths[0][1]


def test_gen_complete_mode_emits_a_complete_labelling(tmp_path):
    fw = tmp_path / "g.apx"
    lab = tmp_path / "g.json"
    code = main(
        [
            "gen", "--args", "5", "--attack-prob", "0.5", "--seed", "7",
            "--labelling-mode", "complete",
            "--framework-out", str(fw), "--labelling-out", str(lab),
        ]
    )
    assert code == 0
    from prefarg import is_complete, parse_apx, parse_labelling

    framework = parse_apx(fw.read_text())
    labelling = parse_labelling(lab.read_text())
    assert is_complete(framework, labelling)


def test_gen_complete_mode_above_the_cap_exits_two_and_writes_nothing(tmp_path, capsys):
    fw, lab = tmp_path / "g.apx", tmp_path / "g.json"
    code = main(
        [
            "gen", "--args", "21", "--attack-prob", "0.2", "--seed", "1",
            "--labelling-mode", "complete",
            "--framework-out", str(fw), "--labelling-out", str(lab),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: enumeration over 21 arguments exceeds the cap of 20\n"
    assert not fw.exists() and not lab.exists()


def test_gen_refuses_a_labelling_path_without_a_labelling_mode(tmp_path, capsys):
    lab = tmp_path / "g.json"
    code = main(["gen", "--args", "3", "--attack-prob", "0.5", "--seed", "1", "--labelling-out", str(lab)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --labelling-out needs --labelling-mode\n"
    assert not lab.exists()


def test_gen_refuses_one_path_for_both_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "gen", "--args", "3", "--attack-prob", "0.5", "--seed", "1", "--labelling-mode", "random",
            "--framework-out", "g.out", "--labelling-out", str(tmp_path / "g.out"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --framework-out and --labelling-out name the same file\n"
    assert not (tmp_path / "g.out").exists()


@pytest.mark.parametrize(
    "count, prob, message",
    [("3", "1.5", "--attack-prob must lie in [0, 1]"), ("-1", "0.5", "--args must be nonnegative")],
    ids=["probability", "negative-count"],
)
def test_gen_rejects_a_bad_probability_or_a_negative_count(capsys, count, prob, message):
    code = main(["gen", "--args", count, "--attack-prob", prob, "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_batch_mode_pairs_by_stem(tmp_path, capsys):
    fdir = tmp_path / "frameworks"
    ldir = tmp_path / "labellings"
    fdir.mkdir()
    ldir.mkdir()
    (fdir / "one.apx").write_text(TWO_ARG_APX)
    (ldir / "one.json").write_text(L1_JSON)
    (fdir / "two.apx").write_text(TWO_ARG_APX)
    (ldir / "two.json").write_text(L2_JSON)
    (fdir / "orphan.apx").write_text(TWO_ARG_APX)
    code = main(["decide", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "all"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert len(lines) == 8
    assert {l["instance"] for l in lines} == {"one", "two"}
    assert "orphan" in captured.err


@pytest.mark.parametrize(
    "labelling, extra, message",
    [
        ("labellings", ["--format", "text"], "--format text"),
        ("labellings/one.json", [], "needs both --framework and --labelling directories"),
        ("others", [], "no instances paired by filename stem"),
    ],
    ids=["text-format", "one-file", "no-pairs"],
)
def test_batch_mode_refuses_text_format_a_file_or_no_pairs(tmp_path, capsys, labelling, extra, message):
    fdir = tmp_path / "frameworks"
    ldir = tmp_path / "labellings"
    others = tmp_path / "others"
    for directory in (fdir, ldir, others):
        directory.mkdir()
    (fdir / "one.apx").write_text(TWO_ARG_APX)
    (ldir / "one.json").write_text(L1_JSON)
    (others / "two.json").write_text(L1_JSON)
    for command in ("decide", "solve"):
        argv = [command, "--framework", str(fdir), "--labelling", str(tmp_path / labelling), "--reduction", "all"]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and message in captured.err


def test_batch_mode_reports_a_bad_pair_and_goes_on(tmp_path, capsys):
    fdir = tmp_path / "frameworks"
    ldir = tmp_path / "labellings"
    fdir.mkdir()
    ldir.mkdir()
    (fdir / "bad.apx").write_text("arg(a). this is not APX\n")
    (ldir / "bad.json").write_text(L1_JSON)
    (fdir / "good.apx").write_text(TWO_ARG_APX)
    (ldir / "good.json").write_text(L2_JSON)
    code = main(["solve", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "1"])
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert code == 2
    assert len(lines) == 2
    assert lines[0]["instance"] == "bad"
    assert "unrecognised content" in lines[0]["error"]
    assert lines[1]["instance"] == "good"
    assert lines[1]["verdict"] == "yes"


def test_batch_lines_are_the_single_file_lines_led_by_the_instance(tmp_path, capsys):
    fdir = tmp_path / "frameworks"
    ldir = tmp_path / "labellings"
    fdir.mkdir()
    ldir.mkdir()
    pairs = {
        "one": (EXAMPLE1_APX, '{"in": ["d"], "out": ["c"], "undec": ["a", "b"]}'),
        "two": (TWO_ARG_APX, L3_JSON),
    }
    expected = []
    for stem, (apx, lab) in pairs.items():
        (fdir / f"{stem}.apx").write_text(apx)
        (ldir / f"{stem}.json").write_text(lab)
        argv = ["--framework", str(fdir / f"{stem}.apx"), "--labelling", str(ldir / f"{stem}.json")]
        main(["solve", *argv, "--reduction", "all"])
        for line in capsys.readouterr().out.splitlines():
            expected.append(json.dumps({"instance": stem, **json.loads(line)}))
    main(["solve", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "all"])
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_solve_prints_the_same_bytes_on_every_run(tmp_path, capsys, fmt):
    fw = write(tmp_path, "example1.apx", EXAMPLE1_APX)
    lab = write(tmp_path, "l.json", '{"in": ["d"], "out": ["c"], "undec": ["a", "b"]}')
    argv = ["solve", "--framework", str(fw), "--labelling", str(lab), "--reduction", "all", "--format", fmt]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, capsys.readouterr().out.encode()))
    assert runs[0] == runs[1]
    assert runs[0][1].count(b"\n") == 4


DEEP_JSON = "[" * 200_000


def test_solve_deeply_nested_labelling_exits_two(tmp_path, two_arg_file, capsys):
    lab = write(tmp_path, "deep.json", DEEP_JSON)
    code = main(["solve", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: labelling is not valid JSON")
    assert "Traceback" not in err


def test_batch_mode_reports_a_deeply_nested_labelling_and_goes_on(tmp_path, capsys):
    fdir = tmp_path / "frameworks"
    ldir = tmp_path / "labellings"
    fdir.mkdir()
    ldir.mkdir()
    (fdir / "deep.apx").write_text(TWO_ARG_APX)
    (ldir / "deep.json").write_text(DEEP_JSON)
    (fdir / "good.apx").write_text(TWO_ARG_APX)
    (ldir / "good.json").write_text(L2_JSON)
    code = main(["solve", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "1"])
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert code == 2
    assert [l["instance"] for l in lines] == ["deep", "good"]
    assert "labelling is not valid JSON" in lines[0]["error"]
    assert lines[1]["verdict"] == "yes"


@pytest.mark.parametrize("text", REPEATED_KEY_LABELLINGS, ids=["complete", "overlapping"])
def test_solve_refuses_a_labelling_with_a_repeated_key(tmp_path, two_arg_file, capsys, text):
    lab = write(tmp_path, "repeated.json", text)
    code = main(["solve", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "all"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: labelling repeats the JSON key 'in'\n"


@pytest.mark.parametrize(
    "command, apx, flag, text",
    [
        ("solve", apx_text([f"a{i}" for i in range(100_000)], []), "--labelling", "{}"),
        ("solve", TWO_ARG_APX, "--labelling", json.dumps({f"k{i}": [] for i in range(20_000)})),
        ("reduce", EXAMPLE1_APX, "--order", "a < " + "!" * 300_000 + "\n"),
        ("solve", TWO_ARG_APX, "--labelling", '{"%s": [], "%s": []}' % ("x" * 300_000, "x" * 300_000)),
        ("solve", f"arg(a). att({'x' * 300_000},a).\n", "--labelling", L2_JSON),
    ],
    ids=[
        "unlabelled-arguments",
        "unknown-labelling-keys",
        "bad-order-name",
        "repeated-key",
        "unknown-endpoint",
    ],
)
def test_an_input_error_is_one_short_line(tmp_path, capsys, command, apx, flag, text):
    fw, other = write(tmp_path, "f.apx", apx), write(tmp_path, "other", text)
    code = main([command, "--framework", str(fw), flag, str(other), "--reduction", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300


def test_exhaustive_small_cli_agreement(tmp_path, capsys):
    # decide and oracle must agree cell by cell on a small instance matrix
    fw = write(tmp_path, "fw.apx", TWO_ARG_APX)
    codes = set()
    for name, text in (("l1", L1_JSON), ("l2", L2_JSON), ("l3", L3_JSON)):
        lab = write(tmp_path, f"{name}.json", text)
        for reduction in "1234":
            decide_code = main(
                ["decide", "--framework", str(fw), "--labelling", str(lab), "--reduction", reduction]
            )
            oracle_code = main(
                ["oracle", "--framework", str(fw), "--labelling", str(lab), "--reduction", reduction]
            )
            capsys.readouterr()
            assert decide_code == oracle_code
            codes.add(oracle_code)
    assert codes == {0, 1}


NOT_UTF8 = b"\xff"


def test_solve_non_utf8_framework_exits_two(tmp_path, capsys):
    fw = tmp_path / "bad.apx"
    fw.write_bytes(NOT_UTF8)
    lab = write(tmp_path, "l1.json", L1_JSON)
    code = main(["solve", "--framework", str(fw), "--labelling", str(lab), "--reduction", "1"])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_oracle_non_utf8_labelling_exits_two(tmp_path, two_arg_file, capsys):
    lab = tmp_path / "bad.json"
    lab.write_bytes(b'{"in": [], "out": [], "undec": ["a", "b"]}' + NOT_UTF8)
    code = main(["oracle", "--framework", str(two_arg_file), "--labelling", str(lab), "--reduction", "1"])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_reduce_non_utf8_order_exits_two(tmp_path, example1_files, capsys):
    fw, _ = example1_files
    order = tmp_path / "order.txt"
    order.write_bytes(b"a = b = c = d" + NOT_UTF8)
    code = main(["reduce", "--framework", str(fw), "--order", str(order), "--reduction", "1"])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


BOM = "\ufeff"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_solve_reads_files_with_a_byte_order_mark_and_crlf_line_breaks(tmp_path, capsys, fmt):
    runs = []
    for marked in (False, True):
        prefix, newline = (BOM, "\r\n") if marked else ("", "\n")
        fw = write(tmp_path, f"fw{marked}.apx", prefix + EXAMPLE1_APX.replace("\n", newline))
        lab = write(tmp_path, f"l{marked}.json", prefix + EXAMPLE1_COMPLETE_JSON.replace("\n", newline))
        argv = ["--framework", str(fw), "--labelling", str(lab), "--reduction", "all", "--format", fmt]
        code = main(["solve", *argv])
        out = capsys.readouterr().out
        runs.append((code, out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_batch_mode_reads_files_with_a_byte_order_mark(tmp_path, capsys):
    runs = []
    for prefix in ("", BOM):
        fdir, ldir = tmp_path / f"f{len(prefix)}", tmp_path / f"l{len(prefix)}"
        fdir.mkdir()
        ldir.mkdir()
        for stem, labelling in (("one", L1_JSON), ("two", L2_JSON)):
            (fdir / f"{stem}.apx").write_text(prefix + TWO_ARG_APX, encoding="utf-8")
            (ldir / f"{stem}.json").write_text(prefix + labelling, encoding="utf-8")
        code = main(["solve", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "all"])
        runs.append((code, capsys.readouterr().out.splitlines()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert len(runs[0][1]) == 8


def test_gen_refuses_args_above_the_cap_at_once(capsys):
    from prefarg.cli import GEN_ARGS_CAP

    for size in (GEN_ARGS_CAP + 1, 1_000_000):
        started = time.perf_counter()
        code = main(["gen", "--args", str(size), "--attack-prob", "0.5", "--seed", "1"])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert f"cap of {GEN_ARGS_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("count, prob", [("1001", "1"), ("2000", "0.26"), ("5000", "0.5")])
def test_gen_refuses_more_attacks_than_its_budget_at_once(tmp_path, capsys, count, prob):
    from prefarg.cli import GEN_ATTACK_BUDGET

    fw = tmp_path / "g.apx"
    started = time.perf_counter()
    code = main(["gen", "--args", count, "--attack-prob", prob, "--seed", "1", "--framework-out", str(fw)])
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"attacks, above the budget of {GEN_ATTACK_BUDGET}\n")
    assert not fw.exists()


def test_module_entry_point_decides(tmp_path, two_arg_file):
    lab = write(tmp_path, "l2.json", L2_JSON)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "prefarg.cli", "decide", "--framework", str(two_arg_file),
         "--labelling", str(lab), "--reduction", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"verdict": "yes", "reduction": 1, "witness": [["a"], ["b"]], "certificate": None}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(
    tmp_path, two_arg_file, capsys, monkeypatch, enabled
):
    """Paused inside the call; restored on exit 0, 1 and 2 and on argparse's SystemExit."""
    seen = []
    decide_all = cli.decide_all

    def watched(*args):
        seen.append(gc.isenabled())
        return decide_all(*args)

    monkeypatch.setattr(cli, "decide_all", watched)
    solve = ["solve", "--framework", str(two_arg_file), "--reduction", "1", "--labelling"]
    runs = [
        ([*solve, str(write(tmp_path, "l2.json", L2_JSON))], 0),
        ([*solve, str(write(tmp_path, "l3.json", L3_JSON))], 1),
        ([*solve, str(tmp_path / "absent.json")], 2),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert (main(argv), gc.isenabled()) == (code, enabled)
        with pytest.raises(SystemExit):
            main(["solve", "--reduction", "9"])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
    capsys.readouterr()


def test_a_paused_batch_leaves_the_collector_nothing_per_instance(tmp_path, capsys):
    """What `gc.collect()` finds after a batch run with the collector paused is the same for one
    pair as for twenty, malformed pairs among them, so a long batch cannot pile up cycles."""
    chain, chain_labelling = shared_chain(3, 6, closed=True)[:2]
    kinds = [
        (emit_apx(chain), emit_labelling(chain_labelling)),
        (EXAMPLE1_APX, EXAMPLE1_COMPLETE_JSON),
        (EXAMPLE1_APX, '{"in": ["d"], "out": ["c"], "undec": ["a", "b"]}'),
        (TWO_ARG_APX, L1_JSON),
        (TWO_ARG_APX, L2_JSON),
        (TWO_ARG_APX, L3_JSON),
        ("arg(a). this is not APX\n", L1_JSON),
        (TWO_ARG_APX, "{"),
        (TWO_ARG_APX, '{"in": ["a"]}'),
    ]

    def left_behind(count: int) -> int:
        fdir, ldir = tmp_path / f"f{count}", tmp_path / f"l{count}"
        fdir.mkdir()
        ldir.mkdir()
        for i in range(count):
            apx, lab = kinds[i % len(kinds)]
            (fdir / f"p{i:02d}.apx").write_text(apx)
            (ldir / f"p{i:02d}.json").write_text(lab)
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            main(["solve", "--framework", str(fdir), "--labelling", str(ldir), "--reduction", "all"])
            return gc.collect()
        finally:
            (gc.enable if was else gc.disable)()

    assert left_behind(1) == left_behind(20)
    out = capsys.readouterr().out
    assert '"instance": "p19"' in out and '"error"' in out
