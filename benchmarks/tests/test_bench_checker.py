"""The output checker accepts right answers and rejects corrupted ones."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import generator as g  # noqa: E402
from checker import output_problem, witness_problem  # noqa: E402
from prefarg.cli import main  # noqa: E402

# a attacks b; under reduction 1, a < b reflects the attack, so b is in.
TWO = g.Instance("two", ["a", "b"], [("a", "b")], {"a": "out", "b": "in"}, 1, "yes", "tied")


def _line(verdict, witness, reduction=1):
    return json.dumps({"verdict": verdict, "reduction": reduction, "witness": witness})


def test_valid_witness_is_accepted():
    assert witness_problem(TWO, [["a"], ["b"]], 1) is None
    assert output_problem(TWO, _line("yes", [["a"], ["b"]]), 0, batch=False) is None


def test_corrupted_witnesses_are_rejected():
    for witness in ([["b"], ["a"]], [["a", "b"]], [["a"]], [["a"], ["a", "b"]], [[], ["a", "b"]]):
        assert witness_problem(TWO, witness, 1) is not None
    assert output_problem(TWO, _line("no", None), 1, batch=False) is not None
    assert output_problem(TWO, _line("yes", [["a"], ["b"]]), 1, batch=False) is not None
    assert output_problem(TWO, _line("yes", [["a"], ["b"]], reduction=2), 0, batch=False)
    assert output_problem(TWO, "not json", 0, batch=False) is not None


def test_class_across_components_is_rejected():
    inst = g.Instance("split", ["a", "b", "c"], [("a", "b")], {"a": "in", "b": "out", "c": "in"},
                      4, "yes", "tied")
    assert witness_problem(inst, [["b"], ["a"], ["c"]], 4) is None
    assert witness_problem(inst, [["b"], ["a", "c"]], 4) is not None


def test_prefarg_output_passes_and_its_corruption_fails(tmp_path):
    for inst in g.planted_yes(4, count=4, sizes=(60, 120)):
        apx, lab = tmp_path / "f.apx", tmp_path / "l.json"
        apx.write_text(inst.apx())
        lab.write_text(inst.labelling_json())
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["solve", "--framework", str(apx), "--labelling", str(lab),
                         "--reduction", str(inst.reduction)])
        assert output_problem(inst, out.getvalue(), code, batch=False) is None
        payload = json.loads(out.getvalue())
        payload["witness"][0] = payload["witness"][0][1:]  # drop one argument
        payload["witness"] = [cls for cls in payload["witness"] if cls]
        assert output_problem(inst, json.dumps(payload), code, batch=False) is not None


def test_batch_lines_must_cover_every_reduction():
    inst = g.Instance("i000", ["a"], [], {"a": "out"}, 1, "no", "near-miss")
    lines = [json.dumps({"instance": "i000", "verdict": "no", "reduction": r}) for r in (1, 2, 3, 4)]
    assert output_problem(inst, "\n".join(lines), 0, batch=True) is None
    assert output_problem(inst, "\n".join(lines[:3]), 0, batch=True) is not None
    assert output_problem(inst, "\n".join(lines), 2, batch=True) is not None


def test_run_refuses_a_checkout_without_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for name in ("run.py", "generator.py", "checker.py", "worker.py", "tracing.py"):
        (copy / name).write_text((BENCH / name).read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "oracle-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
