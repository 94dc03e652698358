"""Tracing wraps prefarg's call sites and puts the originals back."""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import generator as g  # noqa: E402
import prefarg.cli  # noqa: E402
import prefarg.solvers  # noqa: E402
from prefarg.framework import Framework  # noqa: E402
from tracing import FRAMEWORK_TARGETS, MODULE_TARGETS, Tracer  # noqa: E402


def _originals():
    import importlib

    found = [getattr(importlib.import_module(m), a) for m, a, _ in MODULE_TARGETS]
    found += [prefarg.solvers.DECIDERS[r] for r in sorted(prefarg.solvers.DECIDERS)]
    found += [Framework.__dict__[a] for a, _ in FRAMEWORK_TARGETS]
    return found


def test_wrappers_are_installed_and_restored(tmp_path):
    before = _originals()
    inst = g.planted_yes(2, count=4, sizes=(40, 60))[0]
    apx, lab = tmp_path / "f.apx", tmp_path / "l.json"
    apx.write_text(inst.apx())
    lab.write_text(inst.labelling_json())
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(_originals(), before))
        with redirect_stdout(io.StringIO()):
            prefarg.cli.main(["solve", "--framework", str(apx), "--labelling", str(lab),
                              "--reduction", str(inst.reduction)])
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(_originals(), before))
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary[f"solvers.ex{inst.reduction}"]["calls"] == 1
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    child = summary["inner"]["total_s"]
    assert abs(summary["outer"]["self_s"] - (summary["outer"]["total_s"] - child)) < 1e-9
    assert tracer.count_children("outer", "inner") == 2
    assert tracer.count_children("inner", "outer") == 0
