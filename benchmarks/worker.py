"""Runs one workload's prefarg calls in a process of its own.

Usage: python3 worker.py JOB.json (written by run.py). The worker imports
prefarg from the checkout's `src`, calls `prefarg.cli.main` once per
instance (or once per batch directory) in a closed loop, one call in
flight, and writes per-instance times, exit codes, captured output, peak
memory and, for a traced pass, the per-layer span summary to the job's
result path. Its own peak memory is the workload's, since the generator and
the checker run in the parent.
"""

import io
import json
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


# Timed inside a fresh interpreter: what every CLI call pays before reading
# its input. Launches are spread between the passes, so that a few seconds
# of a slow machine do not decide the median.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import prefarg.cli\n"
    "prefarg.cli._build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
SETUP_LAUNCHES_PER_GAP = 3


def _setup_samples(src: str) -> list[float]:
    samples = []
    for _ in range(SETUP_LAUNCHES_PER_GAP):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src],
            check=True, capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return samples


class CallTimeout(Exception):
    """A call ran past the job's per-call limit."""


def _on_alarm(signum, frame):
    raise CallTimeout()


class LineSink(io.TextIOBase):
    """Stdout replacement that timestamps every completed line."""

    def __init__(self, on_line=None):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""
        self._on_line = on_line

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        for line in parts:
            self.lines.append((now, line))
            if self._on_line is not None:
                self._on_line(len(self.lines))
        return len(text)

    def text(self) -> str:
        return "".join(line + "\n" for _, line in self.lines) + self._partial


def _call(cli, argv, timeout_s, on_line=None):
    """One CLI call with captured output; returns (exit, error, sink, start)."""
    sink, errors = LineSink(on_line), LineSink()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    started = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(errors):
            code, error = cli.main(argv), None
    except CallTimeout:
        code, error = None, f"timeout after {timeout_s} s"
    except Exception as exc:  # any traceback is an error of the program under test
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and code not in (0, 1):
        error = f"exit {code}: {errors.text().strip()[:200]}"
    return code, error, sink, started


def _single_pass(cli, job, tracer):
    records = []
    started = time.perf_counter()
    for index, (name, argv) in enumerate(zip(job["names"], job["calls"])):
        if tracer is not None:
            tracer.instance = index
        code, error, sink, t0 = _call(cli, argv, job["timeout_s"])
        elapsed = time.perf_counter() - t0
        records.append(
            {"name": name, "time_s": elapsed, "exit": code, "error": error, "stdout": sink.text()}
        )
    return records, time.perf_counter() - started


def _batch_pass(cli, job, tracer):
    """One batch call; an instance's time is the gap between its last line
    and the previous instance's last line."""
    per = job["lines_per_instance"]

    def on_line(count):
        if tracer is not None:
            tracer.instance = count // per

    if tracer is not None:
        tracer.instance = 0
    started = time.perf_counter()
    code, error, sink, t0 = _call(cli, job["batch"], job["timeout_s"], on_line)
    wall = time.perf_counter() - started
    records = []
    previous = t0
    for index, name in enumerate(job["names"]):
        chunk = sink.lines[index * per:(index + 1) * per]
        if len(chunk) < per:
            records.append(
                {"name": name, "time_s": None, "exit": code,
                 "error": error or "missing result lines", "stdout": ""}
            )
            continue
        finished = chunk[-1][0]
        records.append(
            {"name": name, "time_s": finished - previous, "exit": code, "error": error,
             "stdout": "".join(line + "\n" for _, line in chunk)}
        )
        previous = finished
    return records, wall


def _drop_repeats(records, first):
    """Keep output text only where it differs from the first pass."""
    for record, earlier in zip(records, first):
        if record["stdout"] == earlier["stdout"]:
            record["stdout"] = None


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import prefarg.cli as cli

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    run_pass = _batch_pass if job["mode"] == "batch" else _single_pass
    _call(cli, job["warmup"], job["timeout_s"])

    passes = []
    if job["trace"]:
        # Untraced and traced passes alternate, twice, so that the overhead
        # ratio compares fastest-of-two times on both sides. The spans and
        # layer sums come from the first traced pass alone.
        tracers = []
        for _ in range(2):
            records, wall = run_pass(cli, job, None)
            passes.append({"traced": False, "wall_s": wall, "records": records})
            tracers.append(Tracer())
            tracers[-1].install()
            try:
                records, wall = run_pass(cli, job, tracers[-1])
            finally:
                tracers[-1].restore()
            passes.append({"traced": True, "wall_s": wall, "records": records})
        tracer = tracers[0]
        tracer.write(job["spans_path"])
        layers = tracer.summary()
        orders_tried = tracer.count_children("oracle.brute_force_ex", "reductions.reduce")
        setup = None
    else:
        spent = 0.0
        setup = _setup_samples(job["src"])
        while not passes or spent + passes[-1]["wall_s"] <= job["seconds"]:
            records, wall = run_pass(cli, job, None)
            spent += wall
            passes.append({"traced": False, "wall_s": wall, "records": records})
            setup += _setup_samples(job["src"])
        layers, orders_tried = None, None
    for later in passes[1:]:
        _drop_repeats(later["records"], passes[0]["records"])

    result = {
        "prefarg_file": cli.__file__,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup,
        "layers": layers,
        "orders_tried": orders_tried,
    }
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
