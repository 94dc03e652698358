import ast
import os
import subprocess
import sys
from pathlib import Path

import prefarg

# pyproject.toml's requires-python.
OLDEST_PYTHON = (3, 10)

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_parses_as_the_oldest_supported_python():
    """The library, and the tests, demos and benchmarks that CI runs on that Python too."""
    sources = sorted(Path(prefarg.__file__).parent.glob("*.py"))
    for folder in ("tests", "demos", "benchmarks"):
        sources += sorted((ROOT / folder).rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    """Together with the modules they pull in, they were a quarter of every CLI start."""
    src = str(Path(prefarg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import prefarg.cli, sys; prefarg.cli._build_parser(); print(sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    loaded = ast.literal_eval(done.stdout)
    assert "prefarg.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
