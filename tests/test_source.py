import ast
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
