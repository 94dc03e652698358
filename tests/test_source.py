import ast
from pathlib import Path

import prefarg

# pyproject.toml's requires-python.
OLDEST_PYTHON = (3, 10)


def test_every_module_parses_as_the_oldest_supported_python():
    sources = sorted(Path(prefarg.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)
