import ast
import importlib
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


def _tracer_pins() -> set[tuple[str, str]]:
    """The (module, name) pairs `benchmarks/tracing.py` patches, read from its source."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODULE_TARGETS":
            return {(module, name) for module, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("tracing.py has no MODULE_TARGETS")


def test_every_import_is_read_unless_the_tracer_patches_it():
    """An import its module never reads is dead, unless the tracer patches it under that name."""
    unread = set()
    for path in sorted(Path(prefarg.__file__).parent.glob("*.py")):
        name = "prefarg" if path.stem == "__init__" else f"prefarg.{path.stem}"
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imports = (node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom)))
        aliases = (alias for node in imports for alias in node.names)
        bound = {(alias.asname or alias.name).split(".")[0] for alias in aliases}
        name_nodes = (node for node in nodes if isinstance(node, ast.Name))
        read = {node.id for node in name_nodes if isinstance(node.ctx, ast.Load)}
        read.update(getattr(importlib.import_module(name), "__all__", ()))
        unread |= {(name, imported) for imported in bound - read}
    assert unread - _tracer_pins() == set()


def test_only_the_cli_entry_point_touches_the_garbage_collector():
    """`cli.main` pauses the process-wide collector for one call; no library function changes it."""
    imports, uses = [], []
    for path in sorted(Path(prefarg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_main: set[int] = set()
        if path.stem == "cli":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            in_main = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = (alias for alias in node.names if alias.name == "gc")
                imports += [(path.stem, alias.name, alias.asname) for alias in names]
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                imports.append((path.stem, "from gc", None))
            elif isinstance(node, ast.Name) and node.id == "gc":
                uses.append((path.stem, id(node) in in_main))
    assert imports == [("cli", "gc", None)]
    assert uses and set(uses) == {("cli", True)}


def _reads_outside_own_definition(tree: ast.AST) -> set[str]:
    """Names a module loads or reads as attributes, except inside the def or class of that name."""
    reads: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            reads.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return reads


def test_every_exported_name_is_read_by_the_library_or_a_demo():
    """An export that only the tests reach is surface nothing needs: delete it or use it."""
    exempt = {
        # Patched by benchmarks/tracing.py under the name the package exports.
        *(name for _, name in _tracer_pins()),
        # The reader for `solve` output that a certificate checker is to build on.
        "parse_result",
        # The public completeness predicate, `completeness_violation(...) is None`.
        "is_complete",
    }
    package = Path(prefarg.__file__).parent
    sources = [path for path in package.glob("*.py") if path.stem != "__init__"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(
        *(_reads_outside_own_definition(ast.parse(p.read_text(encoding="utf-8"))) for p in sources)
    )
    assert set(prefarg.__all__) - read - exempt == set()
