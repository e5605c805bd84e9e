"""Layout of the library: every module-level function and class in
``src/marketdyn`` is reached by a run.

A run enters through ``cli.main``, through the statements a module runs
on import (the dispatch tables, for example), through the functions the
benchmark tracer wraps by name, and through ``scenario_to_text``, which
README documents. From there references are followed by name: a ``Name``
or an ``Attribute`` reaches every module-level ``def`` or ``class`` of
that name in any module. Forms that only the tests need, such as the
defining ODE systems, live in ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Entry points besides the tracer's layers: the command line and the
#: function README documents.
ENTRY_POINTS = ("main", "scenario_to_text")


def tracer_layers(tracing: Path) -> set[str]:
    """Function names of the ``LAYERS`` table, read without importing the tracer."""
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return {name for _, names in layers.values() for name in names}
    raise AssertionError(f"no LAYERS table in {tracing}")


def referenced_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached(package: Path, tracing: Path) -> list[str]:
    """``module.name`` of every module-level def or class that no run reaches."""
    defined: dict[str, list[tuple[str, ast.AST]]] = {}
    pending = set(ENTRY_POINTS) | tracer_layers(tracing)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append((path.stem, node))
            else:
                pending |= referenced_names(node)
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defined.get(name, ()):
                pending |= referenced_names(node)
    return sorted(f"{module}.{name}" for name, nodes in defined.items() if name not in reached
                  for module, _ in nodes)


def test_every_function_and_class_is_reached_by_a_run():
    assert unreached(ROOT / "src" / "marketdyn", ROOT / "bench" / "tracing.py") == []


def test_the_check_flags_a_function_nothing_calls(tmp_path):
    (tmp_path / "cli.py").write_text(
        "TABLE = {'a': used}\n\ndef main():\n    return helper()\n\n"
        "def helper():\n    return 1\n\ndef used():\n    pass\n\ndef orphan():\n    return helper()\n")
    tracing = tmp_path / "tracing.py"
    tracing.write_text("LAYERS = {'cli': ('cli', ('main',))}\n")
    assert unreached(tmp_path, tracing) == ["cli.orphan"]
