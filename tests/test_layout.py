"""Layout of the library: every module-level function and class in
``src/marketdyn`` is reached by a run, and every function and method runs.

Reachability is checked by module. A run enters through ``cli.main``,
through the statements a module runs on import (the dispatch tables, for
example), through the functions the benchmark tracer's ``LAYERS`` wraps,
and through ``scenario_to_text``, which README documents. From there a
``Name`` reaches only a ``def`` or ``class`` of its own module, or one
imported into it with ``from .x import name``; an ``Attribute`` reaches
only ``alias.name``, where ``alias`` names a module of the package
(``from . import numerics``, ``x = lazy_submodule("x")``). A method or a
record field that shares a helper's name therefore reaches nothing.

Methods are checked by running: a corpus of command-line calls runs in a
fresh process under a trace hook, and every module-level function and
every method of a class of ``src/marketdyn`` must run, apart from the few
that ``NOT_RUN`` lists with their reasons. Forms that only the tests
need, such as the defining ODE systems, live in ``tests/reference.py``.

Module-level assigned names (dunders aside) are checked apart: some code
of the package must read each one, by name or as an attribute.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from test_golden import LONG_RUN_DOCS
from test_scenario_cli import ROUND_TRIP_DOCS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "marketdyn"
TRACING = ROOT / "bench" / "tracing.py"

#: Entry points besides the tracer's layers: the command line and the
#: function README documents.
ENTRY_POINTS = (("cli", "main"), ("scenario", "scenario_to_text"))


def tracer_layers(tracing: Path) -> set[tuple[str, str]]:
    """(module, function) of the ``LAYERS`` table, read without importing the tracer."""
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return {(module, name) for module, names in layers.values() for name in names}
    raise AssertionError(f"no LAYERS table in {tracing}")


class Module(NamedTuple):
    body: list                          # top-level statements
    defs: dict[str, ast.AST]            # module-level def or class by name
    modules: dict[str, str]             # local name -> package module it binds
    imported: dict[str, tuple[str, str]]  # local name -> (module, name) of `from .x import`


def read_package(package: Path) -> dict[str, Module]:
    """Every module of the package by file stem (``__init__`` for the package)."""
    stems = {path.stem for path in package.glob("*.py")}
    modules = {}
    for path in sorted(package.glob("*.py")):
        body = ast.parse(path.read_text()).body
        module = Module(body, {}, {}, {})
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                module.defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None and alias.name in stems:
                        module.modules[local] = alias.name
                    else:
                        module.imported[local] = (node.module or "__init__", alias.name)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name)
                  and node.value.func.id == "lazy_submodule"):
                for target in node.targets:
                    module.modules[target.id] = ast.literal_eval(node.value.args[0])
        modules[path.stem] = module
    return modules


def resolve(modules: dict[str, Module], module: str, name: str) -> tuple[str, str] | None:
    """The (module, name) of the def that ``name`` means in ``module``, if any."""
    while module in modules:
        if name in modules[module].defs:
            return module, name
        if name not in modules[module].imported:
            return None
        module, name = modules[module].imported[name]
    return None


def references(modules: dict[str, Module], module: str, node: ast.AST):
    """The defs a node's names and module attributes reach, as (module, name)."""
    aliases = modules[module].modules
    for n in ast.walk(node):
        target = None
        if isinstance(n, ast.Name):
            target = resolve(modules, module, n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in aliases):
            target = resolve(modules, aliases[n.value.id], n.attr)
        if target is not None:
            yield target


def unreached(package: Path, tracing: Path) -> list[str]:
    """``module.name`` of every module-level def or class that no run reaches."""
    modules = read_package(package)
    pending = set(ENTRY_POINTS) | tracer_layers(tracing)
    for stem, module in modules.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.update(references(modules, stem, node))
    reached: set[tuple[str, str]] = set()
    while pending:
        target = pending.pop()
        module, name = target
        if target not in reached and module in modules and name in modules[module].defs:
            reached.add(target)
            pending.update(references(modules, module, modules[module].defs[name]))
    return sorted(f"{stem}.{name}" for stem, module in modules.items()
                  for name in module.defs if (stem, name) not in reached)


def unread(package: Path) -> list[str]:
    """``module.name`` of every module-level assigned name, dunders aside,
    that no code of the package reads."""
    assigned: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned += [(path.stem, n.id) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)
                         and not (n.id.startswith("__") and n.id.endswith("__"))]
        read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{module}.{name}" for module, name in assigned if name not in read)


# ---------------------------------------------------------------------------
# What a run executes
# ---------------------------------------------------------------------------

#: Functions and methods that no call of the corpus runs, with the reason each stays.
NOT_RUN = {
    "__init__.lazy_submodule": "runs on import, before the trace starts",
    "errors.IntegrationDivergedError.__init__": "an error constructor; no corpus call fails there",
    "errors.AccuracyNotReachedError.__init__": "an error constructor; no corpus call fails there",
    "feedback.cutoff_path": "only the benchmark tracer's LAYERS names it",
    "competition.two_supplier_spontaneous_path": "only the benchmark tracer's LAYERS names it",
    "numerics.mat_exp_apply": "only the benchmark tracer's LAYERS names it",
    "scenario.scenario_to_dict": "what scenario_to_text writes, which README documents",
    "scenario.scenario_to_text": "README documents it",
}

#: Runs the calls given as JSON argument lists on stdin under a trace hook,
#: after the import, and prints the (file, first line) of every code object
#: that ran. The hook returns None, so no line of a frame is traced.
TRACED_RUN = """
import contextlib, io, json, sys
from marketdyn import cli
calls = json.load(sys.stdin)
ran = set()

def hook(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(hook)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in calls:
        cli.main(argv)
sys.settrace(None)
json.dump(sorted(ran), sys.stdout)
"""


def functions_and_methods(package: Path) -> dict[tuple[str, int], str]:
    """``module.name`` or ``module.Class.method`` by the (file, first line) of its code."""
    found = {}

    def add(path, prefix, body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{prefix}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                add(path, f"{prefix}.{node.name}", node.body)

    for path in sorted(package.glob("*.py")):
        add(path.resolve(), path.stem, ast.parse(path.read_text()).body)
    return found


def not_run(package: Path, calls: list[list[str]], src: Path) -> list[str]:
    """``module.name`` of every function and method of the package that the calls do not run."""
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], input=json.dumps(calls),
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    ran = {(str(Path(file).resolve()), line) for file, line in json.loads(proc.stdout)}
    return sorted(name for key, name in functions_and_methods(package).items()
                  if key not in ran)


#: Samples per corpus document: enough for every route, few enough to stay quick.
CORPUS_SAMPLES = 40

#: Documents for the routes that the round-trip, long-run and sample
#: documents miss: a rejected document, shares below 0.1 on an inverted
#: kernel, and the calibration of bpq case 2.
CORPUS_DOCS = [
    {"model": {"kind": "simple", "a": "x"}, "horizon": 0.0},
    {"model": {"kind": "feedback", "kernel": {"kind": "inverse_u"}, "rate": 1.0, "u0": 0.01},
     "horizon": 0.001},
    {"model": {"kind": "bpq", "case": "case2", "N": 1000.0, "P0": 10.0},
     "targets": {"T_m": 8.0, "P_Tm": 300.0}},
]


def corpus(directory: Path) -> list[list[str]]:
    """Argument lists of the traced corpus, with its documents written under ``directory``.

    Every round-trip, long-run and sample document, and those of
    ``CORPUS_DOCS``: a document with targets under ``calibrate``, any other
    under ``simulate``, ``metrics`` and ``equilibrium``; then both tables.
    """
    docs = (ROUND_TRIP_DOCS + list(LONG_RUN_DOCS.values()) + CORPUS_DOCS
            + [json.loads(path.read_text()) for path in sorted(ROOT.glob("scenarios/*.json"))])
    calls = []
    for k, doc in enumerate(docs):
        path = directory / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        if "targets" in doc:
            calls.append(["calibrate", str(path)])
        else:
            calls += [[command, str(path), "--samples", str(CORPUS_SAMPLES)]
                      for command in ("simulate", "metrics", "equilibrium")]
    return calls + [["tables", "latency_u0"], ["tables", "latency_kernels"]]


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def test_every_function_and_class_is_reached_by_a_run():
    assert unreached(PACKAGE, TRACING) == []


def test_the_check_flags_a_function_nothing_calls(tmp_path):
    (tmp_path / "cli.py").write_text(
        "TABLE = {'a': used}\n\ndef main():\n    return helper()\n\n"
        "def helper():\n    return 1\n\ndef used():\n    pass\n\ndef orphan():\n    return helper()\n")
    tracing = tmp_path / "tracing.py"
    tracing.write_text("LAYERS = {'cli': ('cli', ('main',))}\n")
    assert unreached(tmp_path, tracing) == ["cli.orphan"]


def test_the_check_follows_names_by_module(tmp_path):
    # `tables.render` shares its name with a method and `shared` with a
    # local of cli: matched by name alone, both would count as reached.
    (tmp_path / "__init__.py").write_text(
        "def lazy_submodule(name):\n    return name\n\ndef spare():\n    pass\n")
    (tmp_path / "cli.py").write_text(
        "from . import lazy_submodule, records\nfrom .records import Row as R\n\n"
        "tables = lazy_submodule('tables')\n\n"
        "def main():\n    shared = 1\n"
        "    return tables.Table().render(), records.make(), R, shared\n")
    (tmp_path / "records.py").write_text(
        "def make():\n    return 1\n\nclass Row:\n    pass\n")
    (tmp_path / "tables.py").write_text(
        "class Table:\n    def render(self):\n        return 1\n\n"
        "def render():\n    return 2\n\ndef shared():\n    return 3\n")
    tracing = tmp_path / "tracing.py"
    tracing.write_text("LAYERS = {}\n")
    assert unreached(tmp_path, tracing) == ["__init__.spare", "tables.render", "tables.shared"]


def test_every_function_and_method_runs(tmp_path):
    flagged = not_run(PACKAGE, corpus(tmp_path), ROOT / "src")
    assert [name for name in flagged if name not in NOT_RUN] == []
    assert sorted(set(NOT_RUN) - set(flagged)) == []


def test_the_run_check_flags_a_method_nothing_runs(tmp_path):
    package = tmp_path / "marketdyn"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "class Row:\n    def used(self):\n        return 1\n\n"
        "    @property\n    def spare(self):\n        return 2\n\n"
        "def main(argv):\n    return Row().used()\n\ndef orphan():\n    pass\n")
    assert not_run(package, [["simulate"]], tmp_path) == ["cli.Row.spare", "cli.orphan"]


def test_every_module_level_name_is_read():
    assert unread(PACKAGE) == []


def test_the_check_flags_a_name_nothing_reads(tmp_path):
    (tmp_path / "tables.py").write_text(
        "__all__ = ['KINDS']\nKINDS = ('a',)\nSPARE: tuple = ()\nLO, HI = 0, 1\n")
    (tmp_path / "cli.py").write_text(
        "import tables\n\ndef main():\n    return tables.KINDS, LO\n")
    assert unread(tmp_path) == ["tables.HI", "tables.SPARE"]
