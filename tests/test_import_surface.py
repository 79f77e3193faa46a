"""The import surface: callers import from the defining module.

Package ``__init__`` files re-export only the names ``perfbench/`` reads,
so importing one module loads that module's own dependencies and
nothing else. A re-export added back to a package ``__init__`` (or an
eager import of a layer a caller does not use) shows up here as a module
loaded too early.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Modules that a cold ``run_all()`` never calls.
NOT_LOADED_BY_RUN_ALL = (
    "repro.bench.ablations",
    "repro.bench.perf",
    "repro.bench.chaos",
    "repro.planner.pasic",
    "repro.hw.interconnect",
    "repro.hw.node",
    "repro.dfg.differentiate",
    "repro.runtime.async_sgd",
)


def _loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after running
    ``statement``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout))


def test_import_repro_loads_no_subpackage():
    assert _loaded_after("import repro") == {"repro"}


def test_run_all_import_skips_unused_layers():
    loaded = _loaded_after("from repro.bench.figures import run_all")
    assert "repro.bench.figures" in loaded
    assert not loaded & set(NOT_LOADED_BY_RUN_ALL)


def _perfbench_imports():
    """Every ``from repro... import name`` and ``import repro...`` in
    ``perfbench/*.py``, as (label, module, name or None)."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if (node.module or "").split(".")[0] != "repro":
                    continue
                for alias in node.names:
                    label = f"{path.name}:{node.lineno} {alias.name}"
                    found.append((label, node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        label = f"{path.name}:{node.lineno}"
                        found.append((label, alias.name, None))
    return found


PERFBENCH_IMPORTS = _perfbench_imports()


def test_perfbench_imports_something():
    modules = {module for _, module, _ in PERFBENCH_IMPORTS}
    assert {"repro.bench", "repro.core", "repro.runtime"} <= modules


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for _, module, name in PERFBENCH_IMPORTS],
    ids=[label for label, _, _ in PERFBENCH_IMPORTS],
)
def test_perfbench_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")
