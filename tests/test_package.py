import ast
import contextlib
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qhekit

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_README = Path(__file__).resolve().parents[1] / "README.md"


def _perfbench_module(name):
    # Loaded from its file, not imported as a package, and never installed.
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_targets():
    return _perfbench_module("spans").TARGETS


_WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("name", _WORKLOADS.NAMES)
def test_every_benchmark_workload_runs_one_job(tmp_path, name):
    # The benchmark's calls into qhekit, run once each: a package change that
    # breaks one fails here, before a benchmark run does.
    workload = _WORKLOADS.setup(name, 0, str(tmp_path))
    workload.run(workload.job_input(0), contextlib.nullcontext)


@pytest.mark.parametrize("module, attr", _traced_targets())
def test_every_traced_name_resolves(module, attr):
    # perfbench --trace 1 wraps these; a renamed or deleted one breaks it.
    owner = importlib.import_module(f"qhekit.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


def test_every_exported_name_resolves():
    missing = [name for name in qhekit.__all__ if not hasattr(qhekit, name)]
    assert missing == []


def test_readme_lower_layers_name_only_exported_names():
    # The README's "Lower layers" paragraph lists importable names; a name
    # moved out of the package must leave it too.
    text = _README.read_text(encoding="utf-8")
    paragraph = text[text.index("Lower layers are importable") :].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert names and [name for name in names if not hasattr(qhekit, name)] == []


def test_tolerances_binds_only_float_constants_each_read_elsewhere():
    # The policy module is a list of constants, with no config object, and
    # a constant nothing imports is a threshold no run reads.
    tolerances = importlib.import_module("qhekit.tolerances")
    names = [name for name in vars(tolerances) if not name.startswith("__")]
    assert names and all(type(getattr(tolerances, name)) is float for name in names)
    imported = set()
    for path in Path(qhekit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "tolerances":
                imported.update(alias.name for alias in node.names)
    assert sorted(imported) == sorted(names)


def test_threshold_values_are_written_only_in_tolerances():
    # Halves, units and doubles are arithmetic; any other float literal is a threshold.
    found = []
    for path in sorted(Path(qhekit.__file__).parent.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if node.value not in (0.0, 0.5, 1.0, 2.0):
                    found.append((path.name, node.lineno, node.value))
    assert found == []


def _loads_numpy_random(statement):
    # A fresh interpreter, so nothing this process imported counts.
    env = {**os.environ, "PYTHONPATH": str(Path(qhekit.__file__).resolve().parents[1])}
    code = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip() == "True"


def test_importing_qhekit_leaves_numpy_random_unloaded():
    # Only the builders and localise draw random numbers, so a plain
    # `qhekit check` need not load numpy.random (and hashlib with it).
    if _loads_numpy_random("import numpy"):
        pytest.skip("import numpy alone loads numpy.random here (numpy 1.x)")
    assert not _loads_numpy_random("import qhekit, qhekit.cli")
