import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ttnets

MODULES = [info.name for info in pkgutil.iter_modules(ttnets.__path__, "ttnets.")]


def test_every_module_found():
    assert {"ttnets.decompositions", "ttnets.tensor_io", "ttnets.rank_analysis"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_report_writer_exported():
    from ttnets import rank_analysis

    assert "write_report_csv" in rank_analysis.__all__


def _traced_names():
    """Keys of the benchmark's ``TRACED`` table, read without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/run.py defines no TRACED table")


@pytest.mark.parametrize("name", _traced_names())
def test_benchmark_traced_name_exists(name):
    # the benchmark wraps each of these; a rename would silently drop its span
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"ttnets.{module}"), attr, None))
