import importlib
import pkgutil

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
