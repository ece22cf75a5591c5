import importlib

import pytest

import channellab

MODULES = [name for name in channellab.__all__ if not name.startswith("__")]


def test_package_exports_resolve():
    missing = [name for name in channellab.__all__ if not hasattr(channellab, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"channellab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
