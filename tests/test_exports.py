"""Every name a module exports exists, so tools that look names up work."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["tfim_dqpt", "tfim_dqpt.su2", "tfim_dqpt.quench", "tfim_dqpt.otoc",
           "tfim_dqpt.chain", "tfim_dqpt.cli", "tfim_dqpt.errors"]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_every_layer_name():
    # each name is declared public once, in its layer; the package adds
    # only its version
    package = importlib.import_module("tfim_dqpt")
    layers = [importlib.import_module(f"tfim_dqpt.{layer}")
              for layer in ("errors", "su2", "quench", "otoc", "chain")]
    union = [name for layer in layers for name in layer.__all__]
    assert package.__all__ == union + ["__version__"]
