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
