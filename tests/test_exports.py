"""Every public name a module lists in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import pivotk

NAMES = ["pivotk"] + [f"pivotk.{info.name}" for info in pkgutil.iter_modules(pivotk.__path__)]
EXPORTING = [name for name in NAMES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
