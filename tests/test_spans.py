"""The trace harness wraps fairmlp functions by name, so a renamed or
deleted function would only show up in a traced benchmark run; this
pins every name it patches."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("module,attr,span", spans.PATCHES)
def test_every_patched_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span
