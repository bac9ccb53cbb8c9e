"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def rebind(monkeypatch):
    """rebind(original, replacement) swaps `original` for `replacement` in
    every splinecomb module namespace that holds it, as a caller in any
    module would see it; monkeypatch restores the bindings afterwards."""

    def rebind_everywhere(original, replacement):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != "splinecomb":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)

    return rebind_everywhere
