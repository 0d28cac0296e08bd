"""The benchmark's contract with the library: the names it imports and hooks.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` of ``spans.HOOKS``
by replacing ``owner.__dict__[attribute]``, and ``perfbench/workloads.py``
imports library names at module level.  A library refactor that renames or
moves any of them breaks ``perfbench/run.py`` (and its ``--trace 1``), so
this test keeps them resolving.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        importlib.import_module("workloads")
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_hook_resolves_on_its_own_owner(spans):
    assert spans.HOOKS
    for owner, attr, name, _ in spans.HOOKS:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is not defined there"
        target = vars(owner)[attr]
        if isinstance(target, classmethod):
            target = target.__func__
        assert callable(target), f"{name}: {owner.__name__}.{attr} is not callable"

