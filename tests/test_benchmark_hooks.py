"""The benchmark's contract with the library: the names it imports and hooks,
and the calls its workloads make.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` of ``spans.HOOKS``
by replacing ``owner.__dict__[attribute]``, and ``perfbench/workloads.py``
imports library names at module level.  A library refactor that renames or
moves any of them breaks ``perfbench/run.py`` (and its ``--trace 1``), so
these tests keep them resolving, and run one operation of every workload.
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



def test_every_workload_sets_up_and_runs_an_operation(spans, tmp_path):
    workloads = sys.modules["workloads"]
    for name, loop_of in workloads.LOOPS.items():
        models = workloads.set_up(name, 1, tmp_path)
        rec = workloads.Record()
        loop = loop_of(models, rec, 1)
        next(loop)  # up to the first operation
        next(loop)  # through it
        loop.close()
        assert models.checkpoint_intact, name
        assert sum(rec.attempted.values()) >= 1, name
        assert not rec.failed and not rec.check_failures, (name, rec.first_error)
