"""The benchmark's hold on the library, checked in the test run: every name
``perfbench/child.py`` wraps must exist, and the first queries of each
seeded query plan must still match the committed references, so that a
renamed function or a changed result fails here and not only when the
benchmark runs.  Nothing under ``perfbench/`` is written."""

import collections
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def child(monkeypatch):
    """perfbench/child.py as a module; it imports perfbench/workloads.py by
    the name ``workloads``, which is dropped again afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", os.path.join(PERFBENCH, "child.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("workloads", None)


class StubTracer:
    """Takes install_tracer's calls and installs nothing: ``patch`` checks
    that the attribute it would replace is there and callable."""

    def __init__(self):
        self.counts, self.depth = collections.Counter(), collections.Counter()
        self.patched = []

    def patch(self, owner, name, wrap):
        fn = getattr(owner, name, None)
        assert callable(fn), f"{owner.__name__}.{name} is not a callable"
        assert wrap(fn) is fn
        self.patched.append(f"{owner.__name__}.{name}")

    def span(self, name, fn, hook=None):
        return fn

    def counter(self, name, fn):
        return fn


def test_every_name_the_tracer_wraps_is_callable(child):
    tr = StubTracer()
    child.install_tracer(tr)
    for name in ("power_to_schur", "multiply", "substitute_variable_sets"):
        assert f"wreathgroth.symfun.{name}" in tr.patched


@pytest.mark.parametrize("workload", ["generators", "oracle", "witt"])
def test_first_queries_of_the_seed_0_plans_match_the_references(child, monkeypatch, workload):
    import workloads

    plan = workloads.PLANS[workload]
    monkeypatch.setitem(workloads.PLANS, workload, lambda seed: plan(seed)[:3])
    _, ops, failures, _ = child.run_stream(workload, 0, None)
    assert failures == []
    assert len(ops) == 3 and all(ok for _, ok in ops)
