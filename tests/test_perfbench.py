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


def _kind(key: str) -> str:
    """A key reads ring|kind|... or witt|index|kind|...: its kind is its
    first field, after the first, that is not a number."""
    return next(f for f in key.split("|")[1:] if not f.isdigit())


def _first_of_each_kind(plan):
    seen, out = set(), []
    for query in plan:
        if _kind(query[0]) not in seen:
            seen.add(_kind(query[0]))
            out.append(query)
    return out


@pytest.mark.parametrize("workload, kinds", [
    ("generators", ["e", "h"]),
    ("oracle", ["mul", "f", "lambda"]),  # f reads a t-series' coeffs and ring
    ("witt", ["mul", "add", "ghosts", "law"]),
])
def test_the_first_query_of_each_kind_matches_the_references(child, monkeypatch, workload, kinds):
    import workloads

    plan = workloads.PLANS[workload]
    monkeypatch.setitem(workloads.PLANS, workload, lambda seed: _first_of_each_kind(plan(seed)))
    assert [_kind(key) for key, _, _ in workloads.PLANS[workload](0)] == kinds
    _, ops, failures, _ = child.run_stream(workload, 0, None)
    assert failures == []
    assert len(ops) == len(kinds) and all(ok for _, ok in ops)
