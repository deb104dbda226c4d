"""The layer wrappers are pure observers, and self time is consistent."""

from __future__ import annotations

import importlib
import importlib.util

from perfbench import layers, tracing
from perfbench.workloads import cor42_item, deep_item, rng_for, sat_item

#: Stats fields that hold wall-clock readings, which differ run to run.
TIMING_KEYS = ("guard_eval_seconds",)


def _requests():
    from repro.service.request import request_from_wire

    rng = rng_for("tests", 0)
    items = [cor42_item(rng, 3, True, 60), cor42_item(rng, 3, False, 60), deep_item(40),
             sat_item(rng, 5, True)]
    return [(item, request_from_wire(item["request"])) for item in items]


def _fingerprint(result) -> tuple:
    engine = {key: value for key, value in result.stats["engine"].items() if key not in TIMING_KEYS}
    rest = {key: value for key, value in result.stats.items() if key != "engine"}
    return result.decided, result.answer, repr(sorted(rest.items())), repr(sorted(engine.items()))


def _attributes(table) -> list:
    out = []
    for target, attr, _name in table:
        owner = tracing.resolve(target)
        out.append((owner, attr, vars(owner).get(attr)))
    return out


def test_wrappers_leave_verdicts_and_engine_stats_identical():
    from repro.service import dispatch

    requests = _requests()
    untraced = [_fingerprint(dispatch.run_analysis(request)) for _item, request in requests]
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder, layers.layer_table(server=False))
    try:
        recorder.active = True
        traced = []
        for index, (_item, request) in enumerate(requests):
            recorder.set_request(index)
            traced.append(_fingerprint(dispatch.run_analysis(request)))
    finally:
        installation.uninstall()
    assert traced == untraced
    totals = recorder.totals()
    for name in ("engine.interning.derive", "engine.arena.intern", "engine.guards.probe",
                 "core.formulas.eval", "analysis", "service.dispatch", "engine.explore"):
        assert totals[name]["calls"] > 0, name


def test_uninstall_restores_every_original():
    for server in (False, True):
        table = layers.layer_table(server=server)
        before = _attributes(table)
        recorder = tracing.SpanRecorder()
        tracing.install(recorder, table).uninstall()
        assert _attributes(table) == before
        for owner, attr, _value in before:
            assert not hasattr(getattr(owner, attr), "__perfbench_original__")


def test_server_entry_points_resolve():
    table = layers.layer_table(server=True)
    names = {name for _target, _attr, name in table}
    assert {"service.server.handle", "service.jobs", "engine.store", "engine.store.flush",
            "cache", "engine.workers.wave"} <= names
    for target, attr, _name in table:
        assert callable(getattr(tracing.resolve(target), attr)), (target, attr)


def _nested_module():
    """A throwaway module with a three-level call tree to trace."""
    spec = importlib.util.spec_from_loader("perfbench_nested_probe", loader=None)
    module = importlib.util.module_from_spec(spec)
    exec(
        "import time\n"
        "def leaf(n):\n"
        "    return sum(range(n))\n"
        "def middle(n):\n"
        "    return leaf(n) + leaf(n // 2)\n"
        "def top(n):\n"
        "    total = 0\n"
        "    for _ in range(3):\n"
        "        total += middle(n)\n"
        "    return total + sum(range(n))\n",
        module.__dict__,
    )
    return module


def test_self_time_non_negative_and_children_within_parent(monkeypatch):
    import sys

    module = _nested_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder, [(module.__name__, "top", "top"),
                                              (module.__name__, "middle", "middle"),
                                              (module.__name__, "leaf", "leaf")])
    try:
        recorder.active = True
        for n in (1000, 20000, 5):
            module.top(n)
    finally:
        installation.uninstall()
    spans = recorder.spans()
    assert len(spans) == 3 * (1 + 3 * 3)
    by_id = {span[0]: span for span in spans}
    child_sum: dict = {}
    for span_id, parent, _name, start, end, _req, _tid in spans:
        assert end >= start
        if parent:
            outer = by_id[parent]
            assert outer[3] <= start and end <= outer[4]
            child_sum[parent] = child_sum.get(parent, 0) + (end - start)
    for parent, covered in child_sum.items():
        assert covered <= by_id[parent][4] - by_id[parent][3]
    offline = tracing.self_times(spans)
    online = recorder.totals()
    for name, seconds in offline.items():
        assert seconds >= 0
        assert abs(online[name]["self_s"] - seconds) < 1e-6
    assert online["top"]["calls"] == 3 and online["leaf"]["calls"] == 18


def test_traced_analysis_self_times_are_consistent():
    from repro.service import dispatch

    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder, layers.layer_table(server=False))
    try:
        recorder.active = True
        for _item, request in _requests():
            dispatch.run_analysis(request)
    finally:
        installation.uninstall()
    spans = recorder.spans()
    assert spans and recorder.dropped == 0
    offline = tracing.self_times(spans)
    for name, entry in recorder.totals().items():
        assert entry["self_s"] >= 0
        assert entry["self_s"] <= entry["total_s"] + 1e-9
        assert abs(entry["self_s"] - offline[name]) < 1e-6
    metrics = layers.per_layer_metrics(recorder.totals(), 4, [], {})
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER_METRICS}
    assert all(value >= 0 for value, _unit in metrics.values())
