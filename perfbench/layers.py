"""The layer table: which entry point belongs to which layer, and the
per-layer metrics derived from a traced run.

Each row of :func:`layer_table` names an attribute the program's callers
resolve and the span name its calls are recorded under.  Span names start
with the layer's module name (``engine.interning``, ``engine.guards``, …),
so :func:`layer_of` maps any span to its layer.

Wall-time metrics are self time in seconds, and every time and count is
reported per request (one ``run_analysis`` call in-process, one job over
HTTP): a time-bounded run of a faster program does more requests, and
per-request figures stay comparable where totals would not.
"""

from __future__ import annotations

from perfbench.measure import median

GUARD_PROBES = ("addition_allowed", "deletion_allowed", "completion",
                "d1_addition_allowed", "d1_deletion_allowed", "d1_completion")

ANALYSES = ("decide_completability", "decide_semisoundness", "always_holds", "extract_workflow")

#: Entry points wrapped in every analysing process (in-process or server).
STATIC_ROWS = (
    ("repro.engine.interning:IncrementalShaper", "successor_shape", "engine.interning.derive"),
    ("repro.engine.interning:IncrementalShaper", "successor", "engine.interning.materialise"),
    ("repro.engine.interning:ShapeInterner", "state_id", "engine.interning.intern"),
    ("repro.engine.arena:ShapeArena", "intern_cons", "engine.arena.intern"),
    ("repro.engine.engine:ExplorationEngine", "explore", "engine.explore"),
    ("repro.engine.engine:ExplorationEngine", "explore_depth1", "engine.explore"),
    ("repro.engine.engine:ExplorationEngine", "representative", "engine.representative"),
    *(("repro.engine.guards:GuardCache", probe, "engine.guards.probe") for probe in GUARD_PROBES),
    ("repro.engine.guards", "evaluate", "core.formulas.eval"),
    *(("repro.service.dispatch", analysis, "analysis") for analysis in ANALYSES),
    ("repro.service.dispatch", "run_analysis", "service.dispatch"),
    ("repro.service.dispatch", "run_analysis_wire", "service.dispatch"),
    ("repro.service.dispatch", "result_to_wire", "service.dispatch"),
    ("repro.service.dispatch", "resolve_form", "io.serialization.form_parse"),
    ("repro.catalog", "guarded_form_from_dict", "io.serialization.form_decode"),
    ("repro.cache.kv:KVCache", "get", "cache"),
    ("repro.cache.kv:KVCache", "put", "cache"),
    ("repro.cache.kv:KVCache", "mget", "cache"),
    ("repro.cache.kv:KVCache", "mput", "cache"),
    ("repro.cache.kv_sqlite:SqliteKV", "mput", "cache"),
    ("repro.engine.workers:WorkerPool", "run_wave", "engine.workers.wave"),
)

#: Names the pod server resolves in its own module, plus its entry points.
SERVER_ROWS = (
    ("repro.service.server:PodServer", "handle", "service.server.handle"),
    ("repro.service.server:PodServer", "_run_job", "service.worker"),
    ("repro.service.server", "run_analysis", "service.dispatch"),
    ("repro.service.server", "result_to_wire", "service.dispatch"),
    ("repro.service.server", "result_cache_probe", "service.dispatch"),
    ("repro.service.server", "result_cache_store", "service.dispatch"),
)

#: Layers, most specific first; a span belongs to the first that prefixes it.
LAYERS = (
    "engine.interning", "engine.arena", "engine.guards", "engine.store", "engine.workers",
    "core.formulas", "io.serialization", "service.server", "service.jobs", "service.worker",
    "service.dispatch", "analysis", "cache", "engine",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return span_name


def layer_table(server: bool = False) -> list:
    """``(target, attribute, span name)`` rows for :func:`perfbench.tracing.install`."""
    from perfbench.tracing import public_methods, resolve

    rows = list(STATIC_ROWS)
    store = "repro.engine.store:SqliteStore"
    for method in public_methods(resolve(store)):
        rows.append((store, method, "engine.store.flush" if method == "flush" else "engine.store"))
    if server:
        rows.extend(SERVER_ROWS)
        jobs = "repro.service.jobs:JobStore"
        rows.extend((jobs, method, "service.jobs") for method in public_methods(resolve(jobs)))
    return rows


#: Every per-layer metric: ``(name, unit)``.  Times are self time per request.
PER_LAYER_METRICS = (
    ("engine.interning.derive_s", "s/req"),
    ("engine.interning.derive_calls", "calls/req"),
    ("engine.interning.intern_s", "s/req"),
    ("engine.interning.intern_hit_ratio", "ratio"),
    ("engine.interning.materialise_s", "s/req"),
    ("engine.interning.materialise_calls", "calls/req"),
    ("engine.arena.intern_s", "s/req"),
    ("engine.arena.nbytes", "bytes"),
    ("engine.explore_self_s", "s/req"),
    ("engine.expansions", "count/req"),
    ("engine.expansions_reused", "count/req"),
    ("engine.representative_s", "s/req"),
    ("engine.guards.probe_s", "s/req"),
    ("engine.guards.probe_calls", "calls/req"),
    ("engine.guards.hit_ratio", "ratio"),
    ("core.formulas.eval_s", "s/req"),
    ("core.formulas.eval_calls", "calls/req"),
    ("analysis.self_s", "s/req"),
    ("engine.store.self_s", "s/req"),
    ("engine.store.calls", "calls/req"),
    ("engine.store.flushes", "calls/req"),
    ("engine.store.bytes_per_state", "bytes/state"),
    ("cache.self_s", "s/req"),
    ("cache.calls", "calls/req"),
    ("cache.hit_ratio.guards", "ratio"),
    ("cache.hit_ratio.shapes", "ratio"),
    ("cache.hit_ratio.results", "ratio"),
    ("service.server.handle_s", "s/req"),
    ("service.jobs.self_s", "s/req"),
    ("service.jobs.queue_wait_p50_s", "s"),
    ("service.jobs.slices_per_job", "count"),
    ("service.worker.self_s", "s/req"),
    ("service.dispatch.self_s", "s/req"),
    ("io.serialization.form_parse_s", "s/req"),
    ("io.serialization.form_parse_calls", "calls/req"),
    ("engine.workers.wave_wait_s", "s/req"),
    ("engine.workers.waves", "count/req"),
    ("engine.wire.decode_s", "s/req"),
    ("engine.wire.bytes_per_candidate", "bytes"),
    ("loadgen.late_max_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(totals: dict, requests: int, engine_stats: list, extra: dict) -> dict:
    """Every metric of :data:`PER_LAYER_METRICS` from one traced run.

    *totals* is :meth:`perfbench.tracing.SpanRecorder.totals`, *requests*
    the traced request count, *engine_stats* the ``stats["engine"]`` blocks
    of the traced results, *extra* the figures only the harness knows
    (store bytes and states, KV stats, queue waits, slices per job,
    generator lateness, overhead and unattributed share).
    """
    per = 1.0 / max(requests, 1)

    def self_s(*names):
        return sum(totals.get(name, {}).get("self_s", 0.0) for name in names) * per

    def calls(*names):
        return sum(totals.get(name, {}).get("calls", 0) for name in names) * per

    def stat_sum(key):
        return sum(float(stats.get(key) or 0) for stats in engine_stats)

    wire = [float(stats["wire_bytes_per_candidate"]) for stats in engine_stats
            if stats.get("wire_bytes_per_candidate")]
    kv = (extra.get("cache_stats") or {}).get("namespaces") or {}

    def kv_ratio(namespace):
        counters = kv.get(namespace) or {}
        return _ratio(counters.get("hits", 0), counters.get("misses", 0))

    waits = extra.get("queue_waits") or []
    values = {
        "engine.interning.derive_s": self_s("engine.interning.derive"),
        "engine.interning.derive_calls": calls("engine.interning.derive"),
        "engine.interning.intern_s": self_s("engine.interning.intern"),
        "engine.interning.intern_hit_ratio": _ratio(
            stat_sum("intern_state_hits"), stat_sum("intern_state_misses")),
        "engine.interning.materialise_s": self_s("engine.interning.materialise"),
        "engine.interning.materialise_calls": calls("engine.interning.materialise"),
        "engine.arena.intern_s": self_s("engine.arena.intern"),
        "engine.arena.nbytes": max(
            (float(stats.get("intern_arena_nbytes") or 0) for stats in engine_stats), default=0.0),
        "engine.explore_self_s": self_s("engine.explore"),
        "engine.expansions": stat_sum("expansions_computed") * per,
        "engine.expansions_reused": stat_sum("expansions_reused") * per,
        "engine.representative_s": self_s("engine.representative"),
        "engine.guards.probe_s": self_s("engine.guards.probe"),
        "engine.guards.probe_calls": calls("engine.guards.probe"),
        "engine.guards.hit_ratio": _ratio(stat_sum("guard_cache_hits"), stat_sum("guard_cache_misses")),
        "core.formulas.eval_s": self_s("core.formulas.eval"),
        "core.formulas.eval_calls": calls("core.formulas.eval"),
        "analysis.self_s": self_s("analysis"),
        "engine.store.self_s": self_s("engine.store", "engine.store.flush"),
        "engine.store.calls": calls("engine.store", "engine.store.flush"),
        "engine.store.flushes": calls("engine.store.flush"),
        "engine.store.bytes_per_state": (
            extra.get("store_bytes", 0) / extra["store_states"] if extra.get("store_states") else 0.0),
        "cache.self_s": self_s("cache"),
        "cache.calls": calls("cache"),
        "cache.hit_ratio.guards": kv_ratio("guards"),
        "cache.hit_ratio.shapes": kv_ratio("shapes"),
        "cache.hit_ratio.results": kv_ratio("results"),
        "service.server.handle_s": self_s("service.server.handle"),
        "service.jobs.self_s": self_s("service.jobs"),
        "service.jobs.queue_wait_p50_s": median(waits) if waits else 0.0,
        "service.jobs.slices_per_job": float(extra.get("slices_per_job", 0.0)),
        "service.worker.self_s": self_s("service.worker"),
        "service.dispatch.self_s": self_s("service.dispatch"),
        "io.serialization.form_parse_s": self_s("io.serialization.form_parse",
                                                "io.serialization.form_decode"),
        "io.serialization.form_parse_calls": calls("io.serialization.form_parse"),
        "engine.workers.wave_wait_s": self_s("engine.workers.wave"),
        "engine.workers.waves": calls("engine.workers.wave"),
        "engine.wire.decode_s": stat_sum("wire_decode_seconds") * per,
        "engine.wire.bytes_per_candidate": sum(wire) / len(wire) if wire else 0.0,
        "loadgen.late_max_s": float(extra.get("late_max_s", 0.0)),
        "trace.overhead_ratio": float(extra.get("overhead_ratio", 0.0)),
        "trace.unattributed_share": float(extra.get("unattributed_share", 0.0)),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}


def layer_shares(totals: dict) -> list:
    """``[(layer, self seconds, share)]`` sorted by self time, largest first."""
    by_layer: dict = {}
    for name, entry in totals.items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    whole = sum(by_layer.values()) or 1.0
    return sorted(((layer, seconds, seconds / whole) for layer, seconds in by_layer.items()),
                  key=lambda row: -row[1])
