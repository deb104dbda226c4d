"""The analysing process of the three in-process workloads.

Started by :mod:`perfbench.run` in a fresh process with a hermetic
environment::

    python3 -m perfbench.explore_worker --workload NAME --seed N --seconds S --mode MODE

It builds the workload's batch (forms and references), prints a ``ready``
line, and with ``--mode setup`` exits there.  ``--mode measure`` then calls
``run_analysis`` on the batch, in whole passes, until the time is up,
checking every verdict as it goes; ``--mode trace`` does the same with the layer
wrappers installed, running each analysis once traced and once untraced
(alternating which goes first) so the tracing overhead is measured on the
same work.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Runner:
    """One analysis at a time, with its verdict checked against the reference."""

    def __init__(self, workload: str, batch: list) -> None:
        from repro.service import dispatch
        from repro.service.request import request_from_wire

        self.dispatch = dispatch
        self.items = batch
        overrides = {"workers": 2} if workload == "explore-parallel" else {}
        self.requests = [request_from_wire(dict(item["request"], **overrides)) for item in batch]

    def run(self, index: int) -> "tuple[dict, object]":
        from perfbench.oracle import check_verdict, states_of

        slot = index % len(self.items)
        item = self.items[slot]
        started = time.perf_counter()
        try:
            result = self.dispatch.run_analysis(self.requests[slot])
        except Exception as error:  # noqa: BLE001 - a failing analysis is a counted failure
            return {"slot": slot, "label": item["label"], "latency_s": time.perf_counter() - started,
                    "states": 0, "decided": False, "answer": None,
                    "error": f"{type(error).__name__}: {error}"}, None
        latency = time.perf_counter() - started
        sample = {
            "slot": slot,
            "label": item["label"],
            "latency_s": latency,
            "states": states_of(result.stats),
            "decided": bool(result.decided),
            "answer": result.answer,
            "error": check_verdict(item["expected"], result.decided, result.answer, result.stats),
        }
        return sample, result


def serial_parity(runner: Runner, results: dict) -> list:
    """Re-run each distinct form serially and compare with the parallel run."""
    from dataclasses import replace

    from perfbench.oracle import parity_fields

    failures = []
    for slot, result in sorted(results.items()):
        serial = runner.dispatch.run_analysis(replace(runner.requests[slot], workers=1))
        want = parity_fields(serial.stats, serial.decided, serial.answer)
        got = parity_fields(result.stats, result.decided, result.answer)
        if want != got:
            failures.append(f"{runner.items[slot]['label']}: parallel {got} != serial {want}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.engine import _codec
    from perfbench import workloads
    from perfbench.measure import peak_rss_mb, peak_rss_with_children_mb

    runner = Runner(args.workload, workloads.batch_for(args.workload, args.seed))
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0

    recorder = None
    if args.mode == "trace":
        from perfbench import layers, tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder, layers.layer_table(server=False))

    samples, untraced, engine_stats, results = [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    started = time.perf_counter()
    index = 0
    # whole passes over the batch only, so every run has the batch's mix
    while index % len(runner.items) or time.perf_counter() < deadline:
        if recorder is None:
            sample, result = runner.run(index)
        else:
            order = (True, False) if index % 2 == 0 else (False, True)
            for traced in order:
                recorder.active = traced
                recorder.set_request(index)
                outcome = runner.run(index)
                if traced:
                    sample, result = outcome
                else:
                    untraced.append(outcome[0]["latency_s"])
            recorder.active = False
        sample["pass"] = index // len(runner.items)
        samples.append(sample)
        if result is not None:
            engine_stats.append(result.stats.get("engine") or {})
            results.setdefault(sample["slot"], result)
        index += 1
    wall = time.perf_counter() - started

    failures = [f"{s['label']}: {s['error']}" for s in samples if s["error"]]
    if args.workload == "explore-parallel":
        failures.extend(serial_parity(runner, results))
        # the frontier workers are reaped children; their peak counts too
        rss = peak_rss_with_children_mb()
    else:
        rss = peak_rss_mb()
    payload = {
        "event": "result",
        "samples": [{key: s[key] for key in ("label", "latency_s", "states", "decided", "error",
                                             "pass")}
                    for s in samples],
        "wall_s": wall,
        "peak_rss_mb": rss,
        "accelerated": bool(_codec.ACCELERATED),
        "failures": failures,
    }
    if recorder is not None:
        traced_wall = sum(s["latency_s"] for s in samples)
        totals = recorder.totals()
        # the outermost span is run_analysis itself (service.dispatch), so
        # its self time is whatever no layer wrapper covered: count only the
        # layer spans beneath it as attributed
        covered = sum(min(seconds, samples[req]["latency_s"])
                      for req, seconds in recorder.root_seconds().items()
                      if isinstance(req, int) and req < len(samples))
        covered -= totals.get("service.dispatch", {}).get("self_s", 0.0)
        payload["trace"] = {
            "totals": totals,
            "engine_stats": engine_stats,
            "overhead_ratio": traced_wall / sum(untraced) if untraced else 0.0,
            "unattributed_share": max(0.0, 1.0 - covered / traced_wall) if traced_wall else 0.0,
            "dropped_spans": recorder.dropped,
        }
        if args.trace_out:
            recorder.write_chrome_trace(args.trace_out, f"{args.workload} analysing process")
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
