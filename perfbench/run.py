"""The repository benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore-bounded --seed 1 --seconds 20 --trace 0

Workloads: ``explore-bounded``, ``explore-depth1``, ``pod-service``,
``explore-parallel`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run is timed with no instrumentation and prints every end-to-end metric;
with ``--trace 1`` the layer wrappers are installed in the analysing process
(or the server) and the per-layer metrics are printed instead, with a layer
breakdown naming the dominant layer.  Every verdict is checked against an
independent reference; a wrong one makes ``correct`` false and the exit
code 1.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.measure import (  # noqa: E402
    PROGRAM_ENV_KNOBS,
    ROOT,
    WORK_DIR,
    hermetic_env,
    host_facts,
    median,
    percentile,
    supported_tail,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Every end-to-end metric: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("states_per_s", "states/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("goodput_per_s", "req/s"),
    ("decided_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _spawn_worker(env: dict, args, mode: str, seconds: float, trace_out=None):
    command = [sys.executable, "-m", "perfbench.explore_worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))


def run_explore(args, env: dict, traced: bool) -> dict:
    """Set up :data:`SETUPS` analysing processes (the last one measures)."""
    setup_times = []
    result = None
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        mode = ("trace" if traced else "measure") if last else "setup"
        trace_out = WORK_DIR / "traces" / f"{args.workload}.json" if traced else None
        started = time.perf_counter()
        worker = _spawn_worker(env, args, mode, args.seconds, trace_out)
        try:
            ready = worker.stdout.readline()
            setup_times.append(time.perf_counter() - started)
            if json.loads(ready or "{}").get("event") != "ready":
                raise RuntimeError(f"analysing process failed during set-up: {ready!r}")
            lines = worker.stdout.read().splitlines()
        finally:
            worker.stdout.close()
            code = worker.wait()
        if code != 0:
            raise RuntimeError(f"analysing process exited with {code}")
        if last:
            result = json.loads(lines[-1])
    rows = [dict(sample, repeat=False) for sample in result["samples"]]
    outcome = {"setup_times": setup_times, "rows": rows, "peak_rss_mb": result["peak_rss_mb"],
               "wall_s": result["wall_s"], "accelerated": result["accelerated"],
               "failures": result["failures"], "late_max_s": 0.0}
    if traced:
        trace = result["trace"]
        outcome["trace"] = {
            "totals": trace["totals"],
            "requests": len(rows),
            "dropped_spans": trace["dropped_spans"],
            "trace_path": str(trace_out),
            "engine_stats": trace["engine_stats"],
            "extra": {"overhead_ratio": trace["overhead_ratio"],
                      "unattributed_share": trace["unattributed_share"]},
        }
    return outcome


def run_pod(args, env: dict, tmp: Path, traced: bool) -> dict:
    from perfbench import pod

    # a traced run replays its schedule on an untraced server for the
    # overhead ratio, so each half gets half the time
    seconds = args.seconds / 2 if traced else args.seconds
    outcome = pod.run(tmp, env, args.seed, seconds, SETUPS, traced)
    outcome["failures"] = [f"{row['label']}: {row['error']}" for row in outcome["rows"] if row["error"]]
    return outcome


def end_to_end(workload, outcome: dict) -> "tuple[dict, dict]":
    """The end-to-end metrics of one untraced run, plus facts for the log."""
    rows = outcome["rows"]
    answered = [row for row in rows if row.get("latency_s") is not None]
    latencies = [row["latency_s"] for row in answered]
    if workload.name == "pod-service":
        # throughput of the analyses themselves: first occurrences, server run time
        cold = [row for row in answered if not row["repeat"]]
        states_per_s = sum(row["states"] for row in cold) / max(sum(row["run_s"] for row in cold), 1e-9)
    else:
        # the median over whole passes of the batch, each pass's states over
        # its analysis time: a burst of host contention moves one pass only
        passes: dict = {}
        for row in answered:
            states, seconds = passes.get(row["pass"], (0, 0.0))
            passes[row["pass"]] = (states + row["states"], seconds + row["latency_s"])
        states_per_s = median([states / max(seconds, 1e-9) for states, seconds in passes.values()])
    attempted = len(rows)
    # wrong rows plus, for explore-parallel, serial-parity breaks
    failed = min(len(outcome["failures"]), attempted)
    tail_pct = supported_tail(len(latencies))
    within = sum(1 for row in answered
                 if not row.get("error") and row["latency_s"] <= workload.latency_limit_s)
    metrics = {
        "setup_s": median(outcome["setup_times"]),
        "states_per_s": states_per_s,
        "latency_p50_s": median(latencies) if latencies else float("nan"),
        "latency_tail_s": percentile(latencies, tail_pct) if latencies else float("nan"),
        "goodput_per_s": within / outcome["wall_s"],
        "decided_share": sum(1 for row in rows if row.get("decided")) / attempted,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "setup_times_s": [round(value, 4) for value in outcome["setup_times"]],
        "latency_limit_s": workload.latency_limit_s,
    }
    return metrics, facts


def per_layer(outcome: dict) -> "tuple[dict, list]":
    from perfbench.layers import layer_shares, per_layer_metrics

    trace = outcome["trace"]
    extra = dict(trace["extra"], late_max_s=outcome["late_max_s"])
    metrics = per_layer_metrics(trace["totals"], trace["requests"], trace["engine_stats"], extra)
    return metrics, layer_shares(trace["totals"])


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    WORK_DIR.mkdir(exist_ok=True)
    (WORK_DIR / "traces").mkdir(exist_ok=True)
    tmp = WORK_DIR / f"run-{os.getpid()}"
    tmp.mkdir()
    env = hermetic_env(tmp)
    # this process imports the program too (the pod client builds its
    # requests), so it runs in the same environment as the measured ones
    for knob in PROGRAM_ENV_KNOBS:
        os.environ.pop(knob, None)
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if workload.name == "pod-service":
            outcome = run_pod(args, env, tmp, traced)
        else:
            outcome = run_explore(args, env, traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    facts = dict(host_facts(), workload=workload.name, seed=args.seed, trace=traced,
                 **workload.details)
    if "accelerated" not in outcome:
        from repro.engine import _codec  # the server loads the same build

        outcome["accelerated"] = _codec.ACCELERATED
    facts["accelerated"] = outcome["accelerated"]
    rows = outcome["rows"]
    attempted = len(rows)
    failures = outcome["failures"]
    print(f"perfbench {workload.name}: {workload.why}")
    print(f"  exercises {', '.join(workload.exercises)}; bypasses {', '.join(workload.bypasses)}")
    if traced:
        metrics, shares = per_layer(outcome)
        values = {name: value for name, (value, _unit) in metrics.items()}
        units = {name: unit for name, (_value, unit) in metrics.items()}
        trace = outcome["trace"]
        facts.update(requests_traced=trace["requests"], dropped_spans=trace["dropped_spans"],
                     trace_file=os.path.relpath(trace["trace_path"], ROOT))
        print("  layer self time (share of all traced self time):")
        for layer, seconds, share in shares:
            print(f"    {layer:<20} {seconds:10.4f} s  {share:6.1%}")
        if shares:
            print(f"  dominant layer: {shares[0][0]}")
    else:
        values, log = end_to_end(workload, outcome)
        units = dict(END_TO_END)
        facts.update(log)
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print("  facts: " + json.dumps(facts, sort_keys=True, default=str))
    for failure in failures:
        print(f"  WRONG: {failure}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
