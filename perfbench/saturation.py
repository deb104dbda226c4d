"""Where the pod-service workload saturates: latency and backlog by rate.

Usage, from the repository root::

    python3 perfbench/saturation.py --rates 4,8,12,16,24 --seconds 15 --seed 1

For each offered rate it boots a fresh ``repro serve --cache`` (2 job
workers, as in the pod-service workload), sends the pod-service mix
open-loop at that rate, checks every verdict, and prints one line: requests
completed per second, median and 75th-percentile latency (from due time to
``finished_at``), queue wait in the first and last quarter of the schedule,
and the drain (the last answer's time after the last due time).  The
capacity is the highest rate whose 75th percentile meets the pod-service
latency limit with every answer correct and no growing backlog (queue
wait in the last quarter at most twice that of the first, or under 0.1 s).  The last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.measure import (  # noqa: E402
    PROGRAM_ENV_KNOBS,
    ROOT,
    WORK_DIR,
    hermetic_env,
    median,
    percentile,
)


#: The backlog grows when the last quarter of the schedule waits in the
#: queue more than this many times as long as the first quarter did, and
#: longer than :data:`BACKLOG_FLOOR_S`.
BACKLOG_GROWTH = 2.0
BACKLOG_FLOOR_S = 0.1


def one_rate(rate: float, seed: int, seconds: float, limit_s: float, tmp: Path, env: dict) -> dict:
    from perfbench import pod
    from perfbench.workloads import pod_schedule

    schedule = pod_schedule(seed, seconds, rate=rate)
    server = pod.PodProcess(tmp / f"rate-{rate:g}", env)
    try:
        server.wait_ready()
        driven = pod.drive(server, schedule)
    finally:
        server.stop()
    rows = pod.judge(schedule, driven["records"])
    answered = [row for row in rows if row["latency_s"] is not None]
    latencies = [row["latency_s"] for row in answered]
    quarter = max(1, len(rows) // 4)

    def wait_p50(part):
        waits = [row["queue_wait_s"] for row in part if row["queue_wait_s"] is not None]
        return median(waits) if waits else float("nan")

    wrong = sum(1 for row in rows if row.get("error"))
    drain = driven["span_s"] - schedule[-1]["due"]
    p75 = percentile(latencies, 75.0) if latencies else float("inf")
    line = {
        "rate_per_s": rate,
        "requests": len(rows),
        "completed_per_s": len(answered) / driven["span_s"],
        "latency_p50_s": median(latencies) if latencies else float("inf"),
        "latency_p75_s": p75,
        "queue_wait_first_quarter_s": wait_p50(rows[:quarter]),
        "queue_wait_last_quarter_s": wait_p50(rows[-quarter:]),
        "drain_s": drain,
        "late_max_s": driven["late_max_s"],
        "failed": wrong,
    }
    line["backlog_grows"] = line["queue_wait_last_quarter_s"] > max(
        BACKLOG_GROWTH * line["queue_wait_first_quarter_s"], BACKLOG_FLOOR_S)
    line["meets_limit"] = wrong == 0 and p75 <= limit_s and not line["backlog_grows"]
    return line


def main(argv=None) -> int:
    from perfbench.workloads import POD_RATE_PER_S, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="4,8,12,16,24")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"saturation: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    limit_s = WORKLOADS["pod-service"].latency_limit_s
    WORK_DIR.mkdir(exist_ok=True)
    tmp = WORK_DIR / f"saturation-{int(time.time())}"
    tmp.mkdir()
    env = hermetic_env(tmp)
    for knob in PROGRAM_ENV_KNOBS:
        os.environ.pop(knob, None)
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    lines = []
    try:
        for rate in (float(value) for value in args.rates.split(",")):
            line = one_rate(rate, args.seed, args.seconds, limit_s, tmp, env)
            lines.append(line)
            print("  " + " ".join(f"{key}={value:.4g}" if isinstance(value, float) else
                                  f"{key}={value}" for key, value in line.items()), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    meeting = [line["rate_per_s"] for line in lines if line["meets_limit"]]
    capacity = max(meeting, default=0.0)
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "latency_limit_s": limit_s,
                      "capacity_per_s": capacity,
                      "workload_rate_per_s": POD_RATE_PER_S,
                      "workload_share_of_capacity": POD_RATE_PER_S / capacity if capacity else None,
                      "rates": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
