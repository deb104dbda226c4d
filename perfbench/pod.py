"""The pod-service workload: a ``repro serve --cache`` process and an
open-loop client.

One client thread sends the seeded Poisson schedule of
:func:`perfbench.workloads.pod_schedule`: each submit goes out at its due
time whatever the state of earlier ones; once the schedule has been sent
the thread collects the replies.  Latency runs from a
request's *due* time to the server's ``finished_at``, so a late generator
or a growing queue both show in it; queue wait and run time come from the
job's ``submitted_at``/``started_at``/``finished_at``.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench import oracle
from perfbench.measure import WORK_DIR, peak_rss_mb
from perfbench.workloads import pod_schedule

#: Seconds between job-list polls once the schedule has been sent.
POLL_S = 0.1

#: How long after the last due time unfinished jobs are still awaited.
DRAIN_LIMIT_S = 60.0

#: How long a server may take to answer its first ``/healthz``.
BOOT_LIMIT_S = 20.0


class PodProcess:
    """One server subprocess with a fresh store and cache directory."""

    def __init__(self, directory: Path, env: dict, traced: bool = False) -> None:
        self.store_dir = directory / "store"
        self.cache_dir = directory / "cache"
        self.stats_path = directory / "server-stats.json"
        self.trace_path = WORK_DIR / "traces" / "pod-service.json"
        serve = ["--store-dir", str(self.store_dir), "--port", "0", "--cache", str(self.cache_dir),
                 "--job-workers", "2"]
        if traced:
            command = [sys.executable, "-m", "perfbench.serve_traced",
                       "--stats-out", str(self.stats_path), "--trace-out", str(self.trace_path),
                       "--", *serve]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        directory.mkdir(parents=True, exist_ok=True)
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                                        cwd=str(directory))
        self.connection = None

    def wait_ready(self) -> None:
        """Read the bound port, then poll ``/healthz`` until it answers."""
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"pod server did not start: {line!r}")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        deadline = time.monotonic() + BOOT_LIMIT_S
        while True:
            try:
                status, _ = self.call("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                self.connection.close()
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("pod server never answered /healthz")
            time.sleep(0.01)

    def call(self, method: str, path: str, body=None) -> "tuple[int, dict]":
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful shutdown), then wait; kill if it hangs."""
        if self.connection is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def store_bytes_by_job(self) -> dict:
        """``job id -> bytes`` of each per-job engine store the server left."""
        sizes: dict = {}
        for path in self.store_dir.glob("*.store.sqlite*"):
            job_id = path.name.split(".store.sqlite", 1)[0]
            sizes[job_id] = sizes.get(job_id, 0) + path.stat().st_size
        return sizes


def boot(directory: Path, env: dict, seed: int, seconds: float, traced: bool = False):
    """Set-up as a user pays it: build the inputs and references, start the
    server, wait for its first ``/healthz``.  Returns (seconds, schedule, pod)."""
    started = time.perf_counter()
    schedule = pod_schedule(seed, seconds)
    pod = PodProcess(directory, env, traced=traced)
    pod.wait_ready()
    return time.perf_counter() - started, schedule, pod


def drive(pod: PodProcess, schedule: list) -> dict:
    """Send *schedule* open-loop, then collect every reply.

    The thread only submits while the schedule runs, so it adds no load of
    its own and is late only by what the server's front end costs; replies
    are read back afterwards (they are durable in the job store, and their
    timestamps are the server's).
    """
    records = [None] * len(schedule)
    pending: dict = {}
    late_max = 0.0
    wall0 = time.time()
    clock0 = time.perf_counter()
    for index, entry in enumerate(schedule):
        delay = entry["due"] - (time.perf_counter() - clock0)
        if delay > 0:
            time.sleep(delay)
        late_max = max(late_max, time.perf_counter() - clock0 - entry["due"])
        status, body = pod.call("POST", "/v1/jobs", entry["item"]["request"])
        if status == 202:
            pending[body["job"]["job_id"]] = index
        else:
            records[index] = {"error": f"submit answered {status}: {body.get('error')}"}
    drain_deadline = time.perf_counter() + DRAIN_LIMIT_S
    while pending:
        _collect(pod, pending, records, schedule, wall0)
        if pending and time.perf_counter() > drain_deadline:
            for job_id, index in pending.items():
                records[index] = {"error": f"{job_id} unfinished after the drain limit"}
            break
        if pending:
            time.sleep(POLL_S)
    finished = [record["finished_at"] for record in records if record and "finished_at" in record]
    # the run lasts from the first due time to the last answer
    span = max(finished, default=wall0) - wall0
    return {"records": records, "late_max_s": late_max, "span_s": max(span, schedule[-1]["due"])}


def _collect(pod: PodProcess, pending: dict, records: list, schedule: list, wall0: float) -> None:
    status, listing = pod.call("GET", "/v1/jobs")
    if status != 200:
        raise RuntimeError(f"job listing answered {status}")
    for job in listing["jobs"]:
        index = pending.get(job["job_id"])
        if index is None or job["state"] in ("queued", "running"):
            continue
        del pending[job["job_id"]]
        status, body = pod.call("GET", f"/v1/jobs/{job['job_id']}/result")
        record = {
            "job_id": job["job_id"],
            "latency_s": job["finished_at"] - (wall0 + schedule[index]["due"]),
            "submitted_at": job["submitted_at"],
            "finished_at": job["finished_at"],
            "queue_wait_s": (job["started_at"] or job["finished_at"]) - job["submitted_at"],
            "run_s": job["finished_at"] - (job["started_at"] or job["finished_at"]),
        }
        if status == 200:
            record["result"] = body["result"]
        else:
            record["error"] = f"job {job['state']} with {status}: {body.get('error')}"
        records[index] = record


def judge(schedule: list, records: list) -> list:
    """Check every reply against its reference (and repeats against their
    originals); returns one row per request."""
    rows = []
    for index, (entry, record) in enumerate(zip(schedule, records)):
        item = entry["item"]
        row = {"label": item["label"], "repeat": entry["repeat_of"] is not None,
               "latency_s": None, "run_s": None, "queue_wait_s": None, "states": 0,
               "decided": False, "job_id": None}
        rows.append(row)
        if record is None or "error" in record:
            row["error"] = (record or {}).get("error", "no reply")
            continue
        result = record["result"]
        stats = result.get("stats") or {}
        row.update(latency_s=record["latency_s"], run_s=record["run_s"],
                   queue_wait_s=record["queue_wait_s"], job_id=record["job_id"],
                   decided=bool(result.get("decided")), states=oracle.states_of(stats))
        row["error"] = oracle.check_verdict(item["expected"], result.get("decided"),
                                            result.get("answer"), stats)
        if row["error"] is None and entry["repeat_of"] is not None:
            original = records[entry["repeat_of"]]
            if original is not None and "result" in original:
                must_hit = original["finished_at"] < record["submitted_at"]
                row["error"] = oracle.check_repeat(original["result"], result, must_hit)
    return rows


def slices_per_job(metrics: dict) -> float:
    """Slices a cold job ran, from the server's own counters."""
    def total(prefix):
        return sum(value for key, value in metrics.items()
                   if key.split("{", 1)[0] == prefix and isinstance(value, (int, float)))

    done = total("service.jobs.done")
    cold = done - total("service.result_cache.hits")
    interrupted = total("service.job.slices")
    return (cold + interrupted) / cold if cold > 0 else 0.0


def run(directory: Path, env: dict, seed: int, seconds: float, setups: int, traced: bool) -> dict:
    """One pod-service run: *setups* boots (the last one serves), the
    schedule, the verdict checks, the server's peak RSS and, when *traced*,
    the server's span totals and an untraced replay for the overhead."""
    setup_times = []
    pod = schedule = None
    for attempt in range(setups):
        if pod is not None:
            pod.stop()
        elapsed, schedule, pod = boot(directory / f"boot-{attempt}", env, seed, seconds, traced)
        setup_times.append(elapsed)
    try:
        driven = drive(pod, schedule)
        status, metricsz = pod.call("GET", "/metricsz")
        rss = pod.peak_rss_mb()
    finally:
        pod.stop()
    if status != 200:
        raise RuntimeError(f"/metricsz answered {status}")
    rows = judge(schedule, driven["records"])
    outcome = {"setup_times": setup_times, "rows": rows, "peak_rss_mb": rss,
               "late_max_s": driven["late_max_s"], "wall_s": driven["span_s"]}
    if traced:
        outcome["trace"] = _trace_figures(pod, rows, driven["records"], schedule, metricsz, env,
                                          directory, seed, seconds)
    return outcome


def _trace_figures(pod, rows, records, schedule, metricsz, env, directory, seed, seconds) -> dict:
    with open(pod.stats_path, encoding="utf-8") as fh:
        server = json.load(fh)
    store_bytes = pod.store_bytes_by_job()
    states_by_job = {row["job_id"]: row["states"] for row in rows if row["job_id"]}
    store_states = sum(states_by_job.get(job_id, 0) for job_id in store_bytes)
    covered = latency = 0.0
    for row in rows:
        if row["latency_s"] is None:
            continue
        latency += row["latency_s"]
        covered += min(row["latency_s"],
                       row["queue_wait_s"] + server["roots"].get(row["job_id"], 0.0))
    # each job's outermost span is the worker's own (service.worker): its
    # self time is what no layer wrapper beneath it covered
    covered -= server["totals"].get("service.worker", {}).get("self_s", 0.0)
    # the same schedule on an untraced server gives the overhead base
    _elapsed, replay_schedule, replay = boot(directory / "untraced", env, seed, seconds)
    try:
        replayed = drive(replay, replay_schedule)
    finally:
        replay.stop()
    traced_run = sum(row["run_s"] for row in rows if row["run_s"] is not None and not row["repeat"])
    untraced_run = sum((record or {}).get("run_s") or 0.0
                       for record, entry in zip(replayed["records"], replay_schedule)
                       if entry["repeat_of"] is None)
    return {
        "totals": server["totals"],
        "requests": sum(1 for row in rows if row["job_id"]),
        "dropped_spans": server["dropped_spans"],
        "trace_path": str(pod.trace_path),
        "extra": {
            "store_bytes": sum(store_bytes.values()),
            "store_states": store_states,
            "cache_stats": metricsz.get("cache") or {},
            "queue_waits": [row["queue_wait_s"] for row in rows if row["queue_wait_s"] is not None],
            "slices_per_job": slices_per_job(metricsz.get("metrics") or {}),
            "overhead_ratio": traced_run / untraced_run if untraced_run else 0.0,
            "unattributed_share": max(0.0, 1.0 - covered / latency) if latency else 0.0,
        },
        "engine_stats": [(record.get("result") or {}).get("stats", {}).get("engine") or {}
                         for record, entry in zip(records, schedule)
                         if record and entry["repeat_of"] is None and "result" in record],
    }

