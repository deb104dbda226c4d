"""Small measurement helpers shared by the benchmark's processes.

Percentiles, the tail rule, per-process peak RSS and the hermetic
environment every measured process starts from.  Nothing here imports the
program under test.
"""

from __future__ import annotations

import math
import os
import platform
from pathlib import Path

#: Percentiles the tail metric may report, lowest first.  None is higher
#: than 75: above it a 20-second run of the slower workloads leaves too few
#: samples, and the tail would change its percentile between runs.
TAIL_LADDER = (50.0, 75.0)

#: The tail must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Environment variables that would change what the program does; every
#: measured process starts with them cleared.
PROGRAM_ENV_KNOBS = ("REPRO_CACHE", "REPRO_TRACE", "REPRO_PURE")

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the ``numpy`` default) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def supported_tail(count: int) -> float:
    """The percentile to report as the tail of *count* samples.

    The highest percentile of :data:`TAIL_LADDER` that leaves at least
    :data:`TAIL_MIN_BEYOND` samples beyond it (never below the median).
    """
    for pct in reversed(TAIL_LADDER):
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[0]


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def peak_rss_with_children_mb() -> float:
    """The larger of this process's peak RSS and that of its largest reaped
    child (``RUSAGE_CHILDREN``), in MiB: the peak of any one process that
    did this process's work, forked workers included."""
    import resource

    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak_rss_mb(), children_kib / 1024.0)


def hermetic_env(tmp_dir: Path) -> dict:
    """The environment of a measured process.

    The program's own knobs are cleared, imports come from the checkout's
    ``src`` (and the benchmark package from its root), temporary files and
    the compiled codec stay inside the checkout.
    """
    env = {key: value for key, value in os.environ.items() if key not in PROGRAM_ENV_KNOBS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CODEC_CACHE"] = str(WORK_DIR / "codec")
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def host_facts() -> dict:
    """Facts recorded with every result (CPU affinity, interpreter)."""
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version()}
