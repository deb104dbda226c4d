"""``repro serve`` with the layer wrappers installed in the server process.

Usage (from :mod:`perfbench.pod`)::

    python3 -m perfbench.serve_traced --stats-out S.json --trace-out T.json -- <serve args>

The wrappers go in before the server is built, recording starts, and then
``repro.cli.main(["serve", ...])`` runs unchanged until SIGTERM.  On exit
the per-span totals and per-job root coverage are written to ``--stats-out``
and the stored spans, as Chrome trace events, to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys


def tag_jobs(recorder) -> None:
    """Tag every span a job worker records with the job's id."""
    from repro.service.server import PodServer

    spanned = PodServer._run_job

    @functools.wraps(spanned)
    def run_job(self, job, label):
        recorder.set_request(job.job_id, this_thread_only=True)
        try:
            return spanned(self, job, label)
        finally:
            recorder.set_request(None, this_thread_only=True)

    PodServer._run_job = run_job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    from perfbench import layers, tracing
    from repro import cli

    recorder = tracing.SpanRecorder()
    tracing.install(recorder, layers.layer_table(server=True))
    tag_jobs(recorder)
    recorder.active = True
    code = cli.main(["serve", *serve_args])
    recorder.active = False
    with open(args.stats_out, "w", encoding="utf-8") as fh:
        json.dump({
            "totals": recorder.totals(),
            "roots": {str(req): seconds for req, seconds in recorder.root_seconds().items()},
            "dropped_spans": recorder.dropped,
        }, fh)
    recorder.write_chrome_trace(args.trace_out, "pod server")
    return code


if __name__ == "__main__":
    sys.exit(main())
