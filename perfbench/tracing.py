"""Span recording around the program's layer entry points.

:func:`install` replaces each entry point named in a layer table (see
:mod:`perfbench.layers`) with a wrapper that records one span per call:
name, start, end, parent span, request id and thread.
:meth:`Installation.uninstall` puts every original back.  The program's own source is untouched; the
wrappers sit on the class or module attribute the callers resolve.

Spans are kept in memory.  Self time — a span's duration minus the part its
child spans cover — is accumulated per name as spans close, so every call
counts even when the stored span list reaches its cap; the stored spans are
written as Chrome trace events (the format ``repro trace report`` reads)
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

#: Stored spans per recorder; per-name totals keep counting past it.
MAX_STORED_SPANS = 100_000


class SpanRecorder:
    """Per-thread span stacks plus per-name ``[calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self.active = False
        self.pid = os.getpid()
        self.ns_base = time.perf_counter_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list = []  # (tid, totals, stored spans, root time) per thread
        self._threads_lock = threading.Lock()
        self._default_request = None

    # -- per-thread state ------------------------------------------------ #

    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals, local.spans
        except AttributeError:
            local.stack = []
            local.totals = {}
            local.spans = []
            local.roots = {}
            local.request = None
            with self._threads_lock:
                self._threads.append(
                    (threading.get_ident(), local.totals, local.spans, local.roots))
            return local.stack, local.totals, local.spans

    def set_request(self, request_id, this_thread_only: bool = False) -> None:
        """Tag later spans with *request_id* (all threads, or this one)."""
        if this_thread_only:
            self._state()
            self._local.request = request_id
        else:
            self._default_request = request_id

    def request(self):
        request_id = getattr(self._local, "request", None)
        return self._default_request if request_id is None else request_id

    # -- span lifecycle -------------------------------------------------- #

    def enter(self, name: str) -> list:
        stack, _totals, _spans = self._state()
        parent = stack[-1][3] if stack else 0
        frame = [name, time.perf_counter_ns(), 0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack, totals, spans = self._state()
        stack.pop()
        name, start, child_ns, span_id, parent = frame
        duration = end - start
        request = self.request()
        if stack:
            stack[-1][2] += duration
        else:
            roots = self._local.roots
            roots[request] = roots.get(request, 0) + duration
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if len(spans) < MAX_STORED_SPANS:
            spans.append((span_id, parent, name, start, end, request))

    # -- read-out -------------------------------------------------------- #

    def _thread_states(self) -> list:
        with self._threads_lock:
            return list(self._threads)

    @property
    def dropped(self) -> int:
        """Spans counted in the totals but not stored (past the cap)."""
        states = self._thread_states()
        calls = sum(entry[0] for _tid, totals, _spans, _roots in states
                    for entry in list(totals.values()))
        return calls - sum(len(spans) for _tid, _totals, spans, _roots in states)

    def root_seconds(self) -> dict:
        """``request -> seconds`` covered by outermost spans, over every thread."""
        merged: dict = {}
        for _tid, _totals, _spans, roots in self._thread_states():
            for request, ns in list(roots.items()):
                merged[request] = merged.get(request, 0.0) + ns / 1e9
        return merged

    def totals(self) -> dict:
        """``name -> {"calls", "total_s", "self_s"}`` over every thread."""
        merged: dict = {}
        for _tid, totals, _spans, _roots in self._thread_states():
            for name, (calls, total_ns, self_ns) in list(totals.items()):
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total_ns
                entry[2] += self_ns
        return {
            name: {"calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9}
            for name, (calls, total_ns, self_ns) in merged.items()
        }

    def spans(self) -> list:
        """Stored spans as ``(id, parent, name, start_ns, end_ns, request, tid)``."""
        out = []
        for tid, _totals, spans, _roots in self._thread_states():
            out.extend(span + (tid,) for span in list(spans))
        out.sort(key=lambda span: span[3])
        return out

    def chrome_events(self, process: str) -> list:
        events = [{"ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
                   "args": {"name": process}}]
        for span_id, parent, name, start, end, request, tid in self.spans():
            events.append({
                "ph": "X", "name": name, "pid": self.pid, "tid": tid,
                "ts": (start - self.ns_base) / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"span": span_id, "parent": parent, "req": request},
            })
        return events

    def write_chrome_trace(self, path, process: str) -> int:
        from repro.obs.tracing import write_chrome_trace

        return write_chrome_trace(path, self.chrome_events(process))


def self_times(spans) -> dict:
    """Self time per name computed from stored spans alone.

    The offline counterpart of the recorder's running totals: a span's
    self time is its duration minus the durations of its direct children.
    """
    durations = {span[0]: span[4] - span[3] for span in spans}
    children: dict = {}
    for span in spans:
        if span[1] in durations:
            children[span[1]] = children.get(span[1], 0) + (span[4] - span[3])
    out: dict = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0) + durations[span[0]] - children.get(span[0], 0)
    return {name: ns / 1e9 for name, ns in out.items()}


# --------------------------------------------------------------------------- #
# install / uninstall
# --------------------------------------------------------------------------- #


def _wrap(recorder: SpanRecorder, name: str, fn):
    enter = recorder.enter
    leave = recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)

    wrapper.__perfbench_original__ = fn
    return wrapper


def resolve(target: str):
    """The module, or class in it, a ``"module"``/``"module:Class"`` target names."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def public_methods(cls) -> tuple:
    """Public, non-generator functions defined on *cls* itself."""
    return tuple(
        attr for attr, value in vars(cls).items()
        if not attr.startswith("_") and inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
    )


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patched: list = []  # (owner, attr, original, had_own)

    def uninstall(self) -> None:
        self.recorder.active = False
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


def install(recorder: SpanRecorder, table) -> Installation:
    """Wrap every ``(target, attribute, span name)`` of *table*.

    *target* is ``"module"`` or ``"module:Class"``; the attribute is
    replaced where the callers look it up.  Recording starts when
    ``recorder.active`` is set, and forked children never record.
    """
    installation = Installation(recorder)
    for target, attr, span_name in table:
        owner = resolve(target)
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{target}.{attr}: static and class methods are not wrapped")
        setattr(owner, attr, _wrap(recorder, span_name, original))
        installation._patched.append((owner, attr, original, had_own))
    os.register_at_fork(after_in_child=functools.partial(_quiet_child, recorder))
    return installation


def _quiet_child(recorder: SpanRecorder) -> None:
    recorder.active = False
