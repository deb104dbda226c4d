"""Independent references for every verdict the benchmark asks for.

A reference never comes from the procedure under test:

* Theorem 5.1 and Corollary 4.2 forms are completable iff their CNF is
  satisfiable, and Theorem 5.6 forms are semi-sound iff it is not — both
  decided by :func:`repro.logic.dpll.is_satisfiable`;
* Theorem 4.6 forms are completable iff a deadlock is reachable — decided by
  the explicit-state :func:`repro.reductions.deadlock.deadlock_reachable`;
* positive deep documents are semi-sound (every field may always be added,
  so the completion path can always be built);
* catalogue forms have the answers their docstrings and the paper state
  (:data:`CATALOGUE_ANSWERS`);
* workflow extraction is compared with the pre-engine reference explorer
  :func:`repro.analysis.statespace.legacy_explore_bounded`.

:func:`check_verdict` is the single rule every verdict passes through.
"""

from __future__ import annotations

import json
from typing import Optional

#: Known answers of the catalogue requests the pod-service mix sends:
#: ``(form, kind, formula) -> answer``.  Sources: the ``repro.fbwis.catalog``
#: docstrings (Section 3.5 of the paper for the two broken variants) and
#: the invariants' meaning — ``¬f`` fails on any completable form whose
#: completion is ``f``.
CATALOGUE_ANSWERS = {
    ("leave-application-finite", "completability", None): True,
    ("leave-application-finite", "semisoundness", None): True,
    ("leave-application-incompletable", "completability", None): False,
    ("leave-application-not-semisound", "completability", None): True,
    ("leave-application-not-semisound", "semisoundness", None): False,
    ("tax-declaration", "completability", None): True,
    ("purchase-order", "semisoundness", None): True,
    ("leave-application-finite", "invariant", "¬d ∨ s"): True,
    ("leave-application-finite", "invariant", "¬f"): False,
    ("tax-declaration", "invariant", "¬notice ∨ assessment[accept ∨ audit[finding]]"): True,
}


def sat_reference(cnf) -> bool:
    from repro.logic.dpll import is_satisfiable

    return is_satisfiable(cnf)


def deadlock_reference(problem) -> bool:
    from repro.reductions.deadlock import deadlock_reachable

    return deadlock_reachable(problem)


def workflow_reference(form, limits) -> dict:
    """State and transition counts of the legacy bounded explorer."""
    from repro.analysis.statespace import legacy_explore_bounded

    graph = legacy_explore_bounded(form, limits=limits)
    truncated = graph.truncated_by_states or graph.truncated_by_size or graph.truncated_by_copies
    return {
        "states": len(graph.representatives),
        "transitions": sum(len(edges) for edges in graph.transitions.values()),
        "truncated": bool(truncated),
    }


def check_verdict(expected, decided: bool, answer, stats: Optional[dict] = None) -> Optional[str]:
    """Why a verdict is wrong, or ``None`` when it agrees with *expected*.

    *expected* is the reference answer (a bool), or for workflow requests
    the reference counts dict.  A decided verdict must equal the reference;
    an undecided one must carry no answer (it may not guess).
    """
    if isinstance(expected, dict):
        stats = stats or {}
        if expected["truncated"]:
            return "workflow reference is truncated; the request is mis-built"
        if not decided:
            return "exact workflow extraction reported truncated"
        got = (stats.get("states"), stats.get("transitions"))
        want = (expected["states"], expected["transitions"])
        if got != want:
            return f"workflow has states/transitions {got}, reference {want}"
        return None
    if not isinstance(expected, bool):
        return f"no reference for this request ({expected!r})"
    if decided:
        if answer is not expected:
            return f"decided {answer!r}, reference {expected!r}"
        return None
    if answer is not None:
        return f"undecided verdict carries answer {answer!r}"
    return None


def states_of(stats: dict) -> int:
    """States a result explored: bounded, depth-1 (canonical) or workflow."""
    return int(stats.get("states_explored") or stats.get("canonical_states") or stats.get("states") or 0)


def parity_fields(result_stats: dict, decided, answer) -> tuple:
    """What serial and parallel runs of one form must agree on."""
    return (states_of(result_stats), result_stats.get("transitions"), decided, answer)


def canonical_bytes(body) -> bytes:
    """The byte form two replies are compared in."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def check_repeat(original: dict, repeat: dict, cache_must_hit: bool) -> Optional[str]:
    """Check an exact repeat's reply against its original's.

    When the original had finished before the repeat was submitted, the pod's
    result cache must answer, byte-identically.  A repeat that overlapped its
    original runs cold, and must agree on every parity field.
    """
    if cache_must_hit:
        if canonical_bytes(original) != canonical_bytes(repeat):
            return "cached reply differs from the cold reply"
        return None
    want = parity_fields(original.get("stats") or {}, original.get("decided"), original.get("answer"))
    got = parity_fields(repeat.get("stats") or {}, repeat.get("decided"), repeat.get("answer"))
    if want != got:
        return f"overlapping repeat answered {got}, original {want}"
    return None
