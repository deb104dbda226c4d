"""The four workloads: what each sends, why, and which layers it exercises.

Every input is a pure function of ``(workload, seed)``: the generators draw
from ``random.Random(f"perfbench/{name}/{seed}")`` and from the seeded
benchgen constructors, so two runs with one seed send identical requests.
The class balance of each batch is fixed (for instance, alternating
satisfiable and unsatisfiable CNFs, chosen by the DPLL reference), so the
share of decided verdicts and the cost per request do not drift with the
seed.

An *item* is one analysis: ``{"label", "family", "request", "expected"}``
where ``request`` is the ``analysis-request/1`` wire dict (forms inline) and
``expected`` the reference verdict from :mod:`perfbench.oracle`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from perfbench import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: tuple
    bypasses: tuple
    #: a request answered later than this counts against goodput (seconds)
    latency_limit_s: float
    details: dict = field(default_factory=dict)


#: Corollary 4.2 forms and deep documents are explored to this many states.
BOUNDED_CAP = 800

#: Deep documents cost more per state; their cap keeps them near the
#: Corollary 4.2 forms' cost per request.
DEEP_CAP = 600

#: Candidates drawn for every generated CNF or deadlock problem; a fixed
#: budget keeps set-up cost independent of the seed.
DRAWS = 16

#: About one random deadlock problem in ten lies in the wanted band of
#: reachable configurations, so more are drawn: all 64 miss it for about
#: one item in a thousand, which then takes the nearest one below the band.
DEADLOCK_DRAWS = 64

#: Pod-service open loop: requests per second, fixed below saturation
#: (``perfbench/saturation.py`` measures the capacity it is a fraction of).
POD_RATE_PER_S = 4.0

#: Repeats point at requests due at least this long before them.
POD_REPEAT_MIN_AGE_S = 3.0

WORKLOADS = {
    "explore-bounded": Workload(
        name="explore-bounded",
        why=(
            "serial in-memory run_analysis on Corollary 4.2 and deep d=4 forms to a "
            "800-state cap: shaper, interner, arena, representatives and guards do all the work"
        ),
        exercises=("analysis", "engine", "engine.interning", "engine.arena", "engine.guards",
                   "core.formulas", "io.serialization", "service.dispatch"),
        bypasses=("engine.store", "cache", "service.server", "service.jobs", "engine.workers",
                  "engine.wire"),
        latency_limit_s=5.0,
        details={"state_cap": BOUNDED_CAP, "loop": "closed, one caller"},
    ),
    "explore-depth1": Workload(
        name="explore-depth1",
        why=(
            "Table 1 depth-1 reductions (Thm 5.1 SAT n=11, Thm 5.6 n=7, Thm 4.6 deadlock): "
            "frozenset states and projected guards; the shape layers are bypassed"
        ),
        exercises=("analysis", "engine", "engine.guards", "core.formulas", "io.serialization",
                   "service.dispatch"),
        bypasses=("engine.interning", "engine.arena", "engine.store", "cache", "service.server",
                  "service.jobs", "engine.workers", "engine.wire"),
        latency_limit_s=5.0,
        details={"loop": "closed, one caller"},
    ),
    "pod-service": Workload(
        name="pod-service",
        why=(
            "repro serve --cache with 2 job workers under a seeded open-loop Poisson mix at "
            "4 req/s (limit 5 s): small, mid-size and repeated requests"
        ),
        exercises=("service.server", "service.jobs", "service.dispatch", "engine.store", "cache",
                   "io.serialization", "analysis", "engine", "engine.interning", "engine.arena",
                   "engine.guards", "core.formulas"),
        bypasses=("engine.workers", "engine.wire"),
        latency_limit_s=5.0,
        details={
            "rate_per_s": POD_RATE_PER_S,
            "job_workers": 2,
            "slice_steps": "server default (2000)",
            "loop": "open, seeded Poisson arrivals from one client thread",
        },
    ),
    "explore-parallel": Workload(
        name="explore-parallel",
        why=(
            "the explore-bounded forms with workers=2: the only workload running engine.workers, "
            "engine.wire and engine.parallel, compared against the serial run"
        ),
        exercises=("engine.workers", "engine.wire", "analysis", "engine", "engine.interning",
                   "engine.arena", "engine.guards", "core.formulas", "service.dispatch"),
        bypasses=("engine.store", "cache", "service.server", "service.jobs"),
        latency_limit_s=10.0,
        details={"state_cap": BOUNDED_CAP, "workers": 2, "loop": "closed, one caller"},
    ),
}


def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{name}/{seed}")


# --------------------------------------------------------------------------- #
# form builders (each returns form dict + reference)
# --------------------------------------------------------------------------- #


def _cnf_with_answer(rng, num_variables: int, num_clauses: int, satisfiable: bool):
    """The first of :data:`DRAWS` random 3-CNFs the DPLL reference gives the
    wanted answer.

    All :data:`DRAWS` candidates are drawn and decided whatever the seed, so
    set-up does the same work for every seed.  When none has the wanted
    answer (for 7 variables at the threshold ratio, about one item in a
    thousand), the first candidate is repaired by :func:`_force_answer`.
    """
    from repro.logic.propositional import random_cnf

    candidates = [random_cnf(num_variables, num_clauses, seed=rng.randrange(1 << 30))
                  for _ in range(DRAWS)]
    answers = [oracle.sat_reference(cnf) for cnf in candidates]
    for cnf, answer in zip(candidates, answers):
        if answer is satisfiable:
            return cnf
    cnf = _force_answer(candidates[0], satisfiable)
    if oracle.sat_reference(cnf) is not satisfiable:
        raise AssertionError("a repaired CNF must have the wanted answer")
    return cnf


def _force_answer(cnf, satisfiable: bool):
    """*cnf* changed just enough to have the wanted answer.

    Satisfiable: every clause the all-true assignment falsifies has its
    first literal made positive.  Unsatisfiable: the first eight clauses are
    replaced by all eight sign patterns over the first clause's variables,
    which no assignment satisfies.
    """
    from itertools import product

    from repro.logic.propositional import Clause, CnfFormula, Literal

    clauses = list(cnf.clauses)
    if satisfiable:
        clauses = [clause if any(literal.positive for literal in clause.literals)
                   else Clause((Literal(clause.literals[0].variable, True),
                                *clause.literals[1:]))
                   for clause in clauses]
    else:
        core_vars = [literal.variable for literal in clauses[0].literals]
        core = [Clause(Literal(var, sign) for var, sign in zip(core_vars, signs))
                for signs in product((True, False), repeat=len(core_vars))]
        clauses = core + clauses[len(core):]
    return CnfFormula(clauses)


def _form_dict(form) -> dict:
    from repro.io.serialization import guarded_form_to_dict

    return guarded_form_to_dict(form)


def _request(form, kind: str, **fields) -> dict:
    from repro.service.request import AnalysisRequest, request_to_wire

    return request_to_wire(AnalysisRequest(form=form, kind=kind, **fields))


def cor42_item(rng, num_variables: int, satisfiable: bool, cap: int) -> dict:
    """Corollary 4.2: ``eliminate_deletions(sat_to_completability(cnf))``."""
    from repro.reductions.sat_reductions import sat_to_completability
    from repro.reductions.transformations import eliminate_deletions

    clauses = 2 * num_variables if satisfiable else 8 * num_variables
    cnf = _cnf_with_answer(rng, num_variables, clauses, satisfiable)
    form = eliminate_deletions(sat_to_completability(cnf))
    return {
        "label": f"cor4.2 v{num_variables} {'sat' if satisfiable else 'unsat'}",
        "family": "cor42",
        "request": _request(_form_dict(form), "completability", max_states=cap),
        "expected": satisfiable,
    }


def deep_item(cap: int) -> dict:
    """The positive nested document of depth 4; semi-sound by construction."""
    from repro.benchgen.families import positive_deep_family

    form = positive_deep_family(4, width=2)
    return {
        "label": "deep d=4",
        "family": "deep",
        "request": _request(_form_dict(form), "semisoundness", max_states=cap),
        "expected": True,
    }


def sat_item(rng, num_variables: int, satisfiable: bool) -> dict:
    """Theorem 5.1: completable iff the CNF is satisfiable."""
    from repro.reductions.sat_reductions import sat_to_completability

    cnf = _cnf_with_answer(rng, num_variables, round(4.26 * num_variables), satisfiable)
    return {
        "label": f"thm5.1 n={num_variables} {'sat' if satisfiable else 'unsat'}",
        "family": "sat",
        "request": _request(_form_dict(sat_to_completability(cnf)), "completability"),
        "expected": satisfiable,
    }


def sat_semisound_item(rng, num_variables: int, satisfiable: bool) -> dict:
    """Theorem 5.6: semi-sound iff the CNF is unsatisfiable."""
    from repro.reductions.sat_reductions import sat_to_non_semisoundness

    cnf = _cnf_with_answer(rng, num_variables, round(4.26 * num_variables), satisfiable)
    return {
        "label": f"thm5.6 n={num_variables} {'sat' if satisfiable else 'unsat'}",
        "family": "sat-semisound",
        "request": _request(_form_dict(sat_to_non_semisoundness(cnf)), "semisoundness"),
        "expected": not satisfiable,
    }


def _reachable_configurations(problem, limit: int) -> int:
    """Reachable configurations of a deadlock problem (capped at *limit*)."""
    start = tuple(problem.initial)
    seen = {start}
    stack = [start]
    while stack and len(seen) < limit:
        for successor in problem.successors(stack.pop()):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return len(seen)


def deadlock_item(rng, components: int, band: tuple) -> dict:
    """Theorem 4.6: completable iff a deadlock is reachable.

    Of :data:`DEADLOCK_DRAWS` random problems, the one whose reachable
    configuration count lies nearest the middle of *band* is used (above
    the band never), which keeps the cost per request steady across seeds;
    every candidate is walked, to at most ``band[1] + 1`` configurations,
    whatever the seed.
    """
    from repro.reductions.deadlock import deadlock_to_completability, random_deadlock_problem

    middle = sum(band) / 2
    candidates = [random_deadlock_problem(components, 3, 3 * components,
                                          seed=rng.randrange(1 << 30))
                  for _ in range(DEADLOCK_DRAWS)]
    reachable = [_reachable_configurations(problem, band[1] + 1) for problem in candidates]
    best = min(range(DEADLOCK_DRAWS),
               key=lambda i: abs(reachable[i] - middle) if reachable[i] <= band[1] else float("inf"))
    problem = candidates[best]
    return {
        "label": f"thm4.6 k={components}",
        "family": "deadlock",
        "request": _request(_form_dict(deadlock_to_completability(problem)), "completability"),
        "expected": oracle.deadlock_reference(problem),
    }


# --------------------------------------------------------------------------- #
# in-process batches
# --------------------------------------------------------------------------- #


def bounded_batch(seed: int) -> list:
    """Twelve requests: eight Corollary 4.2 forms (3 and 4 variables,
    satisfiable and not) interleaved with the deep d=4 document four times."""
    rng = rng_for("explore-bounded", seed)
    deep = deep_item(DEEP_CAP)
    batch = []
    for variables, satisfiable in ((3, True), (4, False), (3, False), (4, True)) * 2:
        batch.append(cor42_item(rng, variables, satisfiable, BOUNDED_CAP))
        if len(batch) % 3 == 2:
            batch.append(deep)
    return batch


def depth1_batch(seed: int) -> list:
    """Twenty depth-1 reductions of similar cost, interleaved."""
    rng = rng_for("explore-depth1", seed)
    batch = []
    for satisfiable in (True, False, True, False):
        batch.append(sat_item(rng, 11, satisfiable))
        batch.append(sat_semisound_item(rng, 7, not satisfiable))
        batch.append(deadlock_item(rng, 7, (60, 100)))
        batch.append(sat_item(rng, 11, not satisfiable))
        batch.append(sat_semisound_item(rng, 7, satisfiable))
    return batch


def batch_for(name: str, seed: int) -> list:
    if name in ("explore-bounded", "explore-parallel"):
        # the parallel workload runs exactly the explore-bounded forms
        return bounded_batch(seed)
    if name == "explore-depth1":
        return depth1_batch(seed)
    raise KeyError(name)


# --------------------------------------------------------------------------- #
# pod-service schedule
# --------------------------------------------------------------------------- #

#: The small catalogue requests: (form, kind, formula).  Each is made a
#: distinct cache entry by its ``max_states`` (exhaustive far below it).
CATALOGUE_REQUESTS = (
    ("leave-application-finite", "completability", None),
    ("leave-application-incompletable", "completability", None),
    ("leave-application-not-semisound", "semisoundness", None),
    ("leave-application-finite", "semisoundness", None),
    ("tax-declaration", "invariant", "¬notice ∨ assessment[accept ∨ audit[finding]]"),
    ("leave-application-finite", "invariant", "¬f"),
    ("purchase-order", "workflow", None),
    ("tax-declaration", "completability", None),
    ("purchase-order", "semisoundness", None),
    ("leave-application-finite", "invariant", "¬d ∨ s"),
)

#: One block of the pod mix, shuffled per block: eight small catalogue
#: requests, two small SAT forms, six mid-size requests, four exact
#: repeats (50% small, 30% mid-size, 20% repeats).  These shares are an
#: assumption, not measured traffic: no request log exists to take them
#: from.  They were chosen so that the median falls inside the small
#: requests and the 75th percentile at the foot of the mid-size ones; the
#: repeat share alone sets how much the result cache can win.
POD_BLOCK = ("small",) * 8 + ("sat",) * 2 + ("cor42",) * 3 + ("deep",) * 3 + ("repeat",) * 4

#: State caps of the mid-size pod requests (chosen, like the shares above,
#: not measured); the deep documents cost more per state, and their cap
#: puts them at the Corollary 4.2 forms' cost.
POD_MID_CAP = 60
POD_DEEP_CAP = 40

#: Repeats name decided first occurrences only (catalogue and SAT requests),
#: which keeps the share of decided verdicts the same for every seed.
REPEATED_FAMILIES = ("catalogue", "sat")


def _catalogue_item(index: int, max_states: int, workflow_refs: dict) -> dict:
    name, kind, formula = CATALOGUE_REQUESTS[index % len(CATALOGUE_REQUESTS)]
    fields = {"max_states": max_states}
    if formula is not None:
        fields["formula"] = formula
    request = _request(name, kind, **fields)
    if kind == "workflow":
        key = (name, max_states)
        if key not in workflow_refs:
            from repro.catalog import resolve_form
            from repro.service.request import request_from_wire

            workflow_refs[key] = oracle.workflow_reference(
                resolve_form(name), request_from_wire(request).limits()
            )
        expected = workflow_refs[key]
    else:
        expected = oracle.CATALOGUE_ANSWERS[(name, kind, formula)]
    return {"label": f"{name} {kind}", "family": "catalogue", "request": request,
            "expected": expected}


def pod_schedule(seed: int, seconds: float, rate: float = POD_RATE_PER_S) -> list:
    """The open-loop schedule: ``[{"due": s, "item": ..., "repeat_of": i|None}]``.

    Arrivals are a Poisson process conditioned on its count: exactly
    ``round(rate * seconds)`` due times drawn uniformly over the window and
    sorted, so every seed offers the same load.  Kinds follow
    :data:`POD_BLOCK`, shuffled per block; a repeat names an earlier
    first-occurrence request of :data:`REPEATED_FAMILIES` due at least
    :data:`POD_REPEAT_MIN_AGE_S` before it (a small request takes its place
    when none is old enough).
    """
    rng = rng_for("pod-service", seed)
    count = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds = []
    while len(kinds) < count:
        block = list(POD_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    deep = None
    workflow_refs: dict = {}
    schedule = []
    cor = sat = small = 0
    for index, (due, kind) in enumerate(zip(dues, kinds)):
        repeat_of = None
        if kind == "repeat":
            eligible = [
                j for j, entry in enumerate(schedule)
                if entry["repeat_of"] is None and entry["item"]["family"] in REPEATED_FAMILIES
                and entry["due"] <= due - POD_REPEAT_MIN_AGE_S
            ]
            if eligible:
                repeat_of = rng.choice(eligible)
            else:
                kind = "small"
        if repeat_of is not None:
            item = schedule[repeat_of]["item"]
        elif kind == "small":
            item = _catalogue_item(small, 10_000 + index, workflow_refs)
            small += 1
        elif kind == "cor42":
            cor += 1
            item = cor42_item(rng, 3 + cor % 2, cor % 4 < 2, POD_MID_CAP)
        elif kind == "deep":
            if deep is None:
                deep = deep_item(POD_DEEP_CAP)
            # a distinct cache entry per request: an instance-size limit the
            # capped exploration never reaches
            item = dict(deep, request=dict(deep["request"], max_instance_nodes=40 + index))
        else:
            sat += 1
            item = sat_item(rng, 7, sat % 2 == 0)
        schedule.append({"due": due, "item": item, "repeat_of": repeat_of})
    return schedule
