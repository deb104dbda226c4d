"""The oracle rejects wrong verdicts, and the schedules are pure functions of the seed."""

from __future__ import annotations

import json

from perfbench import explore_worker, oracle, workloads
from perfbench.measure import percentile, supported_tail


def test_check_verdict_accepts_right_and_rejects_wrong():
    assert oracle.check_verdict(True, True, True) is None
    assert oracle.check_verdict(False, True, False) is None
    assert oracle.check_verdict(True, False, None) is None
    assert oracle.check_verdict(True, True, False) is not None
    assert oracle.check_verdict(False, True, True) is not None
    assert oracle.check_verdict(False, False, True) is not None  # undecided may not guess
    assert oracle.check_verdict(None, True, True) is not None  # no reference, no pass


def test_workflow_reference_mismatch_is_rejected():
    reference = {"states": 27, "transitions": 63, "truncated": False}
    assert oracle.check_verdict(reference, True, None, {"states": 27, "transitions": 63}) is None
    assert oracle.check_verdict(reference, True, None, {"states": 26, "transitions": 63}) is not None
    assert oracle.check_verdict(reference, False, None, {"states": 27, "transitions": 63}) is not None


def test_repeats_must_match_their_original():
    original = {"decided": True, "answer": True, "stats": {"states_explored": 5, "transitions": 9,
                                                           "engine": {"guard_eval_seconds": 0.1}}}
    cached = json.loads(json.dumps(original))
    assert oracle.check_repeat(original, cached, cache_must_hit=True) is None
    rerun = json.loads(json.dumps(original))
    rerun["stats"]["engine"]["guard_eval_seconds"] = 0.2
    assert oracle.check_repeat(original, rerun, cache_must_hit=True) is not None
    assert oracle.check_repeat(original, rerun, cache_must_hit=False) is None
    rerun["answer"] = False
    assert oracle.check_repeat(original, rerun, cache_must_hit=False) is not None


class _FlippedDispatch:
    """A dispatcher that answers every decided verdict the wrong way round."""

    def __init__(self, real):
        self.real = real

    def run_analysis(self, request):
        result = self.real.run_analysis(request)
        if result.decided:
            result.answer = not result.answer
        return result


def test_injected_wrong_verdict_is_caught_by_the_runner():
    rng = workloads.rng_for("tests", 1)
    batch = [workloads.sat_item(rng, 5, True), workloads.sat_item(rng, 5, False)]
    runner = explore_worker.Runner("explore-depth1", batch)
    honest = [runner.run(index)[0]["error"] for index in range(2)]
    assert honest == [None, None]
    runner.dispatch = _FlippedDispatch(runner.dispatch)
    flipped = [runner.run(index)[0]["error"] for index in range(2)]
    assert all(error is not None for error in flipped)


def test_pod_schedule_is_a_pure_function_of_the_seed():
    first = workloads.pod_schedule(3, 6.0)
    again = workloads.pod_schedule(3, 6.0)
    other = workloads.pod_schedule(4, 6.0)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)
    dues = [entry["due"] for entry in first]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 6.0
    assert len(first) == round(workloads.POD_RATE_PER_S * 6.0)
    for index, entry in enumerate(first):
        if entry["repeat_of"] is not None:
            original = first[entry["repeat_of"]]
            assert entry["repeat_of"] < index and original["repeat_of"] is None
            assert original["due"] <= entry["due"] - workloads.POD_REPEAT_MIN_AGE_S
            assert entry["item"] == original["item"]


def test_batches_are_pure_functions_of_the_seed():
    assert json.dumps(workloads.depth1_batch(5)) == json.dumps(workloads.depth1_batch(5))
    assert json.dumps(workloads.depth1_batch(5)) != json.dumps(workloads.depth1_batch(6))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert supported_tail(1000) == 75.0  # the highest reported
    assert supported_tail(40) == 75.0
    assert supported_tail(39) == 50.0
    assert supported_tail(5) == 50.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_set_up_work_does_not_depend_on_the_seed(monkeypatch):
    calls = []
    real = oracle.sat_reference

    def counting(cnf):
        calls.append(1)
        return real(cnf)

    monkeypatch.setattr(oracle, "sat_reference", counting)
    counts = []
    for seed in (1, 2, 3):
        calls.clear()
        workloads.bounded_batch(seed)
        counts.append(len(calls))
    assert counts == [8 * workloads.DRAWS] * 3


def test_a_cnf_with_the_wanted_answer_is_always_found():
    from repro.logic.propositional import random_cnf

    for seed in range(20):
        cnf = random_cnf(7, 30, seed=seed)
        for satisfiable in (True, False):
            repaired = workloads._force_answer(cnf, satisfiable)
            assert oracle.sat_reference(repaired) is satisfiable
            assert len(repaired.clauses) == len(cnf.clauses)
    # a seed for which no random draw of one of its SAT items is unsatisfiable
    schedule = workloads.pod_schedule(206, 20.0, rate=6.0)
    assert all(entry["item"]["expected"] is not None for entry in schedule)
