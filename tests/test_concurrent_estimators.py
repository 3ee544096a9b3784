"""Estimators composed at once give what they give one after the other.

``report._outcomes`` hands the second half of the estimator plan to one
worker thread when every single step has at least
``report._CONCURRENT_MIN_SUPPORT`` points and two CPUs are usable.  The
report must not change, a failure must be the first one in plan order
whichever thread meets it first, and no thread may outlive the answer.  The
benchmark's small workloads must not start the worker at all.
"""

import dataclasses
import sys
import threading
from pathlib import Path

import pytest

import pldbounds as pb
from pldbounds import report

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

#: Gaussian sigma = 1 at spacing 1e-3: single steps of 18,047 points.
LARGE = pb.AccountingRequest(
    mechanism=pb.MechanismSpec.gaussian(1.0),
    discretization=1e-3,
    compositions=50,
    delta_target=1e-6,
)


def _usable_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(report, "_usable_cpus", lambda: count)


def _record_threads(monkeypatch) -> list[tuple[str, threading.Thread]]:
    """Patch ``_compose_and_query`` to note the thread each estimator runs on."""
    threads = []
    compose_and_query = report._compose_and_query

    def record(request, method, single):
        threads.append((method, threading.current_thread()))
        return compose_and_query(request, method, single)

    monkeypatch.setattr(report, "_compose_and_query", record)
    return threads


def _without_runtime(body: dict) -> dict:
    return {key: value for key, value in body.items() if key != "runtime_ms"}


def test_large_single_steps_meet_the_threshold():
    setup = report._set_up(LARGE)
    assert min(s.support_size for s in setup.singles.values()) >= report._CONCURRENT_MIN_SUPPORT
    fine = workloads.reference_ops("fine-gaussian")[0]
    setup = report._set_up(fine.request)
    assert min(s.support_size for s in setup.singles.values()) >= report._CONCURRENT_MIN_SUPPORT


@pytest.mark.parametrize(
    "request_",
    [
        LARGE,
        dataclasses.replace(LARGE, baseline="pb"),
        dataclasses.replace(LARGE, delta_target=None, epsilon_target=40.0),
    ],
    ids=["both", "both-and-pb", "epsilon-target"],
)
def test_the_worker_changes_no_answer(monkeypatch, request_):
    before = set(threading.enumerate())
    threads = _record_threads(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    alone = report.run_compute(request_)
    assert {thread for _, thread in threads} == {threading.current_thread()}
    threads.clear()
    _usable_cpus(monkeypatch, 2)
    together = report.run_compute(request_)
    plan = report._estimator_plan(request_)
    half = len(plan) // 2
    on = dict(threads)
    assert len(on) == len(threads) == len(plan)
    assert {on[m] for m in plan[:half]} == {threading.current_thread()}
    assert len({on[m] for m in plan[half:]} - {threading.current_thread()}) == 1
    assert _without_runtime(together.to_dict()) == _without_runtime(alone.to_dict())
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize(
    "baseline, failing, raised",
    [
        (None, ("optimistic",), "optimistic"),
        (None, ("pessimistic", "optimistic"), "pessimistic"),
        ("pb", ("pb_pessimistic",), "pb_pessimistic"),
        ("pb", ("optimistic", "pb_pessimistic"), "optimistic"),
    ],
)
def test_the_first_failure_in_plan_order_is_raised(monkeypatch, baseline, failing, raised):
    request_ = dataclasses.replace(LARGE, baseline=baseline)
    plan = report._estimator_plan(request_)
    worker_half = plan[len(plan) // 2 :]
    worker_failed = threading.Event()
    compose_and_query = report._compose_and_query

    def inject(request, method, single):
        if method not in failing:
            return compose_and_query(request, method, single)
        if method in worker_half:
            worker_failed.set()
        elif set(failing) & set(worker_half):
            # the worker fails first in time; the calling thread's failure
            # still comes first in plan order
            assert worker_failed.wait(timeout=30)
        raise pb.NumericalValidityError(f"injected into {method}")

    monkeypatch.setattr(report, "_compose_and_query", inject)
    before = set(threading.enumerate())
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(pb.NumericalValidityError, match=f"^injected into {raised}$"):
        report.run_compute(request_)
    assert set(threading.enumerate()) == before
    _usable_cpus(monkeypatch, 1)
    with pytest.raises(pb.NumericalValidityError, match=f"^injected into {raised}$"):
        report.run_compute(request_)


def test_small_workloads_start_no_worker(monkeypatch):
    threads = _record_threads(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    sweep = workloads.reference_ops("readme-sweep")[0]
    report.run_sweep(sweep.request, list(sweep.counts))
    for op in workloads.timed_ops("bracket-audit", seed=0):
        report.run_compute(op.request)
    assert threads
    assert {thread for _, thread in threads} == {threading.current_thread()}
