"""One benchmark run: set-up probes, warm-up, closed loop, checks, audit.

``measure`` is what ``run.py`` calls; it needs the library importable. The
closed loop times each op from outside through ``workloads.execute``; the
traced variant pairs every untraced op with a traced replay of it.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from errors import BenchmarkError

__all__ = ["measure", "tail_latency"]

HERE = Path(__file__).resolve().parent

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60

#: Cap on the tail percentile. A run of short ops has hundreds of samples, and
#: its ten slowest are set by sub-second stalls of the shared host: on
#: ``bracket-audit`` that p97-p98 spread 0.08 and 0.28 of its median across
#: two ten-seed sets. At p90 a tail needs seconds of slow ops to move.
TAIL_PCT_MAX = 90

#: A traced op's module spans must cover this share of its time.
MIN_SPAN_COVERAGE = 0.95


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter launch -> library imported -> inputs built."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True, cwd=HERE.parent) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise BenchmarkError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
    return elapsed


def tail_latency(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, within [p50, p90].

    Returns (value, percentile); nearest-rank percentiles on the sorted samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    pct = min(math.floor(100 * (n - 10) / n), TAIL_PCT_MAX) if n > 10 else 0
    if pct <= 50:
        return statistics.median(ordered), 50
    return ordered[math.ceil(pct * n / 100) - 1], pct


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _closed_loop(ops, seconds: float, run_op) -> tuple[list[dict], float]:
    """Run ops back to back, wrapping around, until ``seconds`` have passed.

    ``run_op(op, i)`` runs the i-th op and returns its record fields.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        records.append({"op": op, **run_op(op, i)})
        i += 1
    return records, time.perf_counter() - start


def _timed_execute(op) -> dict:
    t0 = time.perf_counter()
    answer = workloads.execute(op)
    return {"latency_s": time.perf_counter() - t0, "answer": answer}


def _untraced(op, i) -> dict:
    return _timed_execute(op)


def _outcome_key(answer: dict) -> tuple:
    return (answer["outcome"], answer.get("exit_class"))


class Checker:
    """Checks answers, remembers per-input first answers and exact references."""

    def __init__(self):
        self._exact: dict = {}
        self._first: dict = {}
        self.violating_ops = 0

    def exact(self, op):
        if op.key not in self._exact:
            self._exact[op.key] = workloads.exact_value(op)
        return self._exact[op.key]

    def __call__(self, record: dict, extra_violations=()) -> None:
        op, answer = record["op"], record["answer"]
        violations = list(extra_violations)
        first = self._first.setdefault(op.key, answer)
        if _strip(answer) != _strip(first):
            violations.append("answer differs from an earlier run of the same input")
        if answer["outcome"] == "ok":
            quality = workloads.check(op, answer, self.exact(op))
            violations += quality.pop("violations")
            record.update(quality)
        record["violations"] = violations
        if violations:
            self.violating_ops += 1


def _audit(checker: Checker, traced_pair=None) -> tuple[list[dict], list[str], int]:
    """Run each audit case once and compare with its recorded outcome.

    Returns (records, notes, unexpected failures).
    """
    expected = workloads.expected_outcomes()
    records, notes, unexpected = [], [], 0
    for i, op in enumerate(workloads.audit_cases()):
        record = {"op": op, **(traced_pair or _untraced)(op, i)}
        checker(record, record.pop("replay_violations", ()))
        records.append(record)
        got, want = record["answer"], expected[op.name]
        if _outcome_key(got) == _outcome_key(want):
            if got.get("message") != want.get("message"):
                notes.append(f"{op.name}: fails as recorded, message now {got['message']!r}")
        elif got["outcome"] == "ok":
            notes.append(f"{op.name}: newly passes (recorded {want['outcome']})")
        else:
            unexpected += 1
            notes.append(f"{op.name}: new failure {got['outcome']}: {got.get('message')}")
    return records, notes, unexpected


def _max_of(records: list[dict], field: str) -> float | None:
    values = [r[field] for r in records if r.get(field) is not None]
    return max(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run. Returns the summary, every metric and per-op records."""
    setup = [] if trace else [setup_seconds(workload, seed) for _ in range(setup_runs)]
    ops = workloads.timed_ops(workload, seed, tiny)
    checker = Checker()
    notes: list[str] = []
    # warm-up: first calls pay lazy imports and allocator growth; repeated
    # inputs feed the identical-answer check
    audited = workload == "bracket-audit"
    warm_ops = ops if audited else 2 * workloads.reference_ops(workload, tiny)
    warm = [{"op": op, **_timed_execute(op)} for op in warm_ops]
    for record in warm:
        checker(record)
    if trace:
        return _measure_traced(workload, ops, seconds, checker, warm, notes)
    loop, elapsed = _closed_loop(ops, seconds, _untraced)
    peak_rss = _peak_rss_mb()
    for record in loop:
        checker(record)
    failed = sum(r["answer"]["outcome"] != "ok" for r in warm + loop)
    audit = []
    if audited:
        audit, audit_notes, unexpected = _audit(checker)
        notes += audit_notes
        failed += unexpected
    share_base = audit if audited else loop
    reference = audit if audited else warm
    ok_loop = [r for r in loop if r["answer"]["outcome"] == "ok"]
    latencies = [r["latency_s"] for r in ok_loop]
    if not latencies:
        raise BenchmarkError("no op succeeded in the timed loop")
    tail, tail_pct = tail_latency(latencies)
    ok_share = sum(r["answer"]["outcome"] == "ok" for r in share_base) / len(share_base)
    checked = warm + loop + audit
    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "ops_per_s": len(ok_loop) / elapsed,
        "peak_rss_mb": peak_rss,
        "width_rel_max": _max_of(reference, "width_rel"),
        "ok_share": ok_share,
        "excess_high_rel_max": _max_of(reference, "excess_high_rel"),
        "excess_low_rel_max": _max_of(reference, "excess_low_rel"),
        "bracket_violations": checker.violating_ops,
        "fail_share": 1.0 - ok_share,
    }
    notes.append(f"latency_tail_s is p{tail_pct} of {len(latencies)} samples")
    return {
        "correct": checker.violating_ops == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "samples": {"setup_s": setup, "latency_s": latencies, "elapsed_s": elapsed},
        "records": checked,
    }


def _measure_traced(workload, ops, seconds, checker, warm, notes) -> dict:
    tracer = tracing.Tracer()
    overheads = []

    def timed_replay(op):
        t0 = time.perf_counter()
        replayed = tracing.replay(op, tracer)
        return replayed, time.perf_counter() - t0

    def traced_pair(op, i):
        """Untraced call and traced replay of one op; the side that runs first alternates."""
        if i % 2:
            record = _timed_execute(op)
            replayed, traced_s = timed_replay(op)
        else:
            replayed, traced_s = timed_replay(op)
            record = _timed_execute(op)
        if record["answer"]["outcome"] == "ok":
            overheads.append(traced_s - record["latency_s"])
        if _strip(replayed) != _strip(record["answer"]):
            record["replay_violations"] = [
                f"traced replay differs: {_strip(replayed)} vs {_strip(record['answer'])}"
            ]
        return record

    loop, _ = _closed_loop(ops, seconds, traced_pair)
    for record in loop:
        checker(record, record.pop("replay_violations", ()))
    failed = sum(r["answer"]["outcome"] != "ok" for r in warm + loop)
    audit = []
    if workload == "bracket-audit":
        audit, audit_notes, unexpected = _audit(checker, traced_pair)
        notes += audit_notes
        failed += unexpected
    means, per_op = tracing.layer_metrics(tracer)
    metrics = dict(means)
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    covered = sum(p["coverage"] * p["op_s"] for p in per_op) / sum(p["op_s"] for p in per_op)
    below = sum(p["coverage"] < MIN_SPAN_COVERAGE for p in per_op)
    notes.append(
        f"module spans cover {covered:.4f} of traced op time; per op min "
        f"{min(p['coverage'] for p in per_op):.4f}, {below} of {len(per_op)} ops below "
        f"{MIN_SPAN_COVERAGE}"
    )
    return {
        "correct": checker.violating_ops == 0 and covered >= MIN_SPAN_COVERAGE,
        "attempted": len(warm) + len(loop) + len(audit),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "samples": {"trace_overhead_s": overheads},
        "records": warm + loop + audit,
        "per_op_layers": per_op,
        "spans": [[s.name, s.op, s.parent, s.start, s.end] for s in tracer.spans],
    }


def _strip(answer: dict) -> dict:
    return {k: v for k, v in answer.items() if k != "traceback"}
