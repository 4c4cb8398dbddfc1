"""One repetition of one workload, in a fresh interpreter, as run.py starts it.

    python3 perfbench/child.py <workload> <seed> <rep> <trace 0|1>

kostka is imported from PYTHONPATH, which run.py points at the checkout's src.
A fresh interpreter starts with an empty shared cache, as a CLI user does. The
child prints one JSON object: when set-up ended (the monotonic clock,
comparable with the parent's), how long the timed phase took, the calibration
times around it, the peak RSS, every answer and, when traced, the per-layer
summary. Checking happens in the parent.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads

CALIBRATION_ROUNDS = 100


def calibrate() -> float:
    """Seconds for a fixed loop of dict and tuple work that shares no code with kostka.

    It runs just before and just after the timed phase, and keeps its memory
    small so that it cannot raise the peak RSS. The parent divides by its time
    so that load from other programs on the machine cancels out.
    """
    start = time.perf_counter()
    total = 0
    for r in range(CALIBRATION_ROUNDS):
        table = {}
        for i in range(2000):
            table[(i, i * 7, r)] = i
        for k in range(2000):
            j = k * 7919 % 2000
            total += table.get((j, j * 7, r), 0)
    return time.perf_counter() - start


def run_matrix(kostka):
    matrix = kostka.kostka_matrix(workloads.MATRIX_N)
    return {"csv": matrix.to_csv(), "json": matrix.to_json()}


def run_verify(kostka):
    reports = kostka.run_standard_suites(workloads.VERIFY_MAX_N, parallelism=1)
    return [{"name": r.name, "checked": r.checked, "violations": len(r.violations)} for r in reports]


def run_queries(kostka, queries):
    """Run every query on the default shared cache; returns (answers, latencies)."""
    kostka_number = kostka.kostka_number
    answers = []
    latencies = []
    for shape, content in queries:
        start = time.perf_counter()
        try:
            answer = kostka_number(shape, content)
        except Exception as exc:  # a failed query is data, not the end of the run
            answer = exc
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    return answers, latencies


def main() -> None:
    workload, seed, rep, traced = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    import kostka

    queries = []
    if workload == "queries":
        for outer, inner, content in workloads.query_stream(seed, rep):
            queries.append((kostka.SkewShape(outer, inner) if inner else outer, content))
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kostka)

    ready = time.monotonic()
    calibration = [calibrate()]
    start = time.perf_counter()
    latencies = None
    error = None
    try:
        if workload == "matrix":
            answers = run_matrix(kostka)
        elif workload == "verify":
            answers = run_verify(kostka)
        else:
            answers, latencies = run_queries(kostka, queries)
    except Exception as exc:  # reported as one failed operation
        answers, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration.append(calibrate())

    if workload == "queries" and answers is not None:
        answers = [a if isinstance(a, int) else {"error": type(a).__name__} for a in answers]
    layers, spans = tracer.summary(wall, [name for name, _ in workloads.VERIFY_SUITES]) if tracer else (None, None)
    payload = {
        "kostka_file": kostka.__file__,
        "ready": ready,
        "wall_s": wall,
        "calibration_s": calibration,
        "rss_kb": rss_kb,
        "error": error,
        "answers": answers,
        "latencies": latencies if latencies is not None else [wall],
        "layers": layers,
        "spans": spans,
    }
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
