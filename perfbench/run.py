"""Benchmark of the kostka package: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload matrix|verify|queries|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a checkout; kostka is imported from its src/. Each
repetition runs in a fresh child interpreter (child.py), one at a time, so it
meets an empty shared cache as a CLI user does. Repetitions repeat until
--seconds have passed; the metrics are medians over them. Answers are checked
in this process, outside the timed phase, by reference.py.

End-to-end times are in reference seconds: each child times a fixed
calibration loop just before and after its timed phase, and its times are
scaled by REFERENCE_CALIBRATION_S over the mean calibration time. On a shared
machine whose speed drifts with other programs' load, this keeps the figures
of one program steady; the unscaled times are kept in the result file.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced children on the same inputs and reports the per-layer metrics of the
first traced child (its counts repeat exactly for a seed) plus
trace_overhead_ratio, the median over pairs of traced over untraced
(unscaled) wall time.

Every run writes its full result, stamped, to .perfbench/ at the checkout root;
--compare prints the ratios of two such files. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
# a run starts its last child within about --seconds (at most 60), so it ends within 180 s
CHILD_TIMEOUT_S = 110
# what child.calibrate() takes at the reference speed
REFERENCE_CALIBRATION_S = 0.1
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "ok_ratio", "query_p50_ms", "query_p99_ms")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no kostka, a child crashed or hung)."""


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as statistics.quantiles(method="inclusive")."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spawn(workload: str, seed: int, rep: int, traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(rep), "1" if traced else "0"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition {rep} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition {rep} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    payload = json.loads(proc.stdout)
    if Path(payload["kostka_file"]).resolve().parent != (SRC / "kostka").resolve():
        raise BenchError(f"imported kostka from {payload['kostka_file']}, not from {SRC}")
    payload["setup_s"] = payload["ready"] - started
    return payload


def check(workload: str, seed: int, rep: int, payload: dict) -> tuple[int, int, list[str]]:
    """(operations, failed operations, problems) of one repetition."""
    answers = payload["answers"]
    if payload["error"]:
        return 1, 1, []
    if workload == "queries":
        raised, problems = reference.check_queries(seed, rep, answers)
        return len(answers), raised + len(problems), problems
    problems = reference.check_matrix(answers) if workload == "matrix" else reference.check_verify(answers)
    return 1, int(bool(problems)), problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds
    reps = []
    latencies: list[float] = []
    layers = []
    spans = None
    pair = 0
    while True:
        pair_started = time.monotonic()
        for traced in (False, True) if trace else (False,):
            payload = spawn(workload, seed, pair, traced)
            ops, failed, problems = check(workload, seed, pair, payload)
            for problem in problems[:5]:
                print(f"WRONG {workload} rep {pair}: {problem}", file=sys.stderr)
            speed = REFERENCE_CALIBRATION_S / statistics.mean(payload["calibration_s"])
            rep_latencies = [speed * t for t in payload["latencies"]]
            reps.append(
                {
                    "rep": pair,
                    "traced": traced,
                    "error": payload["error"],
                    "ops": ops,
                    "failed": failed,
                    "wrong": len(problems),
                    "speed": speed,
                    "raw_setup_s": payload["setup_s"],
                    "raw_wall_s": payload["wall_s"],
                    "setup_s": speed * payload["setup_s"],
                    "wall_s": speed * payload["wall_s"],
                    "peak_rss_mb": payload["rss_kb"] / 1024,
                    "ok_ratio": 1 - failed / ops,
                    "query_p50_ms": 1e3 * percentile(rep_latencies, 0.50),
                    "query_p99_ms": 1e3 * percentile(rep_latencies, 0.99),
                }
            )
            if traced:
                layers.append(payload["layers"])
                spans = spans or payload["spans"]
            else:
                latencies += rep_latencies
        pair += 1
        if time.monotonic() + (time.monotonic() - pair_started) > deadline:
            break

    plain = [r for r in reps if not r["traced"]]
    result = {
        "correct": not any(r["wrong"] for r in reps),
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": reps,
        "samples_per_rep": len(rep_latencies),
    }
    if trace:
        metrics = dict(layers[0])
        # the two children of a pair run seconds apart, so unscaled times compare best
        walls = {(r["rep"], r["traced"]): r["raw_wall_s"] for r in reps}
        metrics["trace_overhead_ratio"] = statistics.median(walls[p, True] / walls[p, False] for p in range(pair))
        counts = [{k: v for k, v in layer.items() if unit_of(k) == "count"} for layer in layers]
        if workload != "queries" and any(c != counts[0] for c in counts):
            print(f"WARNING {workload}: layer counts differ between traced repetitions", file=sys.stderr)
        result["spans"] = spans
    else:
        metrics = {name: statistics.median(r[name] for r in plain) for name in END_TO_END}
        metrics["ok_ratio"] = 1 - sum(r["failed"] for r in plain) / sum(r["ops"] for r in plain)
        # With one query per repetition no percentile has ten samples beyond it,
        # so both stay medians over repetitions; otherwise pool the samples.
        if len(latencies) > len(plain):
            metrics["query_p50_ms"] = 1e3 * percentile(latencies, 0.50)
            metrics["query_p99_ms"] = 1e3 * percentile(latencies, 0.99)
    result["metrics"] = metrics
    return result


def stamp(args) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            revision = git.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_kostka_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "kostka").glob("*.py"))),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_result(workload: str, result: dict) -> None:
    plain = [r for r in result["reps"] if not r["traced"]]
    print(f"{workload}: {len(result['reps'])} repetitions, {result['attempted']} operations, "
          f"{result['failed']} failed, answers {'correct' if result['correct'] else 'WRONG'}")
    raw = {name: statistics.median(r[name] for r in plain) for name in ("raw_setup_s", "raw_wall_s", "speed")}
    print(f"  unscaled medians: setup {raw['raw_setup_s']:.4g} s, wall {raw['raw_wall_s']:.4g} s; "
          f"speed factor {raw['speed']:.3f}")
    for name, value in result["metrics"].items():
        note = ""
        if name == "ok_ratio":
            note = f"  ({result['failed']} of {result['attempted']} operations failed)"
        elif name.startswith("query_"):
            note = f"  ({len(plain)} repetitions of {result['samples_per_rep']} samples)"
        elif name in END_TO_END:
            note = f"  (median of {len(plain)})"
        print(f"  {workload}.{name} = {value:.6g} {unit_of(name)}{note}")


def compare(path_a: str, path_b: str) -> None:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"A: {path_a} (rev {a['stamp']['git_revision']}, seed {a['stamp']['seed']})")
    print(f"B: {path_b} (rev {b['stamp']['git_revision']}, seed {b['stamp']['seed']})")
    print(f"{'workload.metric':56s} {'A':>12s} {'A spread':>9s} {'B':>12s} {'B spread':>9s} {'B/A':>8s}")

    def fmt(x):
        return "-" if x is None else f"{x:.3f}"

    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None:
            continue
        for name, va in ra["metrics"].items():
            vb = rb["metrics"].get(name)
            if vb is None:
                continue
            sa = spread([r[name] for r in ra["reps"] if not r["traced"]]) if name in END_TO_END else None
            sb = spread([r[name] for r in rb["reps"] if not r["traced"]]) if name in END_TO_END else None
            ratio = vb / va if va else None
            print(f"{workload + '.' + name:56s} {va:12.6g} {fmt(sa):>9s} {vb:12.6g} {fmt(sb):>9s} {fmt(ratio):>8s}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print the ratios of two result files")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "kostka" / "__init__.py").is_file():
        print(f"no kostka package under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    document = {"stamp": stamp(args), "workloads": {}}
    print("# " + " ".join(f"{k}={v}" for k, v in document["stamp"].items()))
    try:
        for workload in names:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            document["workloads"][workload] = result
            print_result(workload, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(document, indent=1))
    print(f"# result written to {out.relative_to(ROOT)}")

    results = document["workloads"].values()
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit_of(name)}
            for w, r in document["workloads"].items()
            for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
