"""Steadiness of the benchmark: repeated runs, quartiles, and set comparison.

    python3 perfbench/steady.py run --seeds 1-10 --out set-a.json
    python3 perfbench/steady.py run --seeds 1-10 --out set-b.json
    python3 perfbench/steady.py compare set-a.json set-b.json

``run`` executes ``perfbench/run.py`` once per seed and workload, always
at ``run_seconds`` from ``BENCHMARK.json`` (the length the bounds were
measured at), cycling
through the workloads for each seed in turn (so slow drifts of the host
spread over all of them), and writes every run's result to ``--out``.
It prints, per workload and end-to-end metric, the median, the quartiles
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound in ``BENCHMARK.json``.

``compare`` takes two such files, made at different times from the same
code on the same seeds, so that a median moves only by run-to-run noise.
It checks what a regression gate needs: each second median is not worse
than the first by more than the bound, each spread stays within its bound,
and the share of failed operations is the same.  It also checks that
``release_sse``, which a seed fixes, is identical seed by seed.  Run both
from the root of a checkout.

"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(args) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [
                sys.executable,
                str(RUN),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed, wall_s=wall)
            # Printed figures that are not metrics, kept to judge their spread.
            for line in lines:
                if line.startswith("host calibration:"):
                    result["calibration_ms"] = float(line.split()[2])
                elif line.startswith("serve tail:"):
                    result["tail"] = {"percentile": line.split()[2], "ms": float(line.split()[4])}
            results.append(result)
            print(
                f"{workload:<12} seed {seed:>3}  {wall:5.1f}s wall  "
                + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True,
            )
            Path(args.out).write_text(json.dumps(results, indent=1))
    summarize(results, spec)
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(results: list[dict], spec: dict) -> dict:
    """Print and return ``{(workload, metric): (q1, median, q3, spread)}``."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {failed} of {attempted} operations failed")
        extras = {}
        if all("calibration_ms" in r for r in runs):
            extras["host_calibration_ms"] = [r["calibration_ms"] for r in runs]
        if all("tail" in r for r in runs):
            extras["serve_tail_ms " + runs[0]["tail"]["percentile"]] = [r["tail"]["ms"] for r in runs]
        series = {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]}
        series.update(extras)
        for metric, values in series.items():
            if len(values) < 2:
                continue
            q1, mid, q3 = quartiles(values)
            spread = (q3 - q1) / mid
            table[(workload, metric)] = (q1, mid, q3, spread)
            bound = bounds.get(metric)
            if bound is None:
                print(f"  {metric:<20} median {mid:<12.6g} spread {spread * 100:5.2f}% (printed, not a metric)")
                continue
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(
                f"  {metric:<20} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {spread * 100:5.2f}% (bound {bound * 100:.0f}%){flag}"
            )
    return table


def compare(args) -> int:
    root = Path.cwd()
    spec = load_spec(root)
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    print(f"== {args.first}")
    a = summarize(first, spec)
    print(f"\n== {args.second}")
    b = summarize(second, spec)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in first):
        seeds = [sorted(r["seed"] for r in results if r["workload"] == workload) for results in (first, second)]
        if seeds[0] != seeds[1]:
            print(f"{workload}: the two sets ran different seeds {seeds[0]} and {seeds[1]}", file=sys.stderr)
            return 2
        sse = [
            {r["seed"]: r["metrics"].get("release_sse", {}).get("value") for r in results if r["workload"] == workload}
            for results in (first, second)
        ]
        moved = [seed for seed in sse[0] if sse[0][seed] != sse[1][seed]]
        ok &= not moved
        print(f"\n{workload}: release_sse identical seed by seed: {'yes' if not moved else f'NO, seeds {moved}'}")
    print("\n== second median against first")
    for key in sorted(a):
        workload, metric = key
        if key not in b or metric not in metrics:
            continue
        m = metrics[metric]
        change = b[key][1] / a[key][1] - 1.0
        worse = change if m["better"] == "lower" else -change
        verdict = "ok"
        if worse > m["bound"]:
            verdict, ok = "WORSE THAN BOUND", False
        for label, table in (("first", a), ("second", b)):
            if table[key][3] > m["bound"]:
                verdict, ok = f"{label} spread over bound", False
        print(f"  {workload:<12} {metric:<20} {change * 100:+6.2f}% (bound {m['bound'] * 100:.0f}%) {verdict}")
    for workload in dict.fromkeys(r["workload"] for r in first):
        shares = []
        for results in (first, second):
            runs = [r for r in results if r["workload"] == workload]
            shares.append(
                (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            )
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok &= same
        print(f"  {workload:<12} failed share {shares[0]} vs {shares[1]}: {'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload once per seed")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--workloads", default="", help="comma-separated (default: all)")
    run.add_argument("--out", required=True, help="JSON file for the results")
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    return run_set(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
