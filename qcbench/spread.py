"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 qcbench/spread.py --workloads point_queries,oracle_sweep --runs 10 \
        --first-seed 100 --out spread.json

Runs are sequential (one process at a time), untraced and as long as
run_seconds in BENCHMARK.json. For every workload and end-to-end metric it
reports the median, the quartiles from statistics.quantiles(values, n=4) and
the quartile distance as a share of the median, and flags every spread that
is not below a third of the metric's bound. It summarises the raw timings
(before normalisation to nominal machine speed) the same way, unflagged.

    python3 qcbench/spread.py --merge set_a.json set_b.json --out BASELINE.json

merges two such summaries of the same code and adds, per metric, how far the
second median moved from the first as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def merge(path_a: str, path_b: str) -> dict:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    shift = {w: {name: b[w]["metrics"][name]["median"] / m["median"] - 1.0
                 for name, m in a[w]["metrics"].items() if m["median"]}
             for w in a}
    return {"set_a": a, "set_b": b, "median_shift": shift}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--merge", nargs=2, metavar="SUMMARY",
                   help="merge two summaries instead of running")
    p.add_argument("--workloads", help="comma-separated names")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)
    if args.merge:
        merged = merge(*args.merge)
        text = json.dumps(merged, indent=1) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
        return 0
    if not args.workloads:
        p.error("--workloads is required unless --merge is given")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs, raws = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            raws.append(next(json.loads(ln[4:]) for ln in lines if ln.startswith("raw ")))
            env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
            ok &= proc.returncode == 0 and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name] = stats
            flag = ""
            if stats["spread"] >= bounds[name] / 3:
                flag = f"  <-- not below a third of bound {bounds[name]}"
            print(f"  {name:<18} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}{flag}", flush=True)
        raw = {name: summarize([r[name] for r in raws]) for name in raws[0]}
        for name, stats in raw.items():
            print(f"  {'raw ' + name:<18} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}", flush=True)
        summary[workload] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                             "seconds": seconds, "trace": 0,
                             "all_correct": all(r["correct"] for r in runs),
                             "env": {k: v for k, v in env.items() if k != "seed"},
                             "metrics": metrics, "raw": raw}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
