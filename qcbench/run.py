"""qutritcorr benchmark: one workload, one seed, one run.

    python3 qcbench/run.py --workload preset_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run. Lines before it list every metric with its unit, the checker's
findings and the environment. Timing metrics are normalised to a nominal
machine speed (see calibration.py); the raw figures are printed beside them.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the matrices are 9x9, so BLAS threads only add
# scheduling noise on a shared machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".qcbench-out"

SETUP_REPEATS = 21
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "1/s", "call_p50_ms": "ms",
                    "peak_rss_mb": "MB"}
# p99 is printed only where at least ten samples lie beyond it
P99_MIN_SAMPLES = 1000
# counts, times and bytes of a traced run are per round of the workload
PER_LAYER_UNITS = {"calls": "count/round", "self_s": "s/round", "share": "fraction",
                   "distinct_ratio": "fraction", "residual_max": "1", "bound_gap_min": "1",
                   "bytes_written": "B/round", "overhead": "fraction",
                   "unattributed_s": "s/round", "rounds": "count"}

# Runs in a fresh interpreter: import the library, make one small call of the
# workload's entry point (filling su_generators and _generator_stacks), report.
SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qutritcorr
import workloads
workloads.WORKLOADS[sys.argv[3]].warm_up(sys.argv[4])
print("ready", flush=True)
"""


def measure_setup(workload: str, workdir: str, clock) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, raw and normalised by the slowdown
    measured just before and just after each child."""
    raw, normalised = [], []
    before = clock.slowdown()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
                               workload, workdir], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child exited {child.returncode} without 'ready'")
        after = clock.slowdown()
        raw.append(elapsed)
        normalised.append(elapsed / ((before + after) / 2.0))
        before = after
    return raw, normalised


def run_phase(workload, clock, seconds: float | None = None, rounds: int | None = None,
              tracer=None, traced: bool = False) -> dict:
    """Closed loop, one caller: whole rounds until `seconds` have passed, or
    exactly `rounds` rounds. Latencies and the phase's wall time are also
    given at nominal machine speed."""
    starts, ends, slots = array("d"), array("d"), array("i")
    rows = raised = done = 0
    with clock.running():
        start = perf_counter()
        while (perf_counter() - start < seconds) if rounds is None else done < rounds:
            for slot, (key, n_rows, call) in enumerate(workload.calls(done)):
                if tracer is not None:
                    tracer.call_id = len(starts)
                t0 = perf_counter()
                try:
                    out = call()
                except (Exception, SystemExit):
                    ends.append(perf_counter())
                    raised += 1
                    if raised == 1:
                        traceback.print_exc(file=sys.stderr)
                else:
                    ends.append(perf_counter())
                    rows += n_rows
                    workload.keep(key, out, traced)
                starts.append(t0)
                slots.append(slot)
            done += 1
        stop = perf_counter()
    # read before the post-processing below, whose temporaries grow with the call count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall": stop - start, "peak_rss_mb": peak_rss_mb,
            "norm_wall": float(clock.normalised([start], [stop])[0]),
            "rounds": done, "rows": rows, "raised": raised,
            "latencies": clock.normalised(starts, ends),
            "raw_latencies": np.asarray(ends) - np.asarray(starts),
            "slots": np.asarray(slots)}


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q) * 1e3)


def median_ms(phase: dict, key: str = "latencies") -> float:
    """Median over a round's call positions of each position's median latency.

    Every run holds whole rounds, so each position has the same number of
    calls. Where calls are alike this is the plain median; where a round
    mixes call sizes (preset_sweep's four runs) it takes each size's typical
    latency instead of the single largest small call and smallest large one.
    """
    lat, slots = phase[key], phase["slots"]
    return float(np.median([np.median(lat[slots == s]) for s in np.unique(slots)]) * 1e3)


def environment(seed: int) -> dict:
    import qutritcorr
    digest = hashlib.sha256()
    for path in sorted((SRC / "qutritcorr").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "qutritcorr": qutritcorr.__version__,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qutritcorr" / "__init__.py").is_file():
        print(f"error: no qutritcorr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import qutritcorr
    if Path(qutritcorr.__file__).resolve().parent != SRC / "qutritcorr":
        print(f"error: imported qutritcorr from {qutritcorr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checker as checks
    from calibration import SpeedClock
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        cls = WORKLOADS[args.workload]
        clock = SpeedClock()
        raw_setup, setup = measure_setup(args.workload, workdir, clock)
        cls.warm_up(workdir)
        workload = cls(args.seed, workdir)
        problems = checks.self_test(workdir)

        metrics: dict[str, float] = {}
        if args.trace:
            plain = run_phase(workload, clock, seconds=args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = run_phase(workload, clock, rounds=plain["rounds"], tracer=tracer,
                                   traced=True)
            phases = [plain, traced]
            rounds = traced["rounds"]
            metrics.update(tracer.layer_metrics(clock.normalised, traced["norm_wall"], rounds,
                                                len(traced["latencies"]) // rounds))
            metrics["trace.overhead"] = traced["norm_wall"] / plain["norm_wall"] - 1.0
            metrics["trace.rounds"] = rounds
        else:
            phases = [run_phase(workload, clock, seconds=args.seconds)]

        checker = checks.Checker()
        extra_attempted, failed, extra = workload.check(checker)
        attempted = sum(len(p["latencies"]) for p in phases) + extra_attempted
        failed += sum(p["raised"] for p in phases)
        correct = failed == 0 and not problems

        timed = phases[0]
        e2e = {
            "setup_s": sorted(setup)[len(setup) // 2],
            "rows_per_s": timed["rows"] / timed["norm_wall"],
            "call_p50_ms": median_ms(timed),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        # the same timings as measured, before normalisation
        raw = {
            "setup_s": sorted(raw_setup)[len(raw_setup) // 2],
            "rows_per_s": timed["rows"] / timed["wall"],
            "call_p50_ms": median_ms(timed, "raw_latencies"),
        }
        if args.trace:
            metrics.update({"cli.bytes_written": 0, "oracle.residual_max": 0.0,
                            "oracle.bound_gap_min": 0.0})
            metrics.update(extra)
            metrics["cli.bytes_written"] /= metrics["trace.rounds"]
            tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.csv"))
            report = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[1]]}
                      for k, v in metrics.items()}
        else:
            report = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

        n = len(timed["latencies"])
        print(f"workload {args.workload}  seed {args.seed}  rounds {timed['rounds']}  "
              f"calls {n}  rows {timed['rows']}  wall {timed['wall']:.3f} s  "
              f"mean slowdown {timed['wall'] / timed['norm_wall']:.3f}")
        for k, v in e2e.items():
            print(f"  {k:<16} {v:.6g} {END_TO_END_UNITS[k]}")
        if n >= P99_MIN_SAMPLES:
            print(f"  {'call_p99_ms':<16} {percentile_ms(timed['latencies'], 99):.6g} ms  "
                  f"({n} samples, {n // 100} beyond it)")
        for k, v in raw.items():
            print(f"  {'raw ' + k:<16} {v:.6g} {END_TO_END_UNITS[k]}")
        print(f"  {'failed_fraction':<16} {failed / attempted:.6g} "
              f"({failed} of {attempted} calls)")
        if args.trace:
            for k, v in report.items():
                print(f"  {k:<36} {v['value']:.6g} {v['unit']}")
        for message in checker.failures + problems:
            print(f"  check: {message}")
        print("raw " + json.dumps(raw, sort_keys=True))
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": report}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
