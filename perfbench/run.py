"""ljchain benchmark: one workload per call, outputs checked, metrics printed.

    python3 perfbench/run.py --workload {sweep,scan,crosscheck,cli}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from src/.
With --trace 0 it prints the end-to-end metrics, measured with tracing
off; with --trace 1 it prints the per-layer metrics of a separate traced
run.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2, printing no result, when the
checkout has no src/ljchain or a workload process fails.

Each workload runs in its own process (worker.py), one task at a time.
Set-up is timed from process start to the first timed task, in
SETUP_SAMPLES fresh processes, and reported as the median.  Every
end-to-end time is scaled to the reference machine speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "scan", "crosscheck", "cli")
SETUP_SAMPLES = 10            # fresh processes, half before the timed run, half after
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_ms_p50": "ms", "task_ms_tail": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A workload process failed; the run has no result."""


def spawn(workload: str, seed: int, seconds: float, mode: str) -> tuple[float, dict | None]:
    """Run one worker; return (set-up seconds, its JSON result).

    The worker is killed, and the run fails, once WORKER_TIMEOUT_S have
    passed.  Its stdout is unbuffered here, so that reading the "ready"
    line leaves the rest of the output in the pipe for communicate().
    """
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--mode", mode]
    start = time.perf_counter()
    left = lambda: max(0.0, WORKER_TIMEOUT_S - (time.perf_counter() - start))
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0) as p:
        try:
            if not select.select([p.stdout], [], [], left())[0]:
                raise subprocess.TimeoutExpired(argv, WORKER_TIMEOUT_S)
            first = p.stdout.readline()
            ready = time.perf_counter() - start
            rest, _ = p.communicate(timeout=left())
        except BaseException:
            p.kill()
            p.wait()
            raise
    if p.returncode != 0 or first.strip() != b"ready":
        raise BenchError(f"{workload} worker ({mode}) exited {p.returncode}")
    lines = rest.decode().strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def measure(workload: str, seed: int, seconds: float) -> dict:
    # set-up samples before and after the timed run, so that they see the
    # machine at two times a run apart; they are scaled to reference speed
    # by the calibration of the timed run between them
    setups = [spawn(workload, seed, seconds, "setup")[0] for _ in range(SETUP_SAMPLES // 2)]
    result = spawn(workload, seed, seconds, "measure")[1]
    setups += [spawn(workload, seed, seconds, "setup")[0] for _ in range(SETUP_SAMPLES // 2)]
    m = result["metrics"]
    m["setup_s"] = statistics.median(setups) * m["speed_scale"]
    result["setups"] = setups
    return result


def traced(workload: str, seed: int, seconds: float) -> dict:
    _, result = spawn(workload, seed, seconds, "trace")
    if workload != "cli":
        # a second process repeats the fixed count pass: counts must match
        _, again = spawn(workload, seed, seconds, "counts")
        if again["counts"] != result["counts"]:
            result["failed"] += 1
            result["failures"].append("deterministic counts differ between two processes")
    return result


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/task"
    if name.endswith(("_frac", "_ratio", "_per_solve", "_per_call")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ljchain", "__init__.py")):
        print(f"run.py: no src/ljchain under {ROOT}; run from an ljchain checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    for why in result["failures"]:
        print(f"FAILED {why}", file=sys.stderr)
    m = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  attempted {result['attempted']}  known-defect {result['known']}  "
          f"failed {result['failed']}")
    if args.trace:
        names = list(m)
        units = {k: per_layer_unit(k) for k in names}
        print(f"  spans kept {result['spans'][0]}, dropped {result['spans'][1]} "
              f"(written to .bench_out/spans-{args.workload}.csv)")
    else:
        names = list(END_TO_END_UNITS) + ["failed_frac"]
        units = dict(END_TO_END_UNITS, failed_frac="ratio")
        print(f"  tail percentile p{result['tail']}  "
              f"({m.pop('tail_samples_beyond')} samples beyond it)")
        print(f"  speed scale {m.pop('speed_scale'):.4f} (times below are at reference "
              f"speed); set-up samples before scaling "
              + " ".join(f"{v:.4f}" for v in result["setups"]))
    for k in names:
        print(f"  {k:40s} {m[k]:.6g} {units[k]}")
    metrics = {k: {"value": m[k], "unit": units[k]} for k in names if k != "failed_frac"}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
