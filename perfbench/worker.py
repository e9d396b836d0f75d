"""One workload process of the benchmark; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

It imports ljchain from the checkout's src/, makes the seeded inputs and
warms up, then prints "ready" (the parent times set-up up to that line).
Modes:

    setup    stop after "ready"
    measure  closed loop for S seconds with tracing off
    counts   the fixed count pass only (the parent compares two of them)
    trace    count pass, then S seconds of rounds alternating untraced and
             traced (for cli: plain, -X importtime and traced in turn);
             per-layer metrics

Every task's output is checked after the timed phases.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
RSS_TASKS = 1000
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import speed  # noqa: E402


def peak_rss_kb(wl) -> int:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def timed_phase(wl, seconds: float, record: list, kinds: int = 1, enter=None,
                leave=None, tracer=None) -> list[dict]:
    """Closed loop, one caller: whole rounds until `seconds` have passed.

    Round k runs as kind k % kinds: `enter(kind)` returns the function to
    call for that round and `leave(kind)` undoes it.  Alternating kinds
    round by round lets a traced and an untraced half see the same drift
    in machine speed.  Returns one {elapsed, latencies, indices} per kind;
    the first also holds the speed scale of the phase, from reference
    work timed between tasks and left out of elapsed (speed.py).

    Peak memory is read once RSS_TASKS tasks are done (or at the end), so
    that a faster program, which fills the caches of `scan` sooner, is not
    charged for doing more work in the same time.
    """
    phases = [{"elapsed": 0.0, "latencies": [], "indices": []} for _ in range(kinds)]
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    calibration = speed.Calibration(wl.calibration)
    first = len(record)
    peak = 0
    k = 0
    while time.perf_counter() < deadline:
        phase = phases[k % kinds]
        run = enter(k % kinds) if enter else wl.run
        begin = time.perf_counter()
        spent = 0.0
        for task in wl.round():
            spent += calibration.maybe()
            if tracer is not None:
                tracer.task = len(record)
            out = exc = None
            t0 = clock()
            try:
                out = run(task)
            except Exception as e:          # recorded and checked below
                exc = e
            phase["latencies"].append((clock() - t0) / 1e6)
            phase["indices"].append(len(record))
            record.append((task, out, exc))
            if len(record) - first == RSS_TASKS:
                peak = peak_rss_kb(wl)
        phase["elapsed"] += time.perf_counter() - begin - spent
        if leave:
            leave(k % kinds)
        k += 1
    phases[0]["peak_rss_kb"] = peak or peak_rss_kb(wl)
    phases[0]["speed_scale"] = calibration.scale()
    return phases


def count_pass(wl, record: list, tracing) -> dict:
    tracer = tracing.Tracer(max_spans=0)
    run = tracer.span(wl.run, "bench.task", "bench", "bench")
    before = tracing.caches()
    tracer.install()
    try:
        for _ in range(wl.count_rounds):
            for task in wl.round():
                try:
                    out, exc = run(task), None
                except Exception as e:          # recorded and checked later
                    out, exc = None, e
                record.append((task, out, exc))
    finally:
        tracer.uninstall()
    return tracing.summary(tracer, before)


def classify(wl, record: list) -> list[str]:
    """Outcome per task: "ok", "known" (the documented defect) or a reason."""
    outcomes = []
    for task, out, exc in record:
        if exc is None:
            try:
                why = wl.check(task, out)
            except Exception as e:          # the check's own library calls
                exc = e
            else:
                outcomes.append("ok" if why is None else f"{task!r}: {why}")
                continue
        outcomes.append("known" if wl.known_defect(task, exc)
                        else f"{task!r}: raised {type(exc).__name__}: {exc}")
    return outcomes


def ok_rate(phase: dict, outcomes: list[str]) -> float:
    ok = sum(1 for i in phase["indices"] if outcomes[i] == "ok")
    return ok / phase["elapsed"] if phase["elapsed"] else 0.0


def end_to_end(wl, phase: dict, outcomes: list[str]) -> dict:
    """End-to-end metrics of one measured phase; times at reference speed."""
    mine = [outcomes[i] for i in phase["indices"]]
    ok = mine.count("ok")
    lat = phase["latencies"]
    cuts = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    scale = phase["speed_scale"]
    return {
        "setup_s": None,                     # filled in by run.py
        "tasks_per_s": ok / (phase["elapsed"] * scale),
        "task_ms_p50": statistics.median(lat) * scale,
        "task_ms_tail": cuts[wl.tail - 1] * scale,
        "ok_frac": ok / len(mine),
        "peak_rss_mb": phase["peak_rss_kb"] / 1024.0,
        "failed_frac": (len(mine) - ok) / len(mine),
        "tail_samples_beyond": sum(1 for v in lat if v > cuts[wl.tail - 1]),
        "speed_scale": scale,
    }


def import_times(stderr: bytes) -> tuple[float, float]:
    """Cumulative import seconds of ljchain and numpy from -X importtime."""
    found = {}
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in ("ljchain", "numpy") and cumulative.strip().isdigit():
                found[name] = int(cumulative) / 1e6
    return found.get("ljchain", 0.0), found.get("numpy", 0.0)


def trace_cli(wl, seconds: float, record: list, tracing) -> tuple:
    """Rounds rotate between plain invocations, -X importtime and the
    tracer in each child; every invocation of a command must repeat its
    counts exactly.

    The import times come from the importtime rounds only.  The plain
    rounds give the untraced rate and cli.compute_s: an invocation's wall
    time minus the median import time.
    """
    modes = ("plain", "importtime", "traced")

    def enter(kind: int):
        wl.mode = modes[kind]
        return wl.run

    wl.out_dir = OUT_DIR
    plain, importtime, traced = timed_phase(wl, seconds, record, kinds=len(modes),
                                            enter=enter)
    imports, numpys = [], []
    for i in importtime["indices"]:
        task, out, exc = record[i]
        if exc is None:
            imp, num = import_times(out[2])
            imports.append(imp)
            numpys.append(num)
    import_s = statistics.median(imports) if imports else 0.0
    computes = [ms / 1e3 - import_s for i, ms in zip(plain["indices"], plain["latencies"])
                if record[i][2] is None]
    summaries, by_cmd, problems = [], {}, []
    spans_path = os.path.join(OUT_DIR, "spans-cli.csv")
    with open(spans_path, "w") as spans:
        spans.write("span,parent,name,layer,start_ns,end_ns,task\n")
        for i, stem in zip(traced["indices"], wl.children):
            task = record[i][0]
            try:
                with open(stem + ".json") as fh:
                    s = json.load(fh)
                with open(stem + ".spans.csv") as fh:
                    for line in fh:     # the child has no task ids: use i
                        spans.write(line.rstrip("\n").rsplit(",", 1)[0] + f",{i}\n")
            except OSError as e:
                problems.append(f"{task!r}: no trace from the child ({e})")
                continue
            finally:
                for suffix in (".json", ".spans.csv"):
                    if os.path.exists(stem + suffix):
                        os.remove(stem + suffix)
            summaries.append(s)
            c = tracing.counts(s)
            if by_cmd.setdefault(task[1], (c, s))[0] != c:
                problems.append(f"{task!r}: counts differ from the first {task[1]}")
    one_round = tracing.merge([s for _, s in by_cmd.values()])
    timed = tracing.merge(summaries)
    layer = tracing.layer_metrics(one_round, timed, len(summaries))
    layer.update({
        "cli.import_s": import_s,
        "cli.numpy_import_s": statistics.median(numpys) if numpys else 0.0,
        "cli.compute_s": statistics.median(computes) if computes else 0.0,
    })
    return plain, traced, layer, problems, timed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "counts", "trace"), required=True)
    args = ap.parse_args()

    import ljchain
    if not os.path.abspath(ljchain.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"worker: ljchain imported from {ljchain.__file__}, not this checkout",
              file=sys.stderr)
        return 3
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.warm_up()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    record: list[tuple] = []              # (task, output, exception)
    result: dict = {"workload": wl.name, "tail": wl.tail}
    problems: list[str] = []
    if args.mode == "measure":
        phase = timed_phase(wl, args.seconds, record)[0]
    elif wl.name == "cli":
        if args.mode == "counts":
            print("worker: the cli workload checks its counts within one trace run",
                  file=sys.stderr)
            return 3
        os.makedirs(OUT_DIR, exist_ok=True)
        plain, traced, layer, problems, timed = trace_cli(wl, args.seconds, record, tracing)
    else:
        counted = count_pass(wl, record, tracing)
        result["counts"] = tracing.counts(counted)
        if args.mode == "trace":
            tracer = tracing.Tracer()
            traced_run = tracer.span(wl.run, "bench.task", "bench", "bench")

            def enter(kind: int):
                if kind:
                    tracer.install()
                    return traced_run
                return wl.run

            before = tracing.caches()
            try:
                plain, traced = timed_phase(wl, args.seconds, record, kinds=2, enter=enter,
                                            leave=lambda kind: tracer.uninstall(),
                                            tracer=tracer)
            finally:
                tracer.uninstall()
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"spans-{wl.name}.csv"), "w") as fh:
                fh.write("span,parent,name,layer,start_ns,end_ns,task\n")
                tracer.write_spans(fh)
            timed = tracing.summary(tracer, before)
            layer = tracing.layer_metrics(counted, timed, len(traced["indices"]))
            layer.update({"cli.import_s": 0.0, "cli.numpy_import_s": 0.0, "cli.compute_s": 0.0})

    if args.mode == "trace":
        result["spans"] = [timed["spans"], timed["spans_dropped"]]
    outcomes = classify(wl, record)
    failures = [o for o in outcomes if o not in ("ok", "known")] + problems
    result.update({
        "attempted": len(outcomes),
        "known": outcomes.count("known"),
        "failed": len(failures),
        "failures": failures[:5],
    })
    if args.mode == "measure":
        result["metrics"] = end_to_end(wl, phase, outcomes)
    elif args.mode == "trace":
        traced_rate = ok_rate(traced, outcomes)
        layer["trace.overhead_frac"] = (ok_rate(plain, outcomes) / traced_rate - 1.0
                                        if traced_rate else 0.0)
        result["metrics"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
