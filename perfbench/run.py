#!/usr/bin/env python3
"""The repository benchmark: build, run, check and report.

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test      # tiny sizes; checks the benchmark itself

Each invocation first builds the library, the dmis CLI and the driver from
this checkout (Release, into .bench_build/perfbench; incremental after the
first time), then starts one fresh driver process per run. With --workload
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json for
--trace 0, its per-layer metrics for --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("clique_gather", "congest_frontier", "serve_routed")
RUN_LIMIT_S = 170  # one run must end within 180 s

_running = {"child": None, "signal": None}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds incrementally; dies on any failure."""
    for rel in ("src/CMakeLists.txt", "tools/dmis_cli.cc", "bench/bench_common.h"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die(f"{rel} is missing: the benchmark builds the repository it sits in")
    if shutil.which("cmake") is None:
        die("cmake is not installed")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                die(f"build failed: {' '.join(step)}\n{tail}")


def _forward_signal(signum, _frame):
    _running["signal"] = signum
    child = _running["child"]
    if child is not None and child.poll() is None:
        child.send_signal(signal.SIGTERM)


def _stop_overdue(child):
    if child.poll() is None:
        print("perfbench: run exceeded its time limit; stopping it", file=sys.stderr)
        child.terminate()
        try:
            child.wait(10)
        except subprocess.TimeoutExpired:
            child.kill()


def run_driver(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the driver once, in a fresh process.

    Returns (exit code, the driver's result object or None, trace path)."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(BUILD, "work", f"{os.getpid()}-{tag}")
    trace_out = os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--trace-out", trace_out, *extra]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    _running["child"] = child
    watchdog = threading.Timer(RUN_LIMIT_S, _stop_overdue, args=(child,))
    watchdog.start()
    last = None
    try:
        for line in child.stdout:
            if last is not None and echo:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = child.wait()
    finally:
        watchdog.cancel()
        _running["child"] = None
        shutil.rmtree(work, ignore_errors=True)
    if _running["signal"] is not None:
        sys.exit(128 + _running["signal"])
    try:
        result = json.loads(last) if last else None
    except ValueError:
        result = None
    if result is None and last is not None and echo:
        print(last)
    return code, result, trace_out


def select_metrics(spec, result, trace):
    """The BENCHMARK.json metrics of one mode, taken from a driver result.

    Returns ({name: (value, unit, samples)}, problems). A per-layer metric of
    a layer the workload does not exercise reads 0 with 0 samples."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    produced = result.get("metrics", {})
    chosen, problems = {}, []
    for m in group:
        name, unit = m["name"], m["unit"]
        got = produced.get(name)
        if got is None:
            if trace:
                chosen[name] = (0, unit, 0)
            else:
                problems.append(f"metric {name} was not measured")
            continue
        if got["unit"] != unit:
            problems.append(f"metric {name} is in {got['unit']}, declared {unit}")
        if not trace and not got["value"] > 0:
            problems.append(f"metric {name} reads {got['value']}; it must never be 0")
        chosen[name] = (got["value"], unit, got["samples"])
    return chosen, problems


def print_table(title, chosen, result):
    print(f"== {title}")
    print(f"  {'metric':34} {'value':>16}  {'unit':8} samples")
    for name, (value, unit, samples) in chosen.items():
        print(f"  {name:34} {value:>16.6g}  {unit:8} {samples}")
    attempted = result.get("attempted", 0)
    failed = result.get("failed", 0)
    error_frac = failed / attempted if attempted else 1.0
    print(f"  {'error_frac':34} {error_frac:>16.6g}  {'ratio':8} {attempted}")


def run_one(spec, args):
    code, result, _ = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        die(f"{args.workload}: the driver exited with {code} and printed no result", 1)
    chosen, problems = select_metrics(spec, result, args.trace)
    for problem in problems:
        print(f"FAILED: {problem}")
    print_table(f"{args.workload}, seed {args.seed}, trace {args.trace}", chosen, result)
    attempted = max(1, int(result.get("attempted", 0)))
    failed = int(result.get("failed", 0)) + len(problems)
    correct = bool(result.get("correct")) and code == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in chosen.items()},
    }))
    return 0 if correct else 1


def run_all(spec, args):
    """Every workload, untraced then traced, each run in a fresh process."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        checksums = {}
        for trace in (0, 1):
            code, result, trace_out = run_driver(workload, args.seed, args.seconds, trace)
            if result is None:
                print(f"FAILED: {workload} trace {trace}: exit {code}, no result")
                ok = False
                continue
            chosen, problems = select_metrics(spec, result, trace)
            for key, value in result.get("checksums", {}).items():
                if checksums.setdefault(key, value) != value:
                    problems.append(f"seed/threads {key}: membership checksum "
                                    "differs between the untraced and traced runs")
            for problem in problems:
                print(f"FAILED: {problem}")
            print_table(f"{workload}, seed {args.seed}, trace {trace}", chosen, result)
            if trace:
                print(f"  trace: {os.path.relpath(trace_out, ROOT)}")
            ok = ok and code == 0 and bool(result.get("correct")) and not problems
            for name, (value, unit, _) in chosen.items():
                summary[f"{workload}.{name}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ok, "metrics": summary}))
    return 0 if ok else 1


def check_trace(path, workload):
    """Problems with a traced run's Chrome trace-event file."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"trace {path}: {e}"]
    if not events:
        return [f"trace {path} holds no spans"]
    ids = set()
    for event in events:
        if not {"name", "ph", "ts", "dur", "args"} <= event.keys():
            return [f"trace {path}: a span lacks name, ph, ts, dur or args"]
        ids.add(event["args"]["span_id"])
    for event in events:
        parent = event["args"]["parent_id"]
        if parent and parent not in ids:
            return [f"trace {path}: span {event['name']} names a missing parent"]
    if workload == "serve_routed":
        names_by_request = {}
        for event in events:
            request = event["args"].get("request_id")
            if request:
                names_by_request.setdefault(request, set()).add(event["name"])
        if not any({"net.request", "svc.request"} <= names
                   for names in names_by_request.values()):
            return [f"trace {path}: no request has client and service spans "
                    "under one id"]
    return []


def self_test(spec):
    """Tiny sizes: every declared metric printed with unit and sample count,
    seeds change inputs but not metric names, traces well formed, and one
    flipped byte in one served response fails the run."""
    problems = []
    measured_layers = set()
    for workload in WORKLOADS:
        names, digests = {}, {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{workload} seed {seed} trace {trace}"
            code, result, trace_out = run_driver(
                workload, seed, 1, trace, extra=["--tiny"], echo=False)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}")
                continue
            chosen, found = select_metrics(spec, result, trace)
            problems += [f"{label}: {p}" for p in found]
            for name, (_, unit, samples) in chosen.items():
                if not unit or not isinstance(samples, int):
                    problems.append(f"{label}: {name} lacks a unit or sample count")
            names[(seed, trace)] = sorted(result["metrics"])
            digests[(seed, trace)] = result.get("input_digest")
            if trace:
                measured_layers.update(result["metrics"])
                problems += [f"{label}: {p}" for p in check_trace(trace_out, workload)]
        if names.get((1, 0)) != names.get((2, 0)):
            problems.append(f"{workload}: seeds 1 and 2 print different metric names")
        if digests.get((1, 0)) == digests.get((2, 0)):
            problems.append(f"{workload}: seeds 1 and 2 generated the same inputs")
        if digests.get((1, 0)) != digests.get((1, 1)):
            problems.append(f"{workload}: one seed generated different inputs")
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured_layers]
    if unmeasured:
        problems.append("per-layer metrics no workload measures: " + ", ".join(unmeasured))
    code, result, _ = run_driver("serve_routed", 1, 1, 0,
                                 extra=["--tiny", "--flip-byte"], echo=False)
    if code == 0 or result is None or result.get("correct") or result.get("failed", 0) < 1:
        problems.append("a flipped byte in one served response was not caught")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="Build and run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; default: all, untraced then traced")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10),
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at tiny sizes")
    args = parser.parse_args()
    signal.signal(signal.SIGINT, _forward_signal)
    signal.signal(signal.SIGTERM, _forward_signal)
    build()
    if args.self_test:
        return self_test(spec)
    if args.workload:
        return run_one(spec, args)
    return run_all(spec, args)


if __name__ == "__main__":
    sys.exit(main())
