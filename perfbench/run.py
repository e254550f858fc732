#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the choreo library and the
benchmark binary from source in Release mode (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload, and prints the binary's report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end set; with --trace 1 they are its
per_layer set, whose time-based entries are self times (span duration minus
child spans) computed here from the binary's Chrome trace.

Deterministic values the binary reports are fingerprinted per (binary,
workload, seed, seconds) under the build directory; a later run that reads
differently is a correctness failure. Exits non-zero, without a result
line, when the build or the run fails, and non-zero after the result line
when a correctness check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics derived from span self times: name -> (how, span, scale).
#   median: median self time of the span, times scale
#   share:  the span's total self time over all step.* spans' total
STEP_SPANS = ["step.MeasureRefresh", "step.Arrival", "step.QueueRetry",
              "step.ReevalTick", "step.Departure"]
SPAN_METRICS = {
    "core.refresh_ms_p50": ("median", "step.MeasureRefresh", 1e-3),
    "core.refresh_share": ("share", "step.MeasureRefresh", 1.0),
    "core.arrival_us_p50": ("median", "step.Arrival", 1.0),
    "core.retry_ms_p50": ("median", "step.QueueRetry", 1e-3),
    "core.retry_share": ("share", "step.QueueRetry", 1.0),
    "core.reeval_ms_p50": ("median", "step.ReevalTick", 1e-3),
    "core.reeval_share": ("share", "step.ReevalTick", 1.0),
    "core.departure_us_p50": ("median", "step.Departure", 1.0),
    "core.start_ms": ("median", "core.start", 1e-3),
    "packetsim.train_us": ("median", "packetsim.train", 1.0),
    "cloud.snapshot_ms": ("median", "cloud.snapshot", 1e-3),
    "flowsim.path_rate_us": ("median", "flowsim.path_rate", 1.0),
    "measure.true_view_ms": ("median", "measure.true_view", 1e-3),
    "place.place_us_p50": ("median", "place.place", 1.0),
    "serve.refresh_us": ("median", "serve.clone", 1.0),
    "serve.publish_ms": ("median", "serve.publish", 1e-3),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "choreo_perfbench")
    return binary if os.path.exists(binary) else None


def self_times(trace_path):
    """Span name -> list of self times (us), plus the arguments of each span."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_lane = defaultdict(list)
    for e in events:
        by_lane[e["tid"]].append(e)
    selfs = defaultdict(list)
    args = defaultdict(list)
    for lane_events in by_lane.values():
        # Parents start no later and end no earlier than their children.
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, child_us, event]

        def close(entry):
            selfs[entry[2]["name"]].append(max(0.0, entry[2]["dur"] - entry[1]))
            args[entry[2]["name"]].append(entry[2].get("args", {}))

        for e in lane_events:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += min(e["dur"], stack[-1][0] - e["ts"])
            stack.append([e["ts"] + e["dur"], 0.0, e])
        while stack:
            close(stack.pop())
    return selfs, args


def span_metrics(trace_path):
    selfs, args = self_times(trace_path)
    step_total = sum(sum(selfs.get(name, [])) for name in STEP_SPANS)
    out = {}
    for metric, (how, span, scale) in SPAN_METRICS.items():
        values = selfs.get(span, [])
        if how == "median":
            out[metric] = statistics.median(values) * scale if values else 0.0
        else:
            out[metric] = sum(values) / step_total if step_total > 0 else 0.0
    refresh_pairs = sum(a.get("pairs", 0.0) for a in args.get("step.MeasureRefresh", []))
    refresh_us = sum(selfs.get("step.MeasureRefresh", []))
    out["measure.ms_per_probe"] = refresh_us * 1e-3 / refresh_pairs if refresh_pairs else 0.0

    total = sum(sum(v) for v in selfs.values())
    print("self time by span (traced phase and replays):")
    for name in sorted(selfs, key=lambda n: -sum(selfs[n])):
        s = sum(selfs[name])
        print(f"  {name:24s} n={len(selfs[name]):7d} self={s / 1e3:11.3f} ms "
              f"({100.0 * s / total if total else 0.0:5.1f}%)")
    return out


def design_checks(workload, m):
    """Prints whether a traced run stresses what its workload claims to.

    Informational: an optimisation may legitimately move a workload off its
    design point, which then calls for reshaping it, not for a failed run."""
    def val(name):
        return m.get(name, {}).get("value", 0.0)

    if workload == "session-probe":
        train_frac = (val("packetsim.train_us") * 1e-3 / val("measure.ms_per_probe")
                      if val("measure.ms_per_probe") else 0.0)
        claims = [("MeasureRefresh holds most loop time", val("core.refresh_share"), 0.5),
                  ("packet trains are most of a probe", train_frac, 0.5)]
    elif workload == "session-truth":
        view_frac = (val("measure.true_view_ms") / val("core.refresh_ms_p50")
                     if val("core.refresh_ms_p50") else 0.0)
        claims = [("no packet trains", 1.0 - val("measure.probes_per_app"), 1.0),
                  ("refresh is mostly a true view", view_frac, 0.5)]
    elif workload == "serve-churn":
        measured = sum(val(n) for n in ("measure.probes_per_app", "core.refresh_share",
                                        "packetsim.train_us", "flowsim.path_rate_us"))
        claims = [("no measurement layer runs", 1.0 if measured == 0 else 0.0, 1.0)]
    else:
        claims = [("MeasureRefresh holds most loop time", val("core.refresh_share"), 0.5)]
    for claim, value, floor in claims:
        print(f"design: {workload}: {claim}: {'yes' if value >= floor else 'NO'} "
              f"({value:.3f}, needs >= {floor})")


def check_fingerprint(build_dir, binary, workload, seed, seconds, deterministic):
    """Deterministic values must read the same on every run of a seed (a
    run's sessions depend on --seconds too)."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    folder = os.path.join(build_dir, "fingerprints", digest)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-{seed}-{seconds}.json")
    current = {name: repr(m["value"]) for name, m in deterministic.items()}
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    diffs = [f"{name}: {known[name]} then {value}" for name, value in current.items()
             if name in known and known[name] != value]
    known.update(current)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    trace_path = os.path.join(build_dir, f"trace-{args.workload}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    # A run that had to compile may take longer; otherwise the whole run,
    # build check included, stays within RUN_TIMEOUT_S.
    build_s = time.monotonic() - started
    budget = RUN_TIMEOUT_S if build_s > 30 else RUN_TIMEOUT_S - build_s
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"benchmark binary exited {proc.returncode} without a report")
        sys.stdout.write(proc.stdout)
        return 1
    print("\n".join(lines[:-1]))

    violations = list(report["violations"])
    metrics = dict(report["metrics"])
    if args.trace:
        metrics.update({k: {"value": v} for k, v in span_metrics(trace_path).items()})
        design_checks(args.workload, metrics)
    violations += [f"not deterministic: {d}" for d in check_fingerprint(
        build_dir, binary, args.workload, args.seed, args.seconds, report["deterministic"])]

    result = {}
    for m in wanted:
        value = metrics.get(m["name"], {}).get("value")
        if value is None or not math.isfinite(value):
            violations.append(f"metric {m['name']} missing or not finite")
            continue
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for v in violations:
        print(f"VIOLATION: {v}")
    correct = not violations and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
