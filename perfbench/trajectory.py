#!/usr/bin/env python3
"""Records one trajectory point: every workload over several seeds.

    python3 perfbench/trajectory.py --label 000-60e38d1 --seeds 1-10

Run from the repository root. For each workload of BENCHMARK.json it runs
perfbench/run.py untraced once per seed, then traced once on the default
seed of perfbench/layer_map.json, and writes perfbench/trajectory/LABEL.json
with the host, every end-to-end value, its quartiles and spread (the
distance between the first and third quartile over the median, as
statistics.quantiles(values, n=4) gives them), and the traced per-layer
values. Exits non-zero if any run failed or was not correct.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def host():
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    compiler = subprocess.run(["c++", "--version"], capture_output=True, text=True)
    return {"cpu": model, "cpus": os.cpu_count(), "kernel": platform.release(),
            "compiler": compiler.stdout.split("\n")[0]}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
    return ok, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        traced_seed = json.load(f)["seeds"]["default"]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    point = {"label": args.label, "host": host(), "run_seconds": seconds, "seeds": seeds,
             "traced_seed": traced_seed, "end_to_end": {}, "per_layer": {}}
    all_ok = True
    for w in workloads:
        values = {}
        for seed in seeds:
            ok, result = run(w, seed, seconds, 0)
            all_ok &= ok
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        for name, entry in values.items():
            v = entry["values"]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            entry.update({"q1": q1, "median": statistics.median(v), "q3": q3,
                          "spread": (q3 - q1) / statistics.median(v)})
            bound = bounds.get(name)
            print(f"  {w} {name}: median {entry['median']:.5g} spread {entry['spread']:.3f}"
                  f" (bound {bound})", flush=True)
        point["end_to_end"][w] = values
        ok, result = run(w, traced_seed, seconds, 1)
        all_ok &= ok
        if result is not None:
            point["per_layer"][w] = {n: m["value"] for n, m in result["metrics"].items()}

    out = os.path.join(HERE, "trajectory", f"{args.label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
