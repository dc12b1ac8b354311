#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the disaggregated-memory
stack, on both of its clocks. perfbench/README.md defines every metric.

Run from the repository root:

  python3 perfbench/run.py --workload ml_scan --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --selftest

The first run in a checkout builds perfbench/ (and with it every library
under src/) into .bench_build/. Each repetition then starts the C++ driver
(perfbench/driver.cc) as its own process, one workload instance each, and
this script aggregates what the repetitions print. The last line of stdout
is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. Every other figure is printed above it.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"

# Workload records: seeds, scenarios per pass and seconds per pass.
# cluster_churn draws its tenant population from the seed, so its op count
# and host time move with it; it runs five scenarios where the others run
# three, which keeps run-to-run spread inside the bounds.
with open(HERE / "workloads.json") as _f:
    RECORDS = json.load(_f)
SCENARIOS = {w["name"]: w["scenarios_per_run"] for w in RECORDS["workloads"]}
PASS_SECONDS = {w["name"]: w["seconds_per_pass"] for w in RECORDS["workloads"]}
WORKLOADS = tuple(SCENARIOS)
# A run has 180 s to finish.
BUDGET_S = 170.0

# Figures printed besides the BENCHMARK.json metrics.
EXTRA_UNITS = {
    "virt_op_p999_ns": "ns",
    "virt_op_samples": "count",
    "compress.host_ns_per_decompress": "ns",
    "obs.background_traces": "count",
    "check.fault_traces": "count",
    "check.fault_attribution_drift": "ratio",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def load_manifest():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("no BENCHMARK.json at " + str(ROOT))
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no sources under " + str(ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def scenario_seed(seed, index):
    """Seed of the index-th scenario of a run; scenario 0 is --seed."""
    return seed if index == 0 else (seed * 1000003 + index) % 2**64


def run_driver(workload, seed, traced, deadline):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def virt_mismatches(a, b):
    """Virtual metrics of run a that run b does not reproduce exactly."""
    return sorted(k for k, v in a["virt"].items() if b["virt"].get(k) != v)


def passes(workload, seconds):
    """Passes over the scenarios in one --trace 0 run. The count depends on
    --seconds only, so a seed always runs the same ops: its failed ops
    repeat exactly, and a pass lasts about PASS_SECONDS[workload]."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def measure(workload, seed, seconds, deadline):
    """--trace 0: every scenario once per pass."""
    scenarios = SCENARIOS[workload]
    reps = []
    for _ in range(passes(workload, seconds)):
        for index in range(scenarios):
            rep = run_driver(workload, scenario_seed(seed, index), False,
                             deadline)
            rep["scenario"] = index
            reps.append(rep)
    errors = []
    first = {}
    for rep in reps:
        if rep["scenario"] in first:
            diff = virt_mismatches(first[rep["scenario"]], rep)
            if diff:
                errors.append(f"scenario {rep['scenario']} not reproduced: "
                              + ", ".join(diff[:5]))
        else:
            first[rep["scenario"]] = rep
    by_scenario = [first[i] for i in range(scenarios)]
    values = {}
    for key in by_scenario[0]["virt"]:
        # null is an unbounded percentile: it sorts above every number.
        xs = [r["virt"][key] for r in by_scenario]
        mid = statistics.median([math.inf if x is None else x for x in xs])
        values[key] = None if mid == math.inf else mid
    for key in reps[0]["host"]:
        values[key] = statistics.median([r["host"][key] for r in reps])
    # A ratio pools its scenarios: numerator and base are each summed, which
    # weighs every scenario by its base and reads steadier than a median.
    bases = {}
    for key in by_scenario[0]["bases"]:
        pairs = [r["bases"][key] for r in by_scenario]
        num, base = sum(p[0] for p in pairs), sum(p[1] for p in pairs)
        bases[key] = [num, base]
        values[key] = num / base if base > 0 else 0.0
    return reps, values, bases, errors


def trace(workload, seed, deadline):
    """--trace 1: two untraced runs and one traced run of --seed."""
    plain = [run_driver(workload, seed, False, deadline) for _ in range(2)]
    traced = run_driver(workload, seed, True, deadline)
    errors = []
    diff = virt_mismatches(plain[0], plain[1])
    if diff:
        errors.append("untraced runs disagree: " + ", ".join(diff[:5]))
    diff = virt_mismatches(plain[0], traced)
    if diff:
        errors.append("traced run does not reproduce: " + ", ".join(diff[:5]))
    tv = traced["virt"]
    if tv.get("obs.traces_evicted", 1) != 0:
        errors.append(f"{tv.get('obs.traces_evicted')} traces evicted")
    if tv.get("check.fault_attribution_drift", 1) > 0.01:
        errors.append("layer fault times drift "
                      f"{tv.get('check.fault_attribution_drift'):.4f} "
                      "from mean swap.fault_ns")
    values = {**tv, **traced["host"]}
    # Whole-phase host figures come from the untraced runs.
    host_s = statistics.median([r["host"]["host_s"] for r in plain])
    for key in ("host_s", "setup_s", "host_peak_rss_mib",
                "sim.host_ns_per_event", "core.build_s", "core.start_s",
                "workloads.preload_s"):
        values[key] = statistics.median([r["host"][key] for r in plain])
    values["obs.trace_overhead"] = traced["host"]["host_s"] / host_s
    values["compress.host_share"] = (
        tv["compress.pages_compressed"] * values["compress.host_ns_per_page"]
        + tv["compress.pages_decompressed"]
        * values["compress.host_ns_per_decompress"]) / 1e9 / host_s
    bases = dict(traced["bases"])
    bases["obs.trace_overhead"] = [traced["host"]["host_s"], host_s]
    bases["compress.host_share"] = [values["compress.host_share"] * host_s,
                                    host_s]
    return plain + [traced], values, bases, errors


def fmt(value):
    if value is None:
        return "unbounded"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def report(workload, seed, manifest, reps, values, bases, errors):
    """Prints every figure with its unit and adds the repetitions' check
    failures to `errors`; returns the op counts over all repetitions."""
    units = {m["name"]: m["unit"] for m in
             manifest["end_to_end"] + manifest["per_layer"]}
    units.update(EXTRA_UNITS)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"perfbench {workload} seed {seed}: {len(reps)} runs, "
          f"{attempted} ops, {failed} failed")
    # The benchmark's host-clock spans around each public call it makes.
    for name in values:
        if name.startswith("span."):
            units[name] = "s" if name.endswith("_s") else "count"
    for name in sorted(units):
        if name not in values:
            continue
        line = f"  {name:36s} {fmt(values[name]):>16s} {units[name]}"
        if name in bases:
            num, base = bases[name]
            line += f"   ({fmt(num)} / {fmt(base)})"
        if name == "virt_op_p999_ns" and values[name] is None:
            line += f"   ({failed} failed ops reach past rank 99.9%)"
        print(line)
    for rep in reps:
        for message in rep["op_errors"][:1]:
            print(f"  failed op sample (seed {rep['seed']}): {message}")
        for message in rep["errors"]:
            errors.append(f"seed {rep['seed']}: {message}")
        if rep["mismatches"]:
            errors.append(f"seed {rep['seed']}: {rep['mismatches']} pages "
                          "read back wrong")
    return attempted, failed


def result_metrics(kind, manifest, values, errors):
    """The BENCHMARK.json metrics of `kind`; prints every check failure."""
    metrics = {}
    for m in manifest[kind]:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            errors.append(f"metric {m['name']} has no finite value")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for message in errors:
        print("  CHECK FAILED: " + message)
    return metrics


def bench(args, manifest):
    build()
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        reps, values, bases, errors = trace(args.workload, args.seed,
                                            deadline)
    else:
        reps, values, bases, errors = measure(args.workload, args.seed,
                                              args.seconds, deadline)
    attempted, failed = report(args.workload, args.seed, manifest, reps,
                               values, bases, errors)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = result_metrics(kind, manifest, values, errors)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def selftest(manifest):
    """Metric-math unit tests, then the traced checks on the default and
    the held-out seed of every workload."""
    build()
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "--target",
                       "perfbench_metric_test", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("metric test build failed (needs GTest)")
    if subprocess.run([str(BUILD / "perfbench_metric_test")]).returncode:
        fail("metric tests failed")
    ok = True
    for workload in WORKLOADS:
        for seed in (RECORDS["default_seed"], RECORDS["held_out_seed"]):
            deadline = time.monotonic() + BUDGET_S
            reps, values, bases, errors = trace(workload, seed, deadline)
            report(workload, seed, manifest, reps, values, bases, errors)
            result_metrics("per_layer", manifest, values, errors)
            ok = ok and not errors
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    manifest = load_manifest()
    if args.selftest:
        return selftest(manifest)
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    bench(args, manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
