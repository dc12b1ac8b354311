#!/usr/bin/env python3
"""Pins perfbench's virtual-time numbers to a committed golden.

Runs the perfbench driver untraced on every workload at the default and
held-out seeds, and compares each run's "virt" object (virtual times,
counts and ratios; exact for a given seed) with the golden:

  python3 tools/perf_golden.py --driver .bench_build/perfbench_driver \
      --golden tests/goldens/perfbench_virt.json [--update]

Without --update it prints every metric that differs, one line each, and
exits 1 on any difference, on a page that read back wrong, or on a failed
op. With --update it rewrites the golden from the runs instead; a change
that means to move virtual numbers commits the regenerated file, so its
diff is the metric-by-metric record of what moved. Host-clock figures
never enter the golden.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ("ml_scan", "kv_zipf_ec", "cluster_churn")
SEEDS = (1, 424242)


def run(driver, workload, seed):
    proc = subprocess.run(
        [driver, "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: driver exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    runs = {}
    problems = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            out = run(args.driver, workload, seed)
            runs.setdefault(workload, {})[str(seed)] = out["virt"]
            if out["mismatches"] or out["errors"] or out["failed"]:
                problems.append(
                    f"{workload} seed {seed}: {out['mismatches']} pages read "
                    f"back wrong, {out['failed']} failed ops, errors "
                    f"{out['errors'][:3]}")
            print(f"    ran {workload} seed {seed}")

    if args.update and not problems:
        with open(args.golden, "w") as f:
            json.dump(runs, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"    wrote {args.golden}")
    elif not args.update:
        with open(args.golden) as f:
            golden = json.load(f)
        for workload in WORKLOADS:
            for seed in map(str, SEEDS):
                want = golden.get(workload, {}).get(seed, {})
                got = runs[workload][seed]
                for key in sorted(set(want) | set(got)):
                    if want.get(key) != got.get(key):
                        problems.append(f"{workload} seed {seed} {key}: "
                                        f"golden {want.get(key)} != "
                                        f"{got.get(key)}")
    for problem in problems:
        print("    " + problem)
    if problems:
        sys.exit(f"perf golden: {len(problems)} problem(s)")
    if not args.update:
        print("    every virtual metric matches the golden")


if __name__ == "__main__":
    main()
