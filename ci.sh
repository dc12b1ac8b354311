#!/usr/bin/env bash
# CI entry point: a lint stage (dm_lint + -Werror build), plain build +
# tests, an ASan/UBSan build + tests, an observability-artifact stage
# (flight dumps, span traces, profiler + micro-substrate JSON, with
# parse + determinism gates), a cluster-scale stage (the 128-node
# multi-tenant soak run twice same-seed in separate processes with a
# byte-identical snapshot diff), a CXL-tier stage (the litmus battery +
# coherence soak run twice same-seed cross-process and diffed, plus the
# storage-tiers ablation gate), a gcov-instrumented build gating
# line coverage of the swap + compression + cxl + ec layers, then a
# perfbench stage pinning the benchmark's virtual numbers to a golden.
#
# Usage: ./ci.sh [--lint-only|--plain-only|--sanitize-only|--obs-only|
#                 --scale-only|--ec-only|--cxl-only|--coverage-only|
#                 --perf-only]
#
# The lint pass builds the tree with -DDM_WERROR=ON (so -Wall -Wextra
# -Wshadow are hard errors in CI), runs tools/dm_lint over the source tree
# (determinism, layering, status hygiene, include hygiene, lock-order
# proofs, RPC/metric contracts, branch-sensitive status/span flow — see
# DESIGN.md), archives LINT_REPORT.json + METRIC_REGISTRY.json with a
# byte-stability diff, and runs the fixture suite proving every rule still
# fires.
# The sanitizer pass uses the DM_SANITIZE cache option defined in the root
# CMakeLists.txt (compiles the whole tree with -fsanitize=address,undefined).
# The coverage pass uses DM_COVERAGE and fails CI if line coverage of the
# .cc files under src/swap/ + src/compress/ + src/cxl/ + src/ec/ drops
# below the floor.
set -euo pipefail

cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
mode="${1:-all}"

# Established level: 94.3% measured when the gate was introduced (the
# swap/compress/model/recovery suites reach everything except a handful
# of defensive error branches); the floor leaves a few points of slack
# for legitimate churn.
coverage_floor=90.0

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$jobs"
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

run_lint() {
  local build_dir=build-lint
  local art="$build_dir/artifacts"
  # -Werror build proves the tree is warning-free before anything runs.
  cmake -B "$build_dir" -S . -DDM_WERROR=ON
  cmake --build "$build_dir" -j "$jobs"

  # Tree scan (flow + protocol rules included: lock-order proofs, RPC and
  # metric contracts, branch-sensitive status/span checks). The JSON report
  # is archived, and a second run is diffed against the first so the report
  # is provably byte-stable.
  rm -rf "$art"
  mkdir -p "$art"
  echo "==> dm_lint: tree scan (JSON report + byte-stability check)"
  "./$build_dir/tools/dm_lint" --root . --json > "$art/LINT_REPORT.json"
  "./$build_dir/tools/dm_lint" --root . --json > "$art/LINT_REPORT.second.json"
  diff "$art/LINT_REPORT.json" "$art/LINT_REPORT.second.json"
  rm "$art/LINT_REPORT.second.json"

  # Harvested metric/span registry — the ground truth the metric-contract
  # rule checks gate specs (like the SLO string below) against.
  echo "==> dm_lint: metric registry"
  "./$build_dir/tools/dm_lint" --root . --metric-registry \
    > "$art/METRIC_REGISTRY.json"
  grep -q '"schema_version": 2' "$art/METRIC_REGISTRY.json"

  echo "==> dm_lint: fixture suite"
  ctest --test-dir "$build_dir" --output-on-failure -R 'Lint' -j "$jobs"
}

run_obs() {
  local build_dir=build
  local art="$build_dir/artifacts"
  cmake -B "$build_dir" -S .
  cmake --build "$build_dir" -j "$jobs" \
    --target dm_top bench_micro_substrate bench_profile_substrate

  rm -rf "$art"
  mkdir -p "$art/run_a" "$art/run_b"

  # Two same-seed chaos runs of dm_top with the full observability surface
  # attached: span tracer (Chrome trace), per-node flight recorders (dumped
  # by the injected crash), and one SLO. Everything the runs emit is in
  # virtual time, so the two directories must be byte-identical.
  echo "==> obs: dm_top chaos soak x2 (trace + flight dumps + SLO)"
  local run
  for run in run_a run_b; do
    (cd "$art/$run" &&
     ../../tools/dm_top --nodes 4 --ops 400 --seed 7 --chaos \
       --trace-out trace.json --flight-dir . \
       --slo "get_p99: p99 ldms.get_ns < 2ms over 200ms" > dm_top.out)
    (cd "$art/$run" && ../../bench/bench_profile_substrate > profile.out)
  done

  echo "==> obs: chaos soak produced flight dumps"
  compgen -G "$art/run_a/flight_*.json" > /dev/null || {
    echo "==> OBS GATE FAILED: no flight_<node>.json from the chaos soak"
    exit 1
  }

  echo "==> obs: same-seed artifact determinism"
  diff -r "$art/run_a" "$art/run_b" || {
    echo "==> OBS GATE FAILED: same-seed runs differ"
    exit 1
  }

  # The micro-substrate bench measures host-CPU throughput of the simulation
  # substrate itself (wall-clock, inherently run-to-run noisy), so its JSON
  # is archived and parse-checked but exempt from the byte-identical gate.
  echo "==> obs: micro-substrate benchmark JSON"
  ./"$build_dir"/bench/bench_micro_substrate --benchmark_min_time=0.01 \
    --benchmark_out="$art/BENCH_micro_substrate.json" \
    --benchmark_out_format=json > /dev/null

  echo "==> obs: every emitted JSON artifact parses"
  python3 - "$art" <<'EOF'
import glob, json, sys
paths = sorted(glob.glob(sys.argv[1] + "/**/*.json", recursive=True))
if not paths:
    sys.exit("no JSON artifacts found")
for path in paths:
    with open(path) as f:
        json.load(f)
    print(f"    parsed {path}")
EOF
}

run_scale() {
  local build_dir=build
  local art="$build_dir/artifacts/scale"
  cmake -B "$build_dir" -S .
  cmake --build "$build_dir" -j "$jobs" --target cluster_scale_test

  rm -rf "$art"
  mkdir -p "$art/run_a" "$art/run_b"

  # Two separate processes run the 128-node multi-tenant soak with the same
  # seed; each dumps its end-of-soak metrics snapshot via DM_SCALE_SNAPSHOT.
  # Everything in the soak is virtual-time, so the dumps must be
  # byte-identical — any divergence means nondeterminism crept into the
  # placement / harvest / migration path at cluster scale.
  echo "==> scale: 128-node soak x2 (same seed, separate processes)"
  local run
  for run in run_a run_b; do
    DM_SCALE_SNAPSHOT="$art/$run/snapshot.json" \
      ./"$build_dir"/tests/cluster_scale_test \
      --gtest_filter='ClusterScaleSoakTest.ZipfianChurnAt128NodesIsLossFreeAndDeterministic' \
      > "$art/$run/soak.out"
  done

  echo "==> scale: cross-process same-seed snapshot determinism"
  diff "$art/run_a/snapshot.json" "$art/run_b/snapshot.json" || {
    echo "==> SCALE GATE FAILED: same-seed soak snapshots differ"
    exit 1
  }

  echo "==> scale: snapshot parses and carries the scale counters"
  python3 - "$art/run_a/snapshot.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snap = json.load(f)
text = json.dumps(snap)
for key in ("placement.rebalance_moves", "ldms.migrated_entries",
            "harvest.offload_requests"):
    if key not in text:
        sys.exit(f"snapshot missing counter {key}")
    print(f"    found {key}")
EOF
}

run_ec() {
  local build_dir=build
  local art="$build_dir/artifacts/ec"
  cmake -B "$build_dir" -S .
  cmake --build "$build_dir" -j "$jobs" \
    --target ec_test chaos_test bench_ec_resilience

  rm -rf "$art"
  mkdir -p "$art/run_a" "$art/run_b"

  echo "==> ec: codec + system battery"
  ./"$build_dir"/tests/ec_test > "$art/ec_test.out"

  # The EC crash-storm soak runs twice with the same seed in separate
  # processes; each dumps its end-of-soak metrics snapshot via
  # DM_EC_SNAPSHOT. Any divergence means nondeterminism crept into the
  # encode / degraded-read / shard-repair path.
  echo "==> ec: crash-storm soak x2 (same seed, separate processes)"
  local run
  for run in run_a run_b; do
    DM_EC_SNAPSHOT="$art/$run/snapshot.json" \
      ./"$build_dir"/tests/chaos_test \
      --gtest_filter='ChaosEcSoakTest.*' \
      > "$art/$run/soak.out"
  done

  echo "==> ec: cross-process same-seed snapshot determinism"
  diff "$art/run_a/snapshot.json" "$art/run_b/snapshot.json" || {
    echo "==> EC GATE FAILED: same-seed soak snapshots differ"
    exit 1
  }

  # The resilience bench writes the headline comparison JSON; gate the
  # Hydra economics: EC overhead strictly below replication's, recovery
  # within 3x, zero loss anywhere.
  echo "==> ec: resilience bench + economics gate"
  (cd "$build_dir" && ./bench/bench_ec_resilience > artifacts/ec/bench.out)
  python3 - "$build_dir/BENCH_ec_resilience.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
if bench["total_lost"] != 0:
    sys.exit(f"EC GATE FAILED: {bench['total_lost']} entries lost")
if not bench["ec_overhead_below_replication"]:
    sys.exit("EC GATE FAILED: EC memory overhead not below replication's")
if not bench["ec_recovery_within_3x"]:
    sys.exit("EC GATE FAILED: EC recovery exceeded 3x replication's")
rep = bench["replication_overhead"]
for mode in bench["modes"]:
    if mode["mode"].startswith("ec_"):
        k, r = (int(x) for x in mode["mode"].split("_")[1:])
        bound = (k + r) / k + 1e-6
        if mode["overhead"] > bound:
            sys.exit(f"EC GATE FAILED: {mode['mode']} overhead "
                     f"{mode['overhead']:.3f} exceeds (k+r)/k={bound:.3f}")
        print(f"    {mode['mode']}: overhead {mode['overhead']:.3f}x "
              f"(bound {bound:.3f}x, replication {rep:.3f}x), "
              f"recovery {mode['recovery_ns']} ns, lost {mode['lost']}")
print("    economics gate passed")
PYEOF
}

run_cxl() {
  local build_dir=build
  local art="$build_dir/artifacts/cxl"
  cmake -B "$build_dir" -S .
  cmake --build "$build_dir" -j "$jobs" \
    --target cxl_test bench_ablation_storage_tiers

  rm -rf "$art"
  mkdir -p "$art/run_a" "$art/run_b"

  # The full battery runs twice with the same seeds in separate processes;
  # each dumps the litmus outcome log plus the seeded coherence-soak
  # snapshot via DM_CXL_SNAPSHOT. The dumps must be byte-identical — any
  # divergence means nondeterminism crept into the protocol (lock queue
  # order, snoop fan-out, store-buffer drain) or the tiering path.
  echo "==> cxl: litmus battery + coherence soak x2 (same seed, separate processes)"
  local run
  for run in run_a run_b; do
    DM_CXL_SNAPSHOT="$art/$run/snapshot.txt" \
      ./"$build_dir"/tests/cxl_test > "$art/$run/cxl_test.out"
  done

  echo "==> cxl: cross-process same-seed battery determinism"
  diff "$art/run_a/snapshot.txt" "$art/run_b/snapshot.txt" || {
    echo "==> CXL GATE FAILED: same-seed battery dumps differ"
    exit 1
  }

  # The storage-tiers bench carries the CXL ablation; gate the tier
  # economics: the coherent tier must strictly beat DRAM->RDMA on the hot
  # working set, and with the tier disabled the schedule must not move.
  echo "==> cxl: storage-tiers ablation + tier gate"
  (cd "$build_dir" && ./bench/bench_ablation_storage_tiers > artifacts/cxl/bench.out)
  python3 - "$build_dir/BENCH_storage_tiers.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
cxl = bench["cxl"]
if not cxl["baseline_repeat_identical"]:
    sys.exit("CXL GATE FAILED: tier-off baseline not byte-identical on repeat")
if cxl["speedup"] <= 1.0:
    sys.exit(f"CXL GATE FAILED: speedup {cxl['speedup']:.4f} <= 1.0 "
             "(tier must strictly improve hot-working-set latency)")
if cxl["line_hits"] == 0:
    sys.exit("CXL GATE FAILED: the hot set never hit the coherent tier")
print(f"    speedup {cxl['speedup']:.4f}x "
      f"({cxl['baseline_elapsed_ns']} ns -> {cxl['cxl_elapsed_ns']} ns), "
      f"{cxl['line_hits']} line hits, {cxl['promotions']} promotions, "
      f"{cxl['demotions']} demotions")
print("    tier gate passed")
PYEOF
}

run_coverage() {
  local build_dir=build-cov
  # The swap/compress test set: unit, sweep, adaptive-engine, the
  # trace-replay model checker, and the crash-recovery suite (which is
  # what reaches the write-back failure / degraded-fallback paths), plus
  # the codec battery: every remote byte goes through src/ec.
  local tests=(swap_test swap_adaptive_test swap_sweep_test model_test
               compress_test recovery_test cxl_test ec_test)
  cmake -B "$build_dir" -S . -DDM_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$build_dir" -j "$jobs" --target "${tests[@]}"
  find "$build_dir" -name '*.gcda' -delete
  for test in "${tests[@]}"; do
    "./$build_dir/tests/$test" >/dev/null
  done

  local covdir="$build_dir/coverage"
  rm -rf "$covdir"
  mkdir -p "$covdir"
  : > "$covdir/lines.txt"
  local lib src objdir
  for lib in swap compress cxl ec; do
    objdir="../src/$lib/CMakeFiles/dm_${lib}.dir"
    for src in src/"$lib"/*.cc; do
      # cmake names objects "<src>.cc.o", so gcov needs the object path
      # (with a bare directory it would look for "<src>.gcno").
      (cd "$covdir" &&
       gcov -o "$objdir/$(basename "$src").o" "../../$src" 2>/dev/null |
       awk -v want="$src" '
         /^File /          { f = $0; sub(/^File ./, "", f);
                             sub(/.$/, "", f); keep = (f ~ want"$") }
         keep && /^Lines executed:/ {
           line = $0; sub(/^Lines executed:/, "", line);
           split(line, parts, "% of ");
           printf "%s %s %s\n", want, parts[1], parts[2];
           keep = 0
         }' >> lines.txt)
    done
  done

  awk -v floor="$coverage_floor" '
    { covered += $2 * $3 / 100.0; total += $3;
      printf "    %-36s %6.2f%% of %d lines\n", $1, $2, $3 }
    END {
      if (total == 0) { print "coverage: no gcov data found"; exit 1 }
      pct = 100.0 * covered / total;
      printf "==> swap+compress+cxl+ec line coverage: %.2f%% (floor %.1f%%)\n",
             pct, floor;
      if (pct < floor) {
        print "==> COVERAGE GATE FAILED: below established level";
        exit 1
      }
    }' "$covdir/lines.txt"
}

run_perf() {
  local build_dir=.bench_build
  # Configured the way perfbench/run.py configures it, so this stage and
  # the benchmark share one build.
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    if command -v ninja > /dev/null; then
      cmake -S perfbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release -G Ninja
    else
      cmake -S perfbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
    fi
  fi
  cmake --build "$build_dir" --target perfbench_driver -j "$jobs"

  # Every workload at the default and held-out seeds, untraced; the
  # "virt" object of each run must match the golden exactly. A change
  # that moves virtual numbers regenerates it with --update.
  echo "==> perf: perfbench virtual numbers against the golden"
  python3 tools/perf_golden.py --driver "$build_dir/perfbench_driver" \
    --golden tests/goldens/perfbench_virt.json
}

if [[ "$mode" == "all" || "$mode" == "--lint-only" ]]; then
  echo "==> lint build (-Werror) + dm_lint"
  run_lint
fi

if [[ "$mode" == "all" || "$mode" == "--plain-only" ]]; then
  echo "==> plain build + tests"
  run_suite build
fi

if [[ "$mode" == "all" || "$mode" == "--sanitize-only" ]]; then
  echo "==> sanitized build + tests (ASan + UBSan)"
  run_suite build-asan -DDM_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if [[ "$mode" == "all" || "$mode" == "--obs-only" ]]; then
  echo "==> observability artifacts (flight/trace/profile/micro JSON)"
  run_obs
fi

if [[ "$mode" == "all" || "$mode" == "--scale-only" ]]; then
  echo "==> cluster-scale soak (same-seed cross-process determinism)"
  run_scale
fi

if [[ "$mode" == "all" || "$mode" == "--ec-only" ]]; then
  echo "==> erasure-coding battery (codec, soak determinism, economics gate)"
  run_ec
fi

if [[ "$mode" == "all" || "$mode" == "--cxl-only" ]]; then
  echo "==> cxl battery (litmus, soak determinism, tier economics gate)"
  run_cxl
fi

if [[ "$mode" == "all" || "$mode" == "--coverage-only" ]]; then
  echo "==> coverage build + swap/compress/cxl/ec gate"
  run_coverage
fi

if [[ "$mode" == "all" || "$mode" == "--perf-only" ]]; then
  echo "==> perfbench virtual-number golden"
  run_perf
fi

echo "==> ci passed"
