// dm_lint: project-invariant static analysis (determinism, layering,
// status hygiene, lock order, RPC and metric contracts).
//
// The reproduction's results are seeded sim-time runs pinned to
// byte-identical outputs, so the invariants that keep replays honest are
// enforced mechanically rather than by review:
//
//  * determinism  — no wall clocks, libc/std randomness, environment
//    probing, or pointer-identity hashing outside the simulator's own
//    sources of time and the documented escape hatches; no iteration over
//    unordered containers in files that produce exported artifacts
//    (obs snapshots, bench JSON, wire encoding).
//  * layering     — project includes must follow the dependency DAG that
//    the CMake link graph encodes (common -> sim -> {mem,net,storage} ->
//    cluster -> core -> {swap,kvstore,rddcache} -> workloads, with obs and
//    compress as leaves under core/swap); src/ never includes test or
//    bench headers.
//  * status       — calls to Status/StatusOr-returning functions must
//    consume the result (the [[nodiscard]] types catch this at compile
//    time; the lint rule catches it in code that is not compiled in every
//    configuration, e.g. fixtures and gated paths).
//  * spans        — a raw member call to begin_span must have an end_span
//    on every control-flow path to the function exit; prefer the
//    sim::SpanScope guard, or sim::span_completion for a span a later
//    completion closes, which the rule never flags.
//  * lock-order   — lock acquisition sites form a global lock-order graph;
//    cycles, unannotated callback-style acquisitions, and range locks that
//    are not provably ascending are findings (dm_lint_flow.h).
//  * rpc-contract — every kRpc* enumerator must have a label_method
//    registration, a handle() dispatch, and a call() site.
//  * metric-contract — metric/span names are harvested into a registry;
//    collisions, convention violations, and reads or gate specs naming
//    metrics no code emits are findings.
//
// The analyzer needs no libclang: files are preprocessed into a blanked
// code view (dm_lint_model.h), then analyzed token/line-level or, for the
// flow-aware rules, over a statement tree + per-function CFG built by
// dm_lint_engine.h. Output is deterministic; false positives are
// suppressed in place with `// dm-lint: allow(<rule>[, <rule>...])` on the
// offending line or the line directly above it.
#pragma once

#include <string>
#include <vector>

namespace dm::lint {

// One finding. `file` is root-relative with '/' separators; diagnostics
// are sorted by (file, line, rule) and deduplicated, so output is stable
// across runs and platforms.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic& a, const Diagnostic& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule;
  }
};

struct Options {
  // Directory that reported paths are made relative to.
  std::string root = ".";
  // Paths (relative to root, or absolute) to scan; directories recurse
  // over *.h / *.cc. Empty = the project default set
  // {src, bench, tests, tools, examples}.
  std::vector<std::string> paths;
  // Path substrings to skip (matched against the root-relative path).
  // Defaults to the fixture tree and build directories; see run().
  std::vector<std::string> skip;
  bool use_default_skips = true;
};

// Rule identifiers (also the spelling used in allow() comments).
inline constexpr const char* kRuleRand = "det-rand";
inline constexpr const char* kRuleWallclock = "det-wallclock";
inline constexpr const char* kRuleGetenv = "det-getenv";
inline constexpr const char* kRulePtrHash = "det-ptr-hash";
inline constexpr const char* kRuleUnorderedIter = "det-unordered-iter";
inline constexpr const char* kRuleLayerDep = "layer-dep";
inline constexpr const char* kRuleLayerTestInclude = "layer-test-include";
inline constexpr const char* kRuleStatusDiscard = "status-discard";
inline constexpr const char* kRuleSpanUnclosed = "span-unclosed";
inline constexpr const char* kRuleLockOrder = "lock-order";
inline constexpr const char* kRuleRpcContract = "rpc-contract";
inline constexpr const char* kRuleMetricContract = "metric-contract";

// Rule id -> one-line description, embedded in the schema_version 2 JSON
// so report consumers never need this header.
struct RuleInfo {
  const char* rule;
  const char* description;
};
const std::vector<RuleInfo>& rule_catalog();

// Runs every rule over the configured tree and returns the sorted,
// deduplicated findings. The cross-file contract rules (lock-order
// cycles, rpc-contract, metric-contract resolution) only run when
// `options.paths` is empty: a path-restricted scan sees half a protocol.
std::vector<Diagnostic> run(const Options& options);

// run() plus the generated metric/span registry for the scanned tree.
struct RunResult {
  std::vector<Diagnostic> diagnostics;
  std::string metric_registry;  // schema_version 2 JSON, trailing newline
};
RunResult run_full(const Options& options);

// "file:line: [rule] message" lines, one per diagnostic.
std::string to_text(const std::vector<Diagnostic>& diags);

// Machine-readable export matching the bench_util.h JSON conventions
// (RFC 8259 escaping, sorted entries, trailing newline). Top level:
// {"tool", "schema_version": 2, "rules": [...], "diagnostics": [...]}.
std::string to_json(const std::vector<Diagnostic>& diags);

}  // namespace dm::lint
