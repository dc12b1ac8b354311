// dm_lint flow & protocol rules: the analyses that need the statement/CFG
// engine (dm_lint_engine.h) or cross-file protocol state.
//
//  * lock-order      — every lock acquisition site (CxlDirectory::lock /
//    lock_range callbacks, std::mutex / lock_guard / scoped_lock) is given
//    a level: the `// dm-lock: order(<level>[, ascending])` annotation
//    when present, else `<module>.<variable>`. Acquiring B while lexically
//    holding A adds edge A -> B to a global lock-order graph; any edge
//    that closes a cycle is a finding. Callback-style acquisition without
//    an annotation is a finding (the held region is the callback body, so
//    the level cannot be inferred reliably). A site annotated `ascending`
//    may take many locks of one level but must be provably ascending: its
//    index argument is `v` or `base + v` and the enclosing function
//    increments v (`v + 1`, `++v`, `v++`, `v += 1`). The analysis is
//    lexical and intra-procedural: locks taken by callees are invisible,
//    which is exactly why multi-lock loops carry the ascending annotation.
//  * rpc-contract    — every `kRpc*` enumerator declared with a value must
//    have all three protocol legs somewhere in the scanned tree: a
//    label_method registration (which names its rpc.rtt.<label> metric),
//    a handle() dispatch registration, and a call() site. A method with a
//    missing leg is dead or unobservable protocol surface.
//  * metric-contract — metric/span name literals are harvested at the
//    known emission calls (counter(, histogram(, begin_span(, SpanScope,
//    span_completion() into a registry; a name emitted as both counter and histogram is a
//    collision, a name violating the lowercase dotted convention is a
//    finding, and a read site (counter_value(, find_histogram(,
//    total_counter() or a metric-shaped token in ci.sh gate specs that
//    resolves to no emitted name (exact, or under an emitted prefix like
//    "rpc.rtt.", with up to two hub components stripped) is an orphan.
//  * branch-sensitive status/span — a Status/StatusOr bound by a local
//    declaration must be consumed on every path to the function exit; a
//    raw begin_span must have an end_span on every path (a completion
//    callback inside the same statement counts). Both use the per-function
//    CFG, so an early return that skips the check/close is caught.
//
// The global rules (cycle/contract checks) only run on full-tree scans;
// path-restricted scans would see half a protocol and report nonsense.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dm_lint_engine.h"
#include "dm_lint_model.h"

namespace dm::lint {

// Findings are routed through the driver so allow() markers apply.
using Reporter =
    std::function<void(const SourceFile&, int, const char*, std::string)>;

// Statement tree + function units, built once per file by the driver.
struct FileAnalysis {
  std::vector<StmtNode> tree;
  std::vector<FunctionUnit> functions;
};

FileAnalysis analyze_file(const SourceFile& file);

// ---------------------------------------------------------------------------
// Branch-sensitive rules (per file).
// ---------------------------------------------------------------------------
void check_status_branches(const SourceFile& file, const FileAnalysis& fa,
                           const std::set<std::string>& status_names,
                           const Reporter& report);

void check_span_flow(const SourceFile& file, const FileAnalysis& fa,
                     const Reporter& report);

// ---------------------------------------------------------------------------
// Lock order.
// ---------------------------------------------------------------------------
struct LockGraph {
  struct Site {
    const SourceFile* file = nullptr;
    int line = 0;
  };
  // (held level, acquired level) -> first site that created the edge.
  std::map<std::pair<std::string, std::string>, Site> edges;
};

// Extracts this file's acquisition sites into `graph` and reports the
// per-site findings (unannotated callback acquisition, unprovable
// ascending range lock).
void collect_lock_order(const SourceFile& file, const FileAnalysis& fa,
                        LockGraph* graph, const Reporter& report);

// Reports every edge that closes a cycle, at the edge's site.
void check_lock_cycles(const LockGraph& graph, const Reporter& report);

// ---------------------------------------------------------------------------
// RPC contract.
// ---------------------------------------------------------------------------
struct RpcContract {
  struct Decl {
    const SourceFile* file = nullptr;
    int line = 0;
  };
  std::map<std::string, Decl> decls;  // kRpcX -> enumerator site
  std::set<std::string> labeled;      // has a label_method leg
  std::set<std::string> handled;      // has a handle() dispatch leg
  std::set<std::string> called;       // has a call() site
};

void collect_rpc_contract(const SourceFile& file, const FileAnalysis& fa,
                          RpcContract* state);
void check_rpc_contract(const RpcContract& state, const Reporter& report);

// ---------------------------------------------------------------------------
// Metric contract + generated registry.
// ---------------------------------------------------------------------------
struct MetricContract {
  struct Site {
    const SourceFile* file = nullptr;
    int line = 0;
  };
  struct Emission {
    Site site;
    std::string kind;  // "counter" | "histogram" | "span"
    // src/ only: tools, benches and tests read metrics, so their counter()
    // and histogram() calls are file-local reads, not emissions.
    bool universe = false;
  };
  std::map<std::string, std::vector<Emission>> names;     // full names
  std::map<std::string, std::vector<Emission>> prefixes;  // "rpc.rtt." ...
  std::vector<std::pair<std::string, Site>> reads;
  // Metric-shaped tokens from scripts (ci.sh gate specs); filtered against
  // first_components at check time, once the whole tree is collected.
  std::vector<std::pair<std::string, Site>> script_reads;
  std::set<std::string> first_components;  // of universe emissions
};

// Harvests emissions/reads; reports convention violations at emission
// sites (universe files only). Handles both C++ files and ci.sh.
void collect_metric_contract(const SourceFile& file, const FileAnalysis& fa,
                             MetricContract* state, const Reporter& report);
// Reports counter/histogram collisions and orphaned reads.
void check_metric_contract(const MetricContract& state,
                           const Reporter& report);
// The generated registry: every universe metric/prefix/span name with its
// kind and first emission site, sorted, as schema_version 2 JSON.
std::string metric_registry_json(const MetricContract& state);

}  // namespace dm::lint
