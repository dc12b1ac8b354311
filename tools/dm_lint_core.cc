#include "dm_lint_core.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "dm_lint_engine.h"
#include "dm_lint_flow.h"
#include "dm_lint_model.h"

namespace dm::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Layering table: transitive closure of the CMake link graph. A module may
// include itself and anything in its set. Unknown src/ modules are an error
// so a new subsystem has to be placed in the DAG deliberately.
// ---------------------------------------------------------------------------
const std::map<std::string, std::set<std::string>>& layer_table() {
  static const std::map<std::string, std::set<std::string>> kTable = [] {
    std::map<std::string, std::set<std::string>> t;
    t["common"] = {};
    t["sim"] = {"common"};
    t["obs"] = {"sim", "common"};
    t["net"] = {"sim", "common"};
    t["storage"] = {"sim", "common"};
    t["compress"] = {"common"};
    t["ec"] = {"common"};
    t["mem"] = {"net", "sim", "common"};
    t["cxl"] = {"net", "sim", "common"};
    t["cluster"] = {"mem", "net", "storage", "sim", "common"};
    t["core"] = {"cluster", "cxl", "ec", "mem", "net", "storage", "obs",
                 "sim", "common"};
    t["swap"] = t["core"];
    t["swap"].insert({"core", "compress"});
    t["kvstore"] = t["swap"];
    t["kvstore"].erase("compress");
    t["rddcache"] = t["kvstore"];
    t["workloads"] = t["swap"];
    t["workloads"].insert("swap");
    for (auto& [name, deps] : t) deps.insert(name);
    return t;
  }();
  return kTable;
}

// ---------------------------------------------------------------------------
// include-direct token map: distinctive project names -> owning header.
// A file whose code names one of these must include the header directly
// (IWYU-lite); transitive pulls rot when intermediate headers slim down.
// ---------------------------------------------------------------------------
const std::map<std::string, std::string>& owner_table() {
  static const std::map<std::string, std::string> kOwners = {
      {"Status", "common/status.h"},
      {"StatusOr", "common/status.h"},
      {"StatusCode", "common/status.h"},
      {"SimTime", "common/units.h"},
      {"MetricsRegistry", "common/metrics.h"},
      {"Histogram", "common/histogram.h"},
      {"Rng", "common/rng.h"},
      {"ZipfGenerator", "common/rng.h"},
      {"LruTracker", "common/lru.h"},
      {"Logger", "common/logging.h"},
      {"fnv1a", "common/checksum.h"},
      {"word_checksum", "common/checksum.h"},
      {"ZeroArena", "common/zero_arena.h"},
      {"Simulator", "sim/simulator.h"},
      {"Tracer", "sim/trace.h"},
      {"FailureInjector", "sim/failure_injector.h"},
      {"ChaosSchedule", "sim/chaos_schedule.h"},
      {"LatencyModel", "sim/latency_model.h"},
      {"WireReader", "net/wire.h"},
      {"WireWriter", "net/wire.h"},
      {"Fabric", "net/fabric.h"},
      {"RpcEndpoint", "net/rpc.h"},
      {"RetryPolicy", "net/retry_policy.h"},
      {"ConnectionManager", "net/connection_manager.h"},
      {"BlockDevice", "storage/block_device.h"},
      {"SwapExtentAllocator", "storage/block_device.h"},
      {"SlabAllocator", "mem/slab_allocator.h"},
      {"BufferPool", "mem/buffer_pool.h"},
      {"SharedMemoryPool", "mem/shared_memory_pool.h"},
      {"MemoryMap", "mem/memory_map.h"},
      {"EntryLocation", "mem/memory_map.h"},
      {"RemoteReplica", "mem/memory_map.h"},
      {"RsCodec", "ec/rs_codec.h"},
      {"gf_mul_add", "ec/gf256.h"},
      {"CxlDirectory", "cxl/coherence.h"},
      {"CxlAgent", "cxl/coherence.h"},
      {"LineState", "cxl/coherence.h"},
      {"CxlPageTier", "cxl/page_tier.h"},
      {"PlacementPolicy", "cluster/placement.h"},
      {"PlacementPolicyKind", "cluster/placement.h"},
      {"Harvester", "cluster/harvester.h"},
      {"NodeLoad", "cluster/harvester.h"},
      {"HarvestAction", "cluster/harvester.h"},
      {"ScenarioEngine", "sim/scenario.h"},
      {"Membership", "cluster/membership.h"},
      {"GroupDirectory", "cluster/group.h"},
      {"LeaderElection", "cluster/group.h"},
      {"VirtualServer", "cluster/virtual_server.h"},
      {"Ldmc", "core/ldmc.h"},
      {"Rdmc", "core/rdmc.h"},
      {"Rdms", "core/rdms.h"},
      {"NodeService", "core/node_service.h"},
      {"LdmcOptions", "core/node_service.h"},
      {"DmSystem", "core/dm_system.h"},
      {"RepairService", "core/repair_service.h"},
      {"PageCompressor", "compress/page_compressor.h"},
      {"CompressedPage", "compress/page_compressor.h"},
      {"SwapManager", "swap/swap_manager.h"},
      {"PatternTracker", "swap/pattern_tracker.h"},
      {"AdaptiveWindow", "swap/pattern_tracker.h"},
      {"SystemSetup", "swap/systems.h"},
      {"SystemKind", "swap/systems.h"},
      {"ZswapCache", "swap/zswap_cache.h"},
      {"KvStore", "kvstore/kv_store.h"},
      {"SpanSink", "sim/span_sink.h"},
      {"SpanScope", "sim/span_sink.h"},
      {"SpanTracer", "obs/span.h"},
      {"FlightRecorder", "obs/flight_recorder.h"},
      {"SloMonitor", "obs/slo.h"},
      {"Profiler", "obs/profiler.h"},
      {"MetricsHub", "obs/metrics_hub.h"},
      {"MiniSpark", "rddcache/mini_spark.h"},
      {"AppSpec", "workloads/app_catalog.h"},
  };
  return kOwners;
}

// Determinism token sets. Function-like names are only flagged when called
// (next significant char '('; not a member access), type-like names on any
// use.
const std::set<std::string>& banned_rand_calls() {
  static const std::set<std::string> k = {"rand", "srand", "rand_r",
                                          "drand48", "lrand48", "srandom"};
  return k;
}
const std::set<std::string>& banned_rand_types() {
  static const std::set<std::string> k = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "ranlux24",      "ranlux48",     "knuth_b"};
  return k;
}
const std::set<std::string>& banned_clock_calls() {
  static const std::set<std::string> k = {
      "time",      "clock",     "gettimeofday", "clock_gettime",
      "localtime", "gmtime",    "mktime",       "strftime",
      "timespec_get"};
  return k;
}
const std::set<std::string>& banned_clock_types() {
  static const std::set<std::string> k = {"system_clock", "steady_clock",
                                          "high_resolution_clock"};
  return k;
}
const std::set<std::string>& banned_env_calls() {
  static const std::set<std::string> k = {"getenv", "secure_getenv", "setenv",
                                          "putenv", "unsetenv"};
  return k;
}

// ---------------------------------------------------------------------------
// Statement reconstruction for the bare-call status-discard check: split
// the code view into `...;` statements at paren depth 0, flushing on braces
// so lambda and function bodies are analyzed as their own statements. (The
// branch-sensitive variant lives in dm_lint_flow.cc on the real statement
// tree; this splitter stays for the cheap unbound-call scan.)
// ---------------------------------------------------------------------------
struct Statement {
  std::string text;
  int line = 0;  // line of the statement's first character
};

std::vector<Statement> split_statements(const SourceFile& file) {
  std::vector<Statement> statements;
  std::string current;
  int start_line = 0;
  int depth = 0;
  auto flush = [&](bool terminated) {
    if (terminated && !current.empty()) {
      statements.push_back({current, start_line});
    }
    current.clear();
    depth = 0;
  };
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (char c : line) {
      if (c == '{' || c == '}') {
        flush(false);
        continue;
      }
      if (c == '(' || c == '[') ++depth;
      if (c == ')' || c == ']') --depth;
      if (c == ';' && depth <= 0) {
        flush(true);
        continue;
      }
      if (current.empty()) {
        if (c == ' ' || c == '\t') continue;
        start_line = static_cast<int>(li) + 1;
      }
      current += c;
    }
    if (!current.empty()) current += ' ';
  }
  return statements;
}

bool starts_with_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "return",   "if",      "for",     "while",   "do",      "switch",
      "case",     "else",    "break",   "continue", "using",  "typedef",
      "template", "namespace", "class", "struct",  "enum",    "public",
      "private",  "protected", "static_assert", "throw", "delete", "new",
      "co_return", "co_await", "goto",  "default", "friend",  "extern",
      "constexpr", "inline",  "static", "virtual", "explicit", "operator"};
  std::size_t i = 0;
  while (i < s.size() && is_ident_char(s[i])) ++i;
  return kKeywords.count(s.substr(0, i)) > 0;
}

// ---------------------------------------------------------------------------
// Declared Status/StatusOr-returning function names (the status-discard
// vocabulary). Names that also appear with a void declaration anywhere are
// dropped: callback-style overloads (e.g. an async void read() beside a
// sync Status read()) would otherwise false-positive.
// ---------------------------------------------------------------------------
void collect_status_decls(const SourceFile& file,
                          std::set<std::string>* status_names,
                          std::set<std::string>* void_names) {
  for (const std::string& line : file.code) {
    for (std::size_t pos = 0;;) {
      auto at = line.find("Status", pos);
      auto vat = line.find("void", pos);
      const bool is_void = vat != std::string::npos &&
                           (at == std::string::npos || vat < at);
      if (is_void) at = vat;
      if (at == std::string::npos) break;
      const std::size_t kwlen = is_void ? 4 : 6;
      pos = at + 1;
      if (at > 0 && is_ident_char(line[at - 1])) continue;
      std::size_t i = at + kwlen;
      if (!is_void) {
        // Status, StatusOr<...>, StatusCode (the latter is not a
        // must-consume vocabulary type).
        if (i + 1 < line.size() && line.compare(i, 2, "Or") == 0) {
          i += 2;
          while (i < line.size() && line[i] == ' ') ++i;
          if (i >= line.size() || line[i] != '<') continue;
          i = skip_angles(line, i);
          if (i == std::string::npos) continue;
        } else if (i < line.size() && is_ident_char(line[i])) {
          continue;  // StatusCode, StatusXyz
        }
      } else if (i < line.size() && is_ident_char(line[i])) {
        continue;
      }
      while (i < line.size() && (line[i] == ' ' || line[i] == '&')) ++i;
      std::size_t name_start = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i == name_start || !is_ident_start(line[name_start])) continue;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '(') continue;
      const std::string name = line.substr(name_start, i - name_start);
      if (name == "operator") continue;
      (is_void ? void_names : status_names)->insert(name);
    }
  }
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing.
// ---------------------------------------------------------------------------
class Analyzer {
 public:
  explicit Analyzer(const Options& options) : options_(options) {}

  RunResult run();

 private:
  void load_tree();
  void load_file(const fs::path& path, const std::string& rel);
  void check_determinism(const SourceFile& file);
  void check_unordered_iteration(const SourceFile& file);
  void check_layering(const SourceFile& file);
  void check_status_discard(const SourceFile& file);
  void check_include_direct(const SourceFile& file);
  void report(const SourceFile& file, int line, const char* rule,
              std::string message);

  const Options& options_;
  std::vector<SourceFile> files_;
  std::set<std::string> status_names_;
  std::map<std::string, const SourceFile*> by_rel_;
  std::vector<Diagnostic> diags_;
};

void Analyzer::report(const SourceFile& file, int line, const char* rule,
                      std::string message) {
  auto allowed = [&](const char* r) {
    auto it = file.allow.find(r);
    return it != file.allow.end() && it->second.count(line) > 0;
  };
  if (allowed(rule) || allowed("all")) return;
  diags_.push_back({file.rel, line, rule, std::move(message)});
}

void Analyzer::load_file(const fs::path& path, const std::string& rel) {
  std::ifstream in(path);
  if (!in) return;
  SourceFile file;
  file.rel = rel;
  file.module = module_of(rel);
  file.in_src = rel.rfind("src/", 0) == 0;
  file.is_script = rel.size() > 3 && rel.compare(rel.size() - 3, 3, ".sh") == 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    file.lines.push_back(line);
  }
  preprocess(file);
  files_.push_back(std::move(file));
}

void Analyzer::load_tree() {
  std::vector<std::string> roots = options_.paths;
  if (roots.empty()) {
    // ci.sh rides along so the metric-contract rule can check its gate
    // specs (SLO strings, coverage greps) against the emitted names.
    roots = {"src", "bench", "tests", "tools", "examples", "ci.sh"};
  }
  std::vector<std::string> skips = options_.skip;
  if (options_.use_default_skips) {
    skips.emplace_back("lint_fixtures");
    skips.emplace_back("build");
  }
  const fs::path base(options_.root);
  std::vector<fs::path> candidates;
  for (const std::string& root : roots) {
    const fs::path p = fs::path(root).is_absolute() ? fs::path(root)
                                                    : base / root;
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      candidates.push_back(p);
    } else if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (!it->is_regular_file(ec)) continue;
        const auto ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cc") candidates.push_back(it->path());
      }
    }
  }
  for (const fs::path& p : candidates) {
    std::error_code ec;
    std::string rel = fs::relative(p, base, ec).generic_string();
    if (ec || rel.empty() || rel.rfind("..", 0) == 0) {
      rel = p.generic_string();
    }
    const bool skipped =
        std::any_of(skips.begin(), skips.end(), [&](const std::string& s) {
          return rel.find(s) != std::string::npos;
        });
    if (!skipped) load_file(p, rel);
  }
  std::sort(files_.begin(), files_.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
}

void Analyzer::check_determinism(const SourceFile& file) {
  // The simulator layer is the one place virtual time and seeded
  // randomness are minted, so it is exempt from the source bans (its own
  // hygiene is covered by review and the escape-hatch comments elsewhere).
  if (file.rel.rfind("src/sim/", 0) == 0) return;
  for (const Token& t : tokenize(file)) {
    if (is_member_access(t)) continue;  // sim.time(), cfg.clock() etc.
    if (t.next == '(' && banned_rand_calls().count(t.text) > 0) {
      report(file, t.line, kRuleRand,
             "call to non-deterministic '" + t.text +
                 "' (use dm::Rng seeded from the run config)");
    } else if (banned_rand_types().count(t.text) > 0) {
      report(file, t.line, kRuleRand,
             "non-deterministic engine '" + t.text +
                 "' (use dm::Rng seeded from the run config)");
    } else if (t.next == '(' && banned_clock_calls().count(t.text) > 0) {
      report(file, t.line, kRuleWallclock,
             "wall-clock call '" + t.text +
                 "' (use sim::Simulator virtual time)");
    } else if (banned_clock_types().count(t.text) > 0) {
      report(file, t.line, kRuleWallclock,
             "wall clock '" + t.text +
                 "' (use sim::Simulator virtual time)");
    } else if (t.next == '(' && banned_env_calls().count(t.text) > 0) {
      report(file, t.line, kRuleGetenv,
             "environment-dependent call '" + t.text +
                 "' (thread configuration through explicit options)");
    }
  }
  // Pointer-identity hashing/ordering: std::hash<T*> and
  // reinterpret_cast<uintptr_t> make iteration order depend on allocation
  // addresses, which vary run to run.
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t pos = 0;;) {
      auto at = line.find("hash", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (at > 0 && is_ident_char(line[at - 1])) continue;
      std::size_t i = at + 4;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '<') continue;
      const auto end = skip_angles(line, i);
      if (end == std::string::npos) continue;
      if (line.substr(i, end - i).find('*') != std::string::npos) {
        report(file, static_cast<int>(li) + 1, kRulePtrHash,
               "hashing a pointer value (order depends on allocation "
               "addresses; key on a stable id instead)");
      }
    }
    for (std::size_t pos = 0;;) {
      auto at = line.find("reinterpret_cast", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      std::size_t i = at + 16;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '<') continue;
      const auto end = skip_angles(line, i);
      if (end == std::string::npos) continue;
      if (line.substr(i, end - i).find("uintptr_t") != std::string::npos) {
        report(file, static_cast<int>(li) + 1, kRulePtrHash,
               "pointer-to-integer conversion (address-dependent value; "
               "key on a stable id instead)");
      }
    }
  }
}

void Analyzer::check_unordered_iteration(const SourceFile& file) {
  if (!file.exporting) return;
  // The paired header's unordered members are visible to this .cc.
  std::set<std::string> names = file.unordered_names;
  if (file.rel.size() > 3 && file.rel.ends_with(".cc")) {
    const std::string pair = file.rel.substr(0, file.rel.size() - 3) + ".h";
    auto it = by_rel_.find(pair);
    if (it != by_rel_.end()) {
      names.insert(it->second->unordered_names.begin(),
                   it->second->unordered_names.end());
    }
  }
  if (names.empty()) return;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t pos = 0;;) {
      auto at = line.find("for", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (at > 0 && is_ident_char(line[at - 1])) continue;
      if (at + 3 < line.size() && is_ident_char(line[at + 3])) continue;
      std::size_t i = line.find('(', at);
      if (i == std::string::npos) continue;
      // Find the range-for ':' at depth 1 (skipping "::").
      int depth = 0;
      std::size_t colon = std::string::npos;
      std::size_t close = std::string::npos;
      for (std::size_t j = i; j < line.size(); ++j) {
        if (line[j] == '(') ++depth;
        if (line[j] == ')' && --depth == 0) {
          close = j;
          break;
        }
        if (line[j] == ':' && depth == 1) {
          if (j + 1 < line.size() && line[j + 1] == ':') {
            ++j;
            continue;
          }
          if (j > 0 && line[j - 1] == ':') continue;
          if (colon == std::string::npos) colon = j;
        }
      }
      if (colon == std::string::npos || close == std::string::npos) continue;
      std::string expr = line.substr(colon + 1, close - colon - 1);
      // Strip trailing call parens, then take the trailing identifier:
      // `registry->counters()` -> counters, `sources_` -> sources_.
      auto last = expr.find_last_not_of(" \t");
      if (last == std::string::npos) continue;
      expr.resize(last + 1);
      if (expr.ends_with("()")) expr.resize(expr.size() - 2);
      last = expr.find_last_not_of(" \t");
      if (last == std::string::npos) continue;
      std::size_t start = last + 1;
      while (start > 0 && is_ident_char(expr[start - 1])) --start;
      const std::string name = expr.substr(start, last + 1 - start);
      if (!name.empty() && names.count(name) > 0) {
        report(file, static_cast<int>(li) + 1, kRuleUnorderedIter,
               "iterating unordered container '" + name +
                   "' in an exporting file (sort into a vector or use an "
                   "ordered map before emitting)");
      }
    }
  }
}

void Analyzer::check_layering(const SourceFile& file) {
  const auto& table = layer_table();
  const bool known_src_module =
      file.in_src && table.count(file.module) > 0;
  if (file.in_src && !known_src_module && !file.includes.empty()) {
    report(file, file.includes.front().first, kRuleLayerDep,
           "module 'src/" + file.module +
               "' is not in the layering table (tools/dm_lint_core.cc); "
               "place it in the dependency DAG first");
    return;
  }
  for (const auto& [line, inc] : file.includes) {
    if (inc.find("..") != std::string::npos) {
      report(file, line, kRuleLayerTestInclude,
             "relative include escapes the include root: \"" + inc + "\"");
      continue;
    }
    if (file.in_src &&
        (inc.rfind("tests/", 0) == 0 || inc.rfind("bench/", 0) == 0)) {
      report(file, line, kRuleLayerTestInclude,
             "src/ must not include test or bench headers: \"" + inc + "\"");
      continue;
    }
    if (!known_src_module) continue;  // tests/bench/tools may include all
    const auto slash = inc.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.substr(0, slash);
    if (table.count(target) == 0) continue;  // not a project module path
    const auto& allowed = table.at(file.module);
    if (allowed.count(target) == 0) {
      report(file, line, kRuleLayerDep,
             "'" + file.module + "' must not depend on '" + target +
                 "' (dependency DAG: common -> sim -> {mem,net,storage} -> "
                 "cluster -> core -> {swap,kvstore,rddcache} -> workloads)");
    }
  }
}

void Analyzer::check_status_discard(const SourceFile& file) {
  for (const Statement& s : split_statements(file)) {
    const std::string& text = s.text;
    if (text.empty() || text[0] == '#' || text[0] == '(') continue;
    if (starts_with_keyword(text)) continue;
    // Any top-level '=' means the result is bound somewhere (the
    // branch-sensitive rule then checks the binding is consumed).
    int depth = 0;
    bool has_assign = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '(' || c == '[' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '>') --depth;
      if (c == '=' && depth <= 0) has_assign = true;
    }
    if (has_assign) continue;
    const std::string name = final_call_name(text);
    if (name.empty() || status_names_.count(name) == 0) continue;
    report(file, s.line, kRuleStatusDiscard,
           "result of Status-returning '" + name +
               "' is discarded (assign, check, or return it)");
  }
}

void Analyzer::check_include_direct(const SourceFile& file) {
  // Identity of this file in include-path terms ("common/status.h" for
  // src/common/status.h) plus its own header pair.
  std::string self = file.rel;
  if (self.rfind("src/", 0) == 0) self = self.substr(4);
  std::string pair;
  if (self.ends_with(".cc")) pair = self.substr(0, self.size() - 3) + ".h";
  std::set<std::string> included;
  for (const auto& [line, inc] : file.includes) included.insert(inc);

  std::map<std::string, int> first_use;  // owner header -> first line
  std::map<std::string, std::string> use_token;
  for (const Token& t : tokenize(file)) {
    auto it = owner_table().find(t.text);
    if (it == owner_table().end()) continue;
    if (is_member_access(t)) continue;
    const std::string& owner = it->second;
    if (owner == self || owner == pair) continue;
    if (included.count(owner) > 0) continue;
    if (file.fwd_decls.count(t.text) > 0) continue;
    if (first_use.emplace(owner, t.line).second) use_token[owner] = t.text;
  }
  for (const auto& [owner, line] : first_use) {
    report(file, line, kRuleIncludeDirect,
           "uses '" + use_token[owner] + "' but does not include \"" + owner +
               "\" directly (include what you use)");
  }
}

RunResult Analyzer::run() {
  load_tree();
  std::set<std::string> void_names;
  for (const SourceFile& file : files_) {
    by_rel_[file.rel] = &file;
    collect_status_decls(file, &status_names_, &void_names);
  }
  // Names with a void overload anywhere (async callback twins) are
  // ambiguous at token level, as are names shared with std container
  // methods (a project `Status erase(key)` vs `map.erase(it)`); the
  // [[nodiscard]] types still catch those at compile time.
  static const std::set<std::string> kContainerMethods = {
      "erase",   "insert",  "clear",   "find",    "count",   "swap",
      "merge",   "extract", "at",      "emplace", "assign",  "resize",
      "reserve", "push_back", "pop_back", "push_front", "pop_front"};
  for (const std::string& name : void_names) status_names_.erase(name);
  for (const std::string& name : kContainerMethods) status_names_.erase(name);

  const Reporter reporter = [this](const SourceFile& file, int line,
                                   const char* rule, std::string message) {
    report(file, line, rule, std::move(message));
  };
  LockGraph lock_graph;
  RpcContract rpc;
  MetricContract metrics;
  for (const SourceFile& file : files_) {
    const FileAnalysis fa = analyze_file(file);
    if (!file.is_script) {
      check_determinism(file);
      check_unordered_iteration(file);
      check_layering(file);
      check_status_discard(file);
      check_include_direct(file);
      check_status_branches(file, fa, status_names_, reporter);
      check_span_flow(file, fa, reporter);
      collect_lock_order(file, fa, &lock_graph, reporter);
      collect_rpc_contract(file, fa, &rpc);
    }
    collect_metric_contract(file, fa, &metrics, reporter);
  }
  // Cross-file contract rules need the whole protocol in view; a scan
  // restricted to explicit paths would report half a tree as missing.
  if (options_.paths.empty()) {
    check_lock_cycles(lock_graph, reporter);
    check_rpc_contract(rpc, reporter);
    check_metric_contract(metrics, reporter);
  }

  std::sort(diags_.begin(), diags_.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  diags_.erase(std::unique(diags_.begin(), diags_.end()), diags_.end());
  RunResult result;
  result.diagnostics = std::move(diags_);
  result.metric_registry = metric_registry_json(metrics);
  return result;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {kRuleRand,
       "no libc/std randomness outside the simulator; use dm::Rng"},
      {kRuleWallclock, "no wall clocks; use sim::Simulator virtual time"},
      {kRuleGetenv, "no environment probing; thread options explicitly"},
      {kRulePtrHash,
       "no pointer-identity hashing or pointer-to-integer ordering"},
      {kRuleUnorderedIter,
       "no unordered-container iteration in files that export artifacts"},
      {kRuleLayerDep,
       "project includes must follow the module dependency DAG"},
      {kRuleLayerTestInclude,
       "src/ must not include test or bench headers"},
      {kRuleStatusDiscard,
       "Status/StatusOr results must be consumed on every path"},
      {kRuleIncludeDirect,
       "include what you use: name a project type, include its header"},
      {kRuleSpanUnclosed,
       "begin_span must reach an end_span on every path to the exit"},
      {kRuleLockOrder,
       "the global lock-order graph must stay acyclic; callback-style "
       "acquisitions carry dm-lock annotations; range locks are provably "
       "ascending"},
      {kRuleRpcContract,
       "every kRpc* method has label_method, handle(), and call() legs"},
      {kRuleMetricContract,
       "metric/span names: no counter/histogram collisions, "
       "convention-clean, every read and gate spec resolves to an emission"},
  };
  return kRules;
}

RunResult run_full(const Options& options) { return Analyzer(options).run(); }

std::vector<Diagnostic> run(const Options& options) {
  return Analyzer(options).run().diagnostics;
}

std::string to_text(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message + "\n";
  }
  return out;
}

std::string to_json(const std::vector<Diagnostic>& diags) {
  std::string out =
      "{\n\"tool\": \"dm_lint\",\n\"schema_version\": 2,\n\"rules\": [\n";
  const auto& rules = rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "{\"rule\": \"" + json_escape(rules[i].rule) +
           "\", \"description\": \"" + json_escape(rules[i].description) +
           "\"}";
    out += (i + 1 < rules.size()) ? ",\n" : "\n";
  }
  out += "],\n\"diagnostics\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += "{\"file\": \"" + json_escape(d.file) +
           "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"" +
           json_escape(d.rule) + "\", \"message\": \"" +
           json_escape(d.message) + "\"}";
    out += (i + 1 < diags.size()) ? ",\n" : "\n";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace dm::lint
