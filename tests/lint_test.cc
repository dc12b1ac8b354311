// dm_lint end-to-end tests: every rule must fire on its seeded fixture at
// the expected (file, line), the escape hatch and the clean file must stay
// silent, the real tree must lint clean, and the output must be stable.
//
// Alongside the fixture goldens there are temp-tree tests: parser edge
// cases (CRLF, empty files, unterminated raw strings, multi-line macros)
// and mutation tests that delete one leg of an RPC or metric contract and
// assert the analyzer notices.
//
// DM_LINT_FIXTURE_DIR / DM_LINT_SOURCE_ROOT are injected by
// tests/CMakeLists.txt so the test is independent of the build directory.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dm_lint_core.h"

namespace dm::lint {
namespace {

std::vector<Diagnostic> run_on_fixtures() {
  Options options;
  options.root = DM_LINT_FIXTURE_DIR;
  return run(options);
}

struct Expected {
  const char* file;
  int line;
  const char* rule;
};

// Keep in sync with tests/lint_fixtures/ — each entry is one seeded
// violation. Sorted by (file, line, rule), matching analyzer output order.
const Expected kExpected[] = {
    {"ci.sh", 4, kRuleMetricContract},
    {"src/cluster/bad_rpc_contract.cc", 7, kRuleRpcContract},
    {"src/common/bad_layering.h", 5, kRuleLayerDep},
    {"src/core/bad_determinism.cc", 11, kRuleRand},
    {"src/core/bad_determinism.cc", 14, kRuleRand},
    {"src/core/bad_determinism.cc", 15, kRuleRand},
    {"src/core/bad_determinism.cc", 16, kRuleRand},
    {"src/core/bad_determinism.cc", 20, kRuleWallclock},
    {"src/core/bad_determinism.cc", 22, kRuleWallclock},
    {"src/core/bad_determinism.cc", 26, kRuleGetenv},
    {"src/core/bad_determinism.cc", 30, kRulePtrHash},
    {"src/core/bad_determinism.cc", 34, kRulePtrHash},
    {"src/core/bad_status_branch.cc", 13, kRuleStatusDiscard},
    {"src/cxl/bad_lock_cycle.cc", 15, kRuleLockOrder},
    {"src/cxl/bad_lock_cycle.cc", 22, kRuleLockOrder},
    {"src/cxl/bad_lock_range.cc", 16, kRuleLockOrder},
    {"src/cxl/bad_lock_unannotated.cc", 12, kRuleLockOrder},
    {"src/mem/bad_test_include.cc", 3, kRuleLayerTestInclude},
    {"src/obs/bad_metrics.cc", 17, kRuleMetricContract},
    {"src/obs/bad_metrics.cc", 18, kRuleMetricContract},
    {"src/obs/bad_metrics.cc", 19, kRuleMetricContract},
    {"src/obs/bad_metrics.cc", 20, kRuleMetricContract},
    {"src/obs/bad_span.cc", 12, kRuleSpanUnclosed},
    {"src/obs/bad_span_branch.cc", 15, kRuleSpanUnclosed},
    {"src/obs/bad_unordered.cc", 12, kRuleUnorderedIter},
};

TEST(LintFixturesTest, EverySeededViolationIsDetected) {
  const auto diags = run_on_fixtures();
  ASSERT_EQ(diags.size(), std::size(kExpected)) << to_text(diags);
  for (std::size_t i = 0; i < std::size(kExpected); ++i) {
    EXPECT_EQ(diags[i].file, kExpected[i].file) << "at index " << i;
    EXPECT_EQ(diags[i].line, kExpected[i].line) << "at index " << i;
    EXPECT_EQ(diags[i].rule, kExpected[i].rule) << "at index " << i;
    EXPECT_FALSE(diags[i].message.empty());
  }
}

TEST(LintFixturesTest, AllowMarkerAndCleanFileProduceNoFindings) {
  for (const Diagnostic& d : run_on_fixtures()) {
    EXPECT_NE(d.file, "src/core/allow_escape.cc") << to_text({d});
    EXPECT_NE(d.file, "src/core/clean.cc") << to_text({d});
  }
}

TEST(LintFixturesTest, OutputIsSortedAndStableAcrossRuns) {
  const auto first = run_on_fixtures();
  const auto second = run_on_fixtures();
  EXPECT_EQ(to_json(first), to_json(second));
  EXPECT_TRUE(std::is_sorted(
      first.begin(), first.end(), [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.file, a.line, a.rule) <
               std::tie(b.file, b.line, b.rule);
      }));
}

TEST(LintFixturesTest, JsonFollowsVersionedSchema) {
  const auto diags = run_on_fixtures();
  const std::string json = to_json(diags);
  EXPECT_NE(json.find("\"tool\": \"dm_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rules\": ["), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"det-rand\""), std::string::npos);
  EXPECT_TRUE(json.ends_with("\n"));
  // Every catalogued rule appears with a non-empty description.
  for (const RuleInfo& info : rule_catalog()) {
    EXPECT_NE(json.find("\"rule\": \"" + std::string(info.rule) + "\""),
              std::string::npos)
        << info.rule;
    EXPECT_STRNE(info.description, "") << info.rule;
  }
}

TEST(LintFixturesTest, MetricRegistryListsUniverseEmissions) {
  Options options;
  options.root = DM_LINT_FIXTURE_DIR;
  const RunResult result = run_full(options);
  EXPECT_NE(result.metric_registry.find("\"schema_version\": 2"),
            std::string::npos);
  // Counter from bad_metrics.cc and the span from bad_span_branch.cc.
  EXPECT_NE(result.metric_registry.find("\"fix.requests\""),
            std::string::npos);
  EXPECT_NE(result.metric_registry.find("\"fix.probe\""), std::string::npos);
  // A ternary span name is one span per arm under its subsystem
  // (span_ternary.cc), never the two arms joined.
  EXPECT_NE(result.metric_registry.find("\"fix.fix.hot\""),
            std::string::npos);
  EXPECT_NE(result.metric_registry.find("\"fix.fix.cold\""),
            std::string::npos);
  EXPECT_EQ(result.metric_registry.find("fix.hot.fix.cold"),
            std::string::npos);
  // Tools only read metrics: no entry is credited to a file under tools/.
  EXPECT_EQ(result.metric_registry.find("\"file\": \"tools/"),
            std::string::npos)
      << result.metric_registry;
}

// span_completion.cc: a sim::span_completion call with literal names
// registers <subsystem>.<name> (and not a literal inside the completion it
// wraps), and a begin_span whose handle goes to a lambda in the same
// statement lints clean.
TEST(LintFixturesTest, SpanCompletionRegistersAndHandOffLintsClean) {
  Options options;
  options.root = DM_LINT_FIXTURE_DIR;
  const RunResult result = run_full(options);
  EXPECT_NE(result.metric_registry.find("\"fix.fix.landed\""),
            std::string::npos)
      << result.metric_registry;
  EXPECT_EQ(result.metric_registry.find("fix.fix.body"), std::string::npos);
  for (const Diagnostic& d : result.diagnostics) {
    EXPECT_NE(d.file, "src/obs/span_completion.cc") << to_text({d});
  }
}

// The real tree must stay violation-free: this is the same scan `ci.sh
// --lint-only` runs, kept as a ctest so a stray rand() or layering
// back-edge fails the default suite too, not just CI.
TEST(LintTreeTest, SourceTreeIsClean) {
  Options options;
  options.root = DM_LINT_SOURCE_ROOT;
  const auto diags = run(options);
  EXPECT_TRUE(diags.empty()) << to_text(diags);
}

// ---- temp-tree harness for edge-case and mutation tests -------------------

class TempTree {
 public:
  explicit TempTree(const std::string& tag)
      : root_(std::filesystem::path(::testing::TempDir()) /
              ("dm_lint_" + tag)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~TempTree() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void write(const std::string& rel, const std::string& content) {
    const std::filesystem::path p = root_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out << content;
  }

  std::vector<Diagnostic> lint() const {
    Options options;
    options.root = root_.string();
    return run(options);
  }

 private:
  std::filesystem::path root_;
};

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const char* rule) {
  std::vector<Diagnostic> out;
  std::copy_if(diags.begin(), diags.end(), std::back_inserter(out),
               [&](const Diagnostic& d) { return d.rule == rule; });
  return out;
}

TEST(LintEdgeCaseTest, CrlfLineEndingsKeepLineNumbers) {
  TempTree tree("crlf");
  tree.write("src/core/a.cc",
             "int noise();\r\n"
             "int f() {\r\n"
             "  return rand();\r\n"
             "}\r\n");
  const auto diags = of_rule(tree.lint(), kRuleRand);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/core/a.cc");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintEdgeCaseTest, DegenerateInputsDoNotCrashOrMisfire) {
  TempTree tree("degenerate");
  tree.write("src/core/empty.cc", "");
  // Unterminated raw string: everything after it is literal text and must
  // not be scanned as code (the rand() below is inside the string).
  tree.write("src/core/raw.cc",
             "const char* blob = R\"(unterminated\n"
             "rand();\n");
  // Multi-line macro: preprocessor logical lines are invisible to the
  // statement grouper, including the braces inside them.
  tree.write("src/core/macro.cc",
             "#define WRAP(x) \\\n"
             "  do {          \\\n"
             "    (x);        \\\n"
             "  } while (0)\n"
             "void f() { WRAP(1); }\n");
  EXPECT_TRUE(tree.lint().empty()) << to_text(tree.lint());
}

// Contract mutation: a complete RPC method (label + handle + call) passes;
// deleting the dispatch leg from a copy of the tree is caught.
TEST(LintMutationTest, DeletedRpcDispatchBranchIsCaught) {
  const std::string decl =
      "enum MutRpcMethod : unsigned {\n"
      "  kRpcMutPing = 1,\n"
      "};\n";
  const std::string label = "void reg() { label_method(kRpcMutPing); }\n";
  const std::string serve = "void serve(Ep& ep) { ep.handle(kRpcMutPing, cb); }\n";
  const std::string client = "void probe(Ep& ep) { ep.call(7, kRpcMutPing, {}); }\n";

  TempTree complete("rpc_complete");
  complete.write("src/cluster/proto.h", decl);
  complete.write("src/cluster/use.cc", label + serve + client);
  EXPECT_TRUE(of_rule(complete.lint(), kRuleRpcContract).empty());

  TempTree mutated("rpc_mutated");
  mutated.write("src/cluster/proto.h", decl);
  mutated.write("src/cluster/use.cc", label + client);  // dispatch deleted
  const auto diags = of_rule(mutated.lint(), kRuleRpcContract);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/cluster/proto.h");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("handle() dispatch"), std::string::npos);
}

// Contract mutation: a read with a live emission passes; deleting the
// emission from a copy of the tree orphans the read and is caught.
TEST(LintMutationTest, DeletedMetricEmissionIsCaught) {
  const std::string emit = "void f(M& m) { ++m.counter(\"mut.hits\"); }\n";
  const std::string read =
      "void g(const M& m) { (void)m.counter_value(\"mut.hits\"); }\n";

  TempTree complete("metric_complete");
  complete.write("src/obs/emit.cc", emit);
  complete.write("src/obs/read.cc", read);
  EXPECT_TRUE(of_rule(complete.lint(), kRuleMetricContract).empty());

  TempTree mutated("metric_mutated");
  mutated.write("src/obs/emit.cc", "void f(M&) {}\n");  // emission deleted
  mutated.write("src/obs/read.cc", read);
  const auto diags = of_rule(mutated.lint(), kRuleMetricContract);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/obs/read.cc");
  EXPECT_NE(diags[0].message.find("no code emits"), std::string::npos);
}

}  // namespace
}  // namespace dm::lint
