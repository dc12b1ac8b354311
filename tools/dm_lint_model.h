// dm_lint file model: the per-file preprocessed views every rule layer
// shares.
//
// A SourceFile carries the raw lines plus derived views built once at load
// time: a "code" view with comments and string/char literal contents
// blanked to spaces (so token matching never fires inside a literal), the
// per-line comment text (where `dm-lint: allow(...)` and `dm-lock: ...`
// markers live), the captured string literals with their positions (the
// metric/span name harvest reads these), the include list, and small
// per-file fact sets (unordered-container names, forward declarations).
//
// Script files (ci.sh) get a reduced model: raw lines plus '#' comment
// text; the C++ views stay empty and the C++ rules skip them.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dm::lint {

bool is_ident_char(char c);
bool is_ident_start(char c);

// Matches a balanced <...> starting at `pos` (which must point at '<').
// Returns the index one past the closing '>', or npos.
std::size_t skip_angles(const std::string& s, std::size_t pos);

// A string literal captured during comment/literal stripping. `line` is
// 1-based, `col` is the 0-based column of the opening quote on that line.
// Raw strings and literals spanning lines keep the position of their
// opening quote; only single-line contents are captured verbatim (the
// metric-name rules only care about single-line names).
struct StringLit {
  int line = 0;
  int col = 0;
  std::string text;
};

// `// dm-lock: order(<level>[, ascending])` annotation: names the lock
// level a callback-style acquisition takes, and optionally asserts the
// site acquires multiple locks of that level in ascending order.
struct LockAnnotation {
  std::string level;
  bool ascending = false;
};

struct SourceFile {
  std::string rel;                 // root-relative path, '/' separators
  std::string module;              // "common", "swap", ... or "tests" etc.
  bool in_src = false;
  bool is_script = false;          // ci.sh: raw lines + '#' comments only
  std::vector<std::string> lines;  // raw
  std::vector<std::string> code;   // literals/comments blanked
  std::vector<std::string> comments;              // comment text per line
  std::vector<StringLit> strings;                 // captured literals
  std::vector<std::pair<int, std::string>> includes;  // (line, quoted path)
  // rule -> lines on which the rule is explicitly allowed
  std::map<std::string, std::set<int>> allow;
  // line -> lock annotation covering it (a marker covers its own line and
  // the line below, mirroring allow()).
  std::map<int, LockAnnotation> lock_notes;
  std::set<std::string> unordered_names;  // vars/accessors of unordered type
  bool exporting = false;  // produces exported artifacts (JSON, wire, ...)
};

// "src/common/status.h" -> "common"; "tests/foo.cc" -> "tests"; "ci.sh"
// -> "".
std::string module_of(const std::string& rel);

// Builds every derived view on `file` from file.lines (which must already
// be populated, with trailing '\r' stripped). For scripts only the comment
// view and markers are built.
void preprocess(SourceFile& file);

// One identifier token from the code view, with enough neighbor context to
// tell calls from member accesses.
struct Token {
  std::string text;
  int line = 0;       // 1-based
  char prev = '\0';   // previous significant char ('\0' at start)
  char prev2 = '\0';  // the one before that (detects "->")
  char next = '\0';   // next significant char
};

std::vector<Token> tokenize(const SourceFile& file);

bool is_member_access(const Token& t);

// RFC 8259 escaping, mirroring obs::json_escape (obs/metrics_hub.h) so lint
// JSON and the obs/bench JSON obey the same conventions. dm_lint_core links
// no src/ library, so it keeps its own copy.
std::string json_escape(const std::string& raw);

}  // namespace dm::lint
