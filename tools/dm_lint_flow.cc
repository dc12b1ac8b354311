#include "dm_lint_flow.h"

#include <algorithm>
#include <array>
#include <tuple>

#include "dm_lint_core.h"

namespace dm::lint {
namespace {

// ---------------------------------------------------------------------------
// Shared text helpers.
// ---------------------------------------------------------------------------

bool token_at(const std::string& line, std::size_t at, std::size_t len) {
  const bool left = at == 0 || !is_ident_char(line[at - 1]);
  const bool right = at + len >= line.size() || !is_ident_char(line[at + len]);
  return left && right;
}

// Call-site harvest: every string literal inside the parenthesized argument
// list of a `name(...)` call. The paren match runs over the code view (so
// parens inside literals are invisible) and crosses lines; with
// `skip_var_ident` one identifier may sit between the token and the '('
// (`SpanScope guard(...)`).
struct CallLits {
  int line = 0;  // line of the call token
  std::vector<const StringLit*> lits;
  // Literals before the call's last top-level argument (commas nested in
  // parens, brackets or braces do not split arguments).
  std::size_t lits_before_last_arg = 0;
};

std::vector<CallLits> find_calls(const SourceFile& file, std::string_view name,
                                 bool skip_var_ident) {
  std::vector<CallLits> calls;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t pos = 0;;) {
      const auto at = line.find(name, pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (!token_at(line, at, name.size())) continue;
      // Cursor walk: skip whitespace (across lines), optionally one
      // identifier, then require '('.
      std::size_t cl = li;
      std::size_t cc = at + name.size();
      auto skip_ws = [&]() -> bool {
        for (;;) {
          if (cl >= file.code.size()) return false;
          const std::string& l = file.code[cl];
          if (cc >= l.size()) {
            ++cl;
            cc = 0;
            continue;
          }
          if (l[cc] == ' ' || l[cc] == '\t') {
            ++cc;
            continue;
          }
          return true;
        }
      };
      if (!skip_ws()) continue;
      if (skip_var_ident && is_ident_start(file.code[cl][cc])) {
        while (cc < file.code[cl].size() && is_ident_char(file.code[cl][cc])) {
          ++cc;
        }
        if (!skip_ws()) continue;
      }
      if (file.code[cl][cc] != '(') continue;
      // Match the argument parens.
      const std::size_t open_l = cl;
      const std::size_t open_c = cc;
      int depth = 0;
      int nest = 0;  // all bracket kinds, for the top-level commas
      std::size_t end_l = open_l;
      std::size_t end_c = open_c;
      auto last_comma = std::make_pair(open_l, open_c);
      bool closed = false;
      for (std::size_t l2 = open_l; l2 < file.code.size() && !closed; ++l2) {
        const std::string& l = file.code[l2];
        for (std::size_t c2 = l2 == open_l ? open_c : 0; c2 < l.size(); ++c2) {
          const char c = l[c2];
          if (c == '(' || c == '[' || c == '{') ++nest;
          if (c == ')' || c == ']' || c == '}') --nest;
          if (c == ',' && nest == 1) last_comma = {l2, c2};
          if (c == '(') ++depth;
          if (c == ')' && --depth == 0) {
            end_l = l2;
            end_c = c2;
            closed = true;
            break;
          }
        }
      }
      if (!closed) continue;
      CallLits call;
      call.line = static_cast<int>(li) + 1;
      for (const StringLit& lit : file.strings) {
        const auto p = std::make_pair(static_cast<std::size_t>(lit.line - 1),
                                      static_cast<std::size_t>(lit.col));
        if (p > std::make_pair(open_l, open_c) &&
            p < std::make_pair(end_l, end_c)) {
          call.lits.push_back(&lit);
          if (p < last_comma) ++call.lits_before_last_arg;
        }
      }
      calls.push_back(std::move(call));
    }
  }
  return calls;
}

}  // namespace

FileAnalysis analyze_file(const SourceFile& file) {
  FileAnalysis fa;
  if (file.is_script) return fa;
  fa.tree = build_statement_tree(file);
  fa.functions = collect_functions(fa.tree);
  return fa;
}

// ---------------------------------------------------------------------------
// Branch-sensitive status rule.
// ---------------------------------------------------------------------------
namespace {

// Leftmost assignment '=' at paren/bracket depth 0 that is not part of a
// comparison or compound operator.
std::size_t find_assign(const std::string& text) {
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c != '=' || depth != 0) continue;
    if (i + 1 < text.size() && text[i + 1] == '=') {
      ++i;
      continue;
    }
    const char p = i > 0 ? text[i - 1] : '\0';
    if (p == '=' || p == '<' || p == '>' || p == '!' || p == '+' || p == '-' ||
        p == '*' || p == '/' || p == '%' || p == '&' || p == '|' || p == '^') {
      continue;
    }
    return i;
  }
  return std::string::npos;
}

std::string first_decl_token(const std::string& text, std::size_t* next) {
  std::size_t i = *next;
  while (i < text.size() && text[i] == ' ') ++i;
  std::size_t start = i;
  while (i < text.size() && is_ident_char(text[i])) ++i;
  *next = i;
  return text.substr(start, i - start);
}

// `auto st = f(...)` / `Status st = f(...)` / `StatusOr<T> r = chain()`:
// returns the bound variable name, or "" if this is not such a declaration.
std::string parse_status_decl(const std::string& text,
                              const std::set<std::string>& status_names) {
  std::size_t cursor = 0;
  std::string tok = first_decl_token(text, &cursor);
  while (tok == "const" || tok == "static" || tok == "constexpr" ||
         tok == "inline") {
    tok = first_decl_token(text, &cursor);
  }
  const bool typed = tok == "Status" || tok == "StatusOr";
  if (!typed && tok != "auto") return "";
  const auto eq = find_assign(text);
  if (eq == std::string::npos) return "";
  // Variable: trailing identifier before '='.
  std::size_t e = eq;
  while (e > 0 && (text[e - 1] == ' ' || text[e - 1] == '&')) --e;
  std::size_t s = e;
  while (s > 0 && is_ident_char(text[s - 1])) --s;
  if (s == e || !is_ident_start(text[s])) return "";
  const std::string var = text.substr(s, e - s);
  if (typed) return var;
  // auto: the initializer must be a call to a Status-returning name.
  const std::string name = final_call_name(text.substr(eq + 1));
  if (name.empty() || status_names.count(name) == 0) return "";
  return var;
}

}  // namespace

void check_status_branches(const SourceFile& file, const FileAnalysis& fa,
                           const std::set<std::string>& status_names,
                           const Reporter& report) {
  for (const FunctionUnit& fn : fa.functions) {
    const Cfg cfg = build_cfg(fn);
    for (std::size_t id = 0; id < cfg.nodes.size(); ++id) {
      const Cfg::Node& node = cfg.nodes[id];
      if (node.stmt->is_block) continue;  // headers consume in the condition
      const std::string var = parse_status_decl(node.stmt->text, status_names);
      if (var.empty()) continue;
      if (path_to_exit_avoids(cfg, static_cast<int>(id), var)) {
        report(file, node.line, kRuleStatusDiscard,
               "Status result '" + var +
                   "' is never consumed on some control-flow path (check, "
                   "return, or propagate it on every branch)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Branch-sensitive span rule.
// ---------------------------------------------------------------------------
namespace {

// Legacy fallback for sites outside any recognized function body: scan to
// the end of the innermost enclosing block for an end_span token.
bool span_closed_in_block(const SourceFile& file, std::size_t start_line,
                          std::size_t start_col) {
  int depth = 0;
  for (std::size_t li = start_line; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t i = li == start_line ? start_col : 0; i < line.size();
         ++i) {
      const char c = line[i];
      if (c == '{') ++depth;
      if (c == '}' && --depth < 0) return false;
      if (c == 'e' && line.compare(i, 8, "end_span") == 0 &&
          token_at(line, i, 8)) {
        return true;
      }
    }
  }
  return false;
}

const FunctionUnit* innermost_unit(const FileAnalysis& fa, int line) {
  const FunctionUnit* best = nullptr;
  for (const FunctionUnit& fn : fa.functions) {
    if (line < fn.body->line || line > fn.body->end_line) continue;
    if (best == nullptr ||
        fn.body->end_line - fn.body->line <
            best->body->end_line - best->body->line) {
      best = &fn;
    }
  }
  return best;
}

}  // namespace

void check_span_flow(const SourceFile& file, const FileAnalysis& fa,
                     const Reporter& report) {
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t pos = 0;;) {
      const auto at = line.find("begin_span", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (!token_at(line, at, 10)) continue;
      // Only member calls open spans; declarations and out-of-line
      // definitions (`SpanTracer::begin_span(`) are not sites.
      std::size_t b = at;
      while (b > 0 && (line[b - 1] == ' ' || line[b - 1] == '\t')) --b;
      const bool member =
          b > 0 && (line[b - 1] == '.' ||
                    (line[b - 1] == '>' && b > 1 && line[b - 2] == '-'));
      if (!member) continue;
      std::size_t after = at + 10;
      while (after < line.size() &&
             (line[after] == ' ' || line[after] == '\t')) {
        ++after;
      }
      if (after >= line.size() || line[after] != '(') continue;
      const int site_line = static_cast<int>(li) + 1;
      const FunctionUnit* fn = innermost_unit(fa, site_line);
      bool leaked;
      if (fn == nullptr) {
        leaked = !span_closed_in_block(file, li, at + 10);
      } else {
        const Cfg cfg = build_cfg(*fn);
        const int id = node_at_line(cfg, site_line);
        if (id < 0) {
          leaked = !span_closed_in_block(file, li, at + 10);
        } else if (contains_token(cfg.nodes[id].flat, "end_span")) {
          leaked = false;  // closed by a callback in the same statement
        } else {
          leaked = path_to_exit_avoids(cfg, id, "end_span");
        }
      }
      if (leaked) {
        report(file, site_line, kRuleSpanUnclosed,
               "begin_span with no end_span on every path to the function "
               "exit (use sim::SpanScope, or sim::span_completion for a span "
               "that a later completion closes)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lock order.
// ---------------------------------------------------------------------------
namespace {

struct Acquisition {
  std::string level;
  bool callback = false;   // held region = the statement's argument blocks
  bool annotated = false;
  bool ascending = false;
  std::string first_arg;   // index expression, for the ascending proof
};

// Splits `args` (the text between the call parens) at top-level commas and
// returns the trimmed pieces.
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : args) {
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur += c;
  }
  out.push_back(cur);
  for (std::string& a : out) {
    const auto f = a.find_first_not_of(" \t");
    const auto l = a.find_last_not_of(" \t");
    a = f == std::string::npos ? "" : a.substr(f, l - f + 1);
  }
  if (out.size() == 1 && out[0].empty()) out.clear();
  return out;
}

// Trailing identifier of an expression ("mu_a" from "fix::mu_a").
std::string trailing_ident(const std::string& expr, std::size_t end) {
  std::size_t e = end;
  while (e > 0 && (expr[e - 1] == ' ' || expr[e - 1] == '\t')) --e;
  std::size_t s = e;
  while (s > 0 && is_ident_char(expr[s - 1])) --s;
  if (s == e || !is_ident_start(expr[s])) return "";
  return expr.substr(s, e - s);
}

std::string fallback_level(const SourceFile& file, const std::string& var) {
  const std::string mod = file.module.empty() ? "file" : file.module;
  return mod + "." + (var.empty() ? "expr" : var);
}

std::vector<Acquisition> detect_acquisitions(const SourceFile& file,
                                             const StmtNode& stmt) {
  std::vector<Acquisition> acqs;
  const std::string& text = stmt.text;
  const auto note = file.lock_notes.find(stmt.line);
  const bool annotated = note != file.lock_notes.end();

  auto matching_close = [&](std::size_t open) -> std::size_t {
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
      if (text[i] == '(' || text[i] == '[') ++depth;
      if ((text[i] == ')' || text[i] == ']') && --depth == 0) return i;
    }
    return std::string::npos;
  };

  // Member lock calls: `x.lock(...)`, `x->lock_range(...)`.
  for (const char* name : {"lock", "lock_range"}) {
    const std::size_t len = std::string_view(name).size();
    for (std::size_t pos = 0;;) {
      const auto at = text.find(name, pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (!token_at(text, at, len)) continue;
      std::size_t b = at;
      while (b > 0 && text[b - 1] == ' ') --b;
      const bool member =
          b > 0 && (text[b - 1] == '.' ||
                    (text[b - 1] == '>' && b > 1 && text[b - 2] == '-'));
      if (!member) continue;
      std::size_t open = at + len;
      while (open < text.size() && text[open] == ' ') ++open;
      if (open >= text.size() || text[open] != '(') continue;
      const auto close = matching_close(open);
      if (close == std::string::npos) continue;
      const auto args =
          split_args(text.substr(open + 1, close - open - 1));
      const std::string obj =
          trailing_ident(text, b - (text[b - 1] == '.' ? 1 : 2));
      Acquisition acq;
      acq.callback = !args.empty();
      acq.annotated = annotated;
      acq.ascending = annotated && note->second.ascending;
      acq.level = annotated ? note->second.level : fallback_level(file, obj);
      if (!args.empty()) acq.first_arg = args.front();
      acqs.push_back(std::move(acq));
    }
  }

  // Guard declarations: `std::lock_guard<std::mutex> g(mu)`,
  // `std::scoped_lock g(a, b)`, `std::unique_lock<std::mutex> g(mu)`.
  for (const char* guard : {"lock_guard", "scoped_lock", "unique_lock"}) {
    const std::size_t len = std::string_view(guard).size();
    for (std::size_t pos = 0;;) {
      const auto at = text.find(guard, pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (!token_at(text, at, len)) continue;
      std::size_t i = at + len;
      while (i < text.size() && text[i] == ' ') ++i;
      if (i < text.size() && text[i] == '<') {
        const auto past = skip_angles(text, i);
        if (past == std::string::npos) continue;
        i = past;
      }
      while (i < text.size() && text[i] == ' ') ++i;
      std::size_t name_start = i;
      while (i < text.size() && is_ident_char(text[i])) ++i;
      if (i == name_start) continue;  // no guard variable: a type mention
      while (i < text.size() && text[i] == ' ') ++i;
      if (i >= text.size() || text[i] != '(') continue;
      const auto close = matching_close(i);
      if (close == std::string::npos) continue;
      for (const std::string& arg :
           split_args(text.substr(i + 1, close - i - 1))) {
        const std::string mu = trailing_ident(arg, arg.size());
        if (mu.empty()) continue;
        Acquisition acq;
        acq.annotated = annotated;
        acq.level = annotated ? note->second.level : fallback_level(file, mu);
        acqs.push_back(std::move(acq));
      }
    }
  }
  return acqs;
}

bool has_increment(const std::string& flat, const std::string& v) {
  for (std::size_t pos = 0;;) {
    const auto at = flat.find(v, pos);
    if (at == std::string::npos) return false;
    pos = at + 1;
    if (!token_at(flat, at, v.size())) continue;
    if (at >= 2 && flat.compare(at - 2, 2, "++") == 0) return true;
    const std::string tail = flat.substr(at + v.size());
    for (const char* pat : {"++", " + 1", "+ 1", " +1", "+1", " += 1",
                            "+= 1", " ++"}) {
      const std::size_t plen = std::string_view(pat).size();
      if (tail.compare(0, plen, pat) != 0) continue;
      // Numeric patterns must not continue into a longer literal ("+ 10").
      if (plen < tail.size() && is_ident_char(tail[plen]) &&
          tail[plen - 1] == '1') {
        continue;
      }
      return true;
    }
  }
}

bool provably_ascending(const std::string& first_arg,
                        const std::string& fn_flat) {
  // Tokenize the index expression into identifiers and operators.
  std::vector<std::string> toks;
  for (std::size_t i = 0; i < first_arg.size();) {
    const char c = first_arg[i];
    if (c == ' ' || c == '\t') {
      ++i;
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t s = i;
      while (i < first_arg.size() && is_ident_char(first_arg[i])) ++i;
      toks.push_back(first_arg.substr(s, i - s));
      continue;
    }
    toks.push_back(std::string(1, c));
    ++i;
  }
  std::vector<std::string> candidates;
  if (toks.size() == 1 && is_ident_start(toks[0][0])) {
    candidates.push_back(toks[0]);
  } else if (toks.size() == 3 && toks[1] == "+" &&
             is_ident_start(toks[0][0]) && is_ident_start(toks[2][0])) {
    candidates.push_back(toks[0]);
    candidates.push_back(toks[2]);
  } else {
    return false;  // not `v` or `base + v`
  }
  for (const std::string& v : candidates) {
    if (has_increment(fn_flat, v)) return true;
  }
  return false;
}

struct LockWalker {
  const SourceFile& file;
  LockGraph* graph;
  const Reporter& report;

  void walk(const std::vector<StmtNode>& stmts,
            std::vector<std::string> held, const std::string& fn_flat) {
    for (const StmtNode& stmt : stmts) {
      if (stmt.is_block && !stmt.arg_block) {
        const BlockKind kind = classify_block(stmt);
        if (kind == BlockKind::kFunction || kind == BlockKind::kLambdaVar) {
          walk(stmt.children, {}, flat_text(stmt));  // deferred/new frame
        } else if (kind == BlockKind::kAggregate) {
          walk(stmt.children, {}, fn_flat);
        } else {
          walk(stmt.children, held, fn_flat);  // copies: guards stay scoped
        }
        continue;
      }
      if (stmt.is_block && stmt.arg_block) {
        walk(stmt.children, {}, fn_flat);
        continue;
      }
      const auto acqs = detect_acquisitions(file, stmt);
      if (acqs.empty()) {
        // Plain statement: its lambdas run later, without our locks.
        for (const StmtNode& arg : stmt.children) {
          walk(arg.children, {}, flat_text(arg));
        }
        continue;
      }
      bool any_callback = false;
      for (const Acquisition& acq : acqs) {
        if (acq.callback && !acq.annotated) {
          report(file, stmt.line, kRuleLockOrder,
                 "callback-style lock acquisition without a "
                 "// dm-lock: order(<level>) annotation (the held region is "
                 "the callback body; name its lock level)");
        }
        if (acq.ascending && acq.callback &&
            !provably_ascending(acq.first_arg, fn_flat)) {
          report(file, stmt.line, kRuleLockOrder,
                 "range lock annotated 'ascending' but index '" +
                     acq.first_arg +
                     "' is not provably ascending (expected `v` or "
                     "`base + v` with v incremented in this function)");
        }
        for (const std::string& h : held) {
          if (h == acq.level && acq.ascending) continue;  // proven above
          graph->edges.emplace(std::make_pair(h, acq.level),
                               LockGraph::Site{&file, stmt.line});
        }
        any_callback = any_callback || acq.callback;
      }
      std::vector<std::string> inner = held;
      for (const Acquisition& acq : acqs) inner.push_back(acq.level);
      if (any_callback) {
        for (const StmtNode& arg : stmt.children) {
          walk(arg.children, inner, fn_flat);
        }
      } else {
        held = std::move(inner);  // guards hold to end of block
      }
    }
  }
};

}  // namespace

void collect_lock_order(const SourceFile& file, const FileAnalysis& fa,
                        LockGraph* graph, const Reporter& report) {
  if (file.is_script) return;
  LockWalker walker{file, graph, report};
  walker.walk(fa.tree, {}, "");
}

void check_lock_cycles(const LockGraph& graph, const Reporter& report) {
  // Adjacency over levels; an edge A->B closes a cycle iff B reaches A.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [edge, site] : graph.edges) adj[edge.first].insert(edge.second);
  auto reaches = [&](const std::string& from, const std::string& to) {
    std::set<std::string> seen;
    std::vector<std::string> stack{from};
    while (!stack.empty()) {
      const std::string at = stack.back();
      stack.pop_back();
      if (at == to) return true;
      if (!seen.insert(at).second) continue;
      const auto it = adj.find(at);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) stack.push_back(next);
    }
    return false;
  };
  for (const auto& [edge, site] : graph.edges) {
    if (reaches(edge.second, edge.first)) {
      report(*site.file, site.line, kRuleLockOrder,
             "lock-order cycle: acquires '" + edge.second +
                 "' while holding '" + edge.first +
                 "' and a path from '" + edge.second + "' back to '" +
                 edge.first + "' exists in the global lock-order graph");
    }
  }
}

// ---------------------------------------------------------------------------
// RPC contract.
// ---------------------------------------------------------------------------
namespace {

std::vector<std::string> rpc_tokens(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t pos = 0;;) {
    const auto at = text.find("kRpc", pos);
    if (at == std::string::npos) break;
    pos = at + 1;
    if (at > 0 && is_ident_char(text[at - 1])) continue;
    std::size_t i = at;
    while (i < text.size() && is_ident_char(text[i])) ++i;
    if (i - at > 4) out.push_back(text.substr(at, i - at));
  }
  return out;
}

void collect_rpc_stmts(const SourceFile& file,
                       const std::vector<StmtNode>& stmts,
                       RpcContract* state) {
  for (const StmtNode& stmt : stmts) {
    if (stmt.is_block) {
      collect_rpc_stmts(file, stmt.children, state);
      continue;
    }
    const std::string flat = flat_text(stmt);
    const auto methods = rpc_tokens(flat);
    if (methods.empty()) {
      for (const StmtNode& arg : stmt.children) {
        collect_rpc_stmts(file, arg.children, state);
      }
      continue;
    }
    const bool lab = contains_token(flat, "label_method");
    const bool han = contains_token(flat, "handle");
    const bool cal = contains_token(flat, "call");
    for (const std::string& m : methods) {
      if (lab) state->labeled.insert(m);
      if (han) state->handled.insert(m);
      if (cal) state->called.insert(m);
    }
  }
}

}  // namespace

void collect_rpc_contract(const SourceFile& file, const FileAnalysis& fa,
                          RpcContract* state) {
  if (file.is_script || !file.in_src) return;
  // Declarations: a kRpc* enumerator given an explicit value.
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t pos = 0;;) {
      const auto at = line.find("kRpc", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (at > 0 && is_ident_char(line[at - 1])) continue;
      std::size_t i = at;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i - at <= 4) continue;
      std::size_t j = i;
      while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
      if (j < line.size() && line[j] == '=' &&
          (j + 1 >= line.size() || line[j + 1] != '=')) {
        state->decls.emplace(
            line.substr(at, i - at),
            RpcContract::Decl{&file, static_cast<int>(li) + 1});
      }
    }
  }
  collect_rpc_stmts(file, fa.tree, state);
}

void check_rpc_contract(const RpcContract& state, const Reporter& report) {
  for (const auto& [method, decl] : state.decls) {
    std::string missing;
    if (state.labeled.count(method) == 0) {
      missing += "label_method (rpc.rtt metric label)";
    }
    if (state.handled.count(method) == 0) {
      if (!missing.empty()) missing += ", ";
      missing += "handle() dispatch";
    }
    if (state.called.count(method) == 0) {
      if (!missing.empty()) missing += ", ";
      missing += "call() site";
    }
    if (!missing.empty()) {
      report(*decl.file, decl.line, kRuleRpcContract,
             "rpc method '" + method + "' is missing: " + missing);
    }
  }
}

// ---------------------------------------------------------------------------
// Metric contract.
// ---------------------------------------------------------------------------
namespace {

bool lower_dotted(const std::string& name, bool trailing_dot_ok,
                  std::size_t min_components) {
  if (name.empty()) return false;
  if (!(name[0] >= 'a' && name[0] <= 'z')) return false;
  std::size_t components = 1;
  bool prev_dot = false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '.') {
      if (prev_dot || i == 0) return false;
      prev_dot = true;
      ++components;
      continue;
    }
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
    prev_dot = false;
  }
  if (prev_dot) {  // trailing dot: a prefix emission
    if (!trailing_dot_ok) return false;
    --components;  // the dangling dot opened no component
  }
  return components >= min_components;
}

bool universe_file(const SourceFile& file) {
  return file.rel.rfind("src/", 0) == 0;
}

void add_emission(const SourceFile& file, int line, const std::string& name,
                  const std::string& kind, MetricContract* state,
                  const Reporter& report) {
  if (name.empty() || !is_ident_start(name[0])) return;  // glue like "."
  const bool universe = universe_file(file);
  const bool prefix = name.back() == '.';
  MetricContract::Emission em{{&file, line}, kind, universe};
  if (universe && !lower_dotted(name, true, prefix ? 1 : 2)) {
    report(file, line, kRuleMetricContract,
           "metric/span name \"" + name +
               "\" violates the naming convention (lowercase dotted "
               "components, at least two for full names)");
  }
  if (prefix) {
    state->prefixes[name].push_back(em);
  } else {
    state->names[name].push_back(em);
  }
  if (universe) {
    state->first_components.insert(name.substr(0, name.find('.')));
  }
}

const std::set<std::string>& file_extension_words() {
  static const std::set<std::string> k = {
      "sh",   "cc",  "h",    "o",     "out",  "json", "md",   "txt",
      "py",   "yml", "yaml", "cmake", "log",  "gcda", "gcno", "cpp",
      "hpp",  "cmd", "csv"};
  return k;
}

// ci.sh and friends: pull metric-shaped tokens out of gate specs. Filtering
// to first components the code actually emits happens at check time (the
// universe may not be collected yet).
void collect_script_tokens(const SourceFile& file, MetricContract* state) {
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    std::string text = file.lines[li];
    if (!file.comments[li].empty() &&
        text.size() > file.comments[li].size()) {
      text.resize(text.size() - file.comments[li].size() - 1);
    } else if (!file.comments[li].empty()) {
      continue;
    }
    const auto word = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
             (c >= '0' && c <= '9') || c == '_' || c == '.';
    };
    for (std::size_t i = 0; i < text.size();) {
      if (!word(text[i])) {
        ++i;
        continue;
      }
      std::size_t s = i;
      while (i < text.size() && word(text[i])) ++i;
      const std::string run = text.substr(s, i - s);
      const char before = s > 0 ? text[s - 1] : '\0';
      const char after = i < text.size() ? text[i] : '\0';
      if (before == '/' || before == '$' || after == '/') continue;
      if (run.find('.') == std::string::npos) continue;
      if (!lower_dotted(run, false, 2)) continue;
      const auto last_dot = run.rfind('.');
      if (file_extension_words().count(run.substr(last_dot + 1)) > 0) {
        continue;
      }
      state->script_reads.emplace_back(
          run, MetricContract::Site{&file, static_cast<int>(li) + 1});
    }
  }
}

}  // namespace

void collect_metric_contract(const SourceFile& file, const FileAnalysis& fa,
                             MetricContract* state, const Reporter& report) {
  (void)fa;
  if (file.is_script) {
    collect_script_tokens(file, state);
    return;
  }
  for (const CallLits& call : find_calls(file, "counter", false)) {
    for (const StringLit* lit : call.lits) {
      add_emission(file, lit->line, lit->text, "counter", state, report);
    }
  }
  for (const CallLits& call : find_calls(file, "histogram", false)) {
    for (const StringLit* lit : call.lits) {
      add_emission(file, lit->line, lit->text, "histogram", state, report);
    }
  }
  // Spans: the first literal is the subsystem and every later one a name
  // under it (a ternary name has one literal per arm); with only the
  // subsystem literal present the name is dynamic, so record a prefix.
  // sim::span_completion's last argument is the completion it wraps, whose
  // body may hold literals of its own, so only the literals before it count.
  struct SpanSite {
    const char* token;
    bool skip_var_ident;
    bool drop_last_arg;
  };
  for (const SpanSite& site : {SpanSite{"begin_span", false, false},
                               SpanSite{"SpanScope", true, false},
                               SpanSite{"span_completion", false, true}}) {
    for (const CallLits& call :
         find_calls(file, site.token, site.skip_var_ident)) {
      const std::size_t count =
          site.drop_last_arg ? call.lits_before_last_arg : call.lits.size();
      if (count == 0 || call.lits.front()->text.empty()) continue;
      const std::string& subsystem = call.lits.front()->text;
      if (count == 1) {
        add_emission(file, call.lits.front()->line, subsystem + ".", "span",
                     state, report);
      }
      for (std::size_t i = 1; i < count; ++i) {
        add_emission(file, call.lits[i]->line,
                     subsystem + "." + call.lits[i]->text, "span", state,
                     report);
      }
    }
  }
  for (const char* reader : {"counter_value", "find_histogram",
                             "total_counter"}) {
    for (const CallLits& call : find_calls(file, reader, false)) {
      for (const StringLit* lit : call.lits) {
        state->reads.emplace_back(
            lit->text, MetricContract::Site{&file, lit->line});
      }
    }
  }
}

namespace {

// Shape for read-side names: like the emission convention but the interior
// components may start with digits ("node.0.rpc.rtt.heartbeat").
bool read_shape(const std::string& name) {
  if (name.empty() || !(name[0] >= 'a' && name[0] <= 'z')) return false;
  bool prev_dot = false;
  std::size_t components = 1;
  for (char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
      ++components;
      continue;
    }
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
    prev_dot = false;
  }
  return !prev_dot && components >= 2;
}

bool resolves(const MetricContract& state, const std::string& name,
              const SourceFile* reader) {
  std::vector<std::string> candidates{name};
  std::string stripped = name;
  for (int strip = 0; strip < 2; ++strip) {
    const auto dot = stripped.find('.');
    if (dot == std::string::npos) break;
    stripped = stripped.substr(dot + 1);
    if (stripped.find('.') == std::string::npos) break;  // too short now
    candidates.push_back(stripped);
  }
  auto visible = [&](const MetricContract::Emission& em) {
    return em.universe || em.site.file == reader;
  };
  for (const std::string& c : candidates) {
    const auto it = state.names.find(c);
    if (it != state.names.end() &&
        std::any_of(it->second.begin(), it->second.end(), visible)) {
      return true;
    }
    for (const auto& [pfx, ems] : state.prefixes) {
      if (!std::any_of(ems.begin(), ems.end(), visible)) continue;
      if (c.size() > pfx.size() && c.compare(0, pfx.size(), pfx) == 0) {
        return true;
      }
      if (c + "." == pfx) return true;  // read of the family name itself
    }
  }
  return false;
}

}  // namespace

void check_metric_contract(const MetricContract& state,
                           const Reporter& report) {
  // Counter/histogram collisions among universe emissions.
  for (const auto& [name, ems] : state.names) {
    const MetricContract::Emission* first_counter = nullptr;
    const MetricContract::Emission* first_histogram = nullptr;
    for (const MetricContract::Emission& em : ems) {
      if (!em.universe) continue;
      if (em.kind == "counter" && first_counter == nullptr) {
        first_counter = &em;
      }
      if (em.kind == "histogram" && first_histogram == nullptr) {
        first_histogram = &em;
      }
    }
    if (first_counter == nullptr || first_histogram == nullptr) continue;
    const auto key = [](const MetricContract::Emission* e) {
      return std::make_pair(e->site.file->rel, e->site.line);
    };
    const MetricContract::Emission* older =
        key(first_counter) < key(first_histogram) ? first_counter
                                                  : first_histogram;
    const MetricContract::Emission* newer =
        older == first_counter ? first_histogram : first_counter;
    report(*newer->site.file, newer->site.line, kRuleMetricContract,
           "metric '" + name + "' emitted as " + newer->kind +
               " but already emitted as " + older->kind + " at " +
               older->site.file->rel + ":" +
               std::to_string(older->site.line));
  }
  // Orphaned reads.
  for (const auto& [name, site] : state.reads) {
    if (!read_shape(name)) continue;  // dynamic/ad-hoc names are not checked
    if (!resolves(state, name, site.file)) {
      report(*site.file, site.line, kRuleMetricContract,
             "reads metric '" + name + "' that no code emits");
    }
  }
  // Gate specs in scripts: only tokens inside an emitted metric family are
  // treated as metric references at all.
  for (const auto& [name, site] : state.script_reads) {
    const std::string head = name.substr(0, name.find('.'));
    if (state.first_components.count(head) == 0) continue;
    if (!resolves(state, name, site.file)) {
      report(*site.file, site.line, kRuleMetricContract,
             "gate spec references metric '" + name +
                 "' that no code emits");
    }
  }
}

std::string metric_registry_json(const MetricContract& state) {
  // One entry per (name, kind): the first universe emission site.
  std::map<std::pair<std::string, std::string>, MetricContract::Site> rows;
  std::map<std::pair<std::string, std::string>, MetricContract::Site> prows;
  auto fold = [](const std::map<std::string,
                                std::vector<MetricContract::Emission>>& src,
                 std::map<std::pair<std::string, std::string>,
                          MetricContract::Site>* dst) {
    for (const auto& [name, ems] : src) {
      for (const MetricContract::Emission& em : ems) {
        if (!em.universe) continue;
        dst->emplace(std::make_pair(name, em.kind), em.site);
      }
    }
  };
  fold(state.names, &rows);
  fold(state.prefixes, &prows);
  std::string out = "{\n\"tool\": \"dm_lint\",\n\"schema_version\": 2,\n";
  auto emit = [&](const char* key,
                  const std::map<std::pair<std::string, std::string>,
                                 MetricContract::Site>& src) {
    out += std::string("\"") + key + "\": [\n";
    std::size_t i = 0;
    for (const auto& [nk, site] : src) {
      out += "{\"name\": \"" + json_escape(nk.first) + "\", \"kind\": \"" +
             json_escape(nk.second) + "\", \"file\": \"" +
             json_escape(site.file->rel) +
             "\", \"line\": " + std::to_string(site.line) + "}";
      out += (++i < src.size()) ? ",\n" : "\n";
    }
    out += "]";
  };
  emit("metrics", rows);
  out += ",\n";
  emit("prefixes", prows);
  out += "\n}\n";
  return out;
}

}  // namespace dm::lint
