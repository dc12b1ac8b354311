#include "dm_lint_model.h"

#include <array>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace dm::lint {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_angles(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::string module_of(const std::string& rel) {
  const auto slash = rel.find('/');
  if (slash == std::string::npos) return "";
  const std::string head = rel.substr(0, slash);
  if (head != "src") return head;
  const auto second = rel.find('/', slash + 1);
  if (second == std::string::npos) return "";
  return rel.substr(slash + 1, second - slash - 1);
}

namespace {

void parse_allow_markers(SourceFile& file) {
  for (std::size_t i = 0; i < file.comments.size(); ++i) {
    const std::string& comment = file.comments[i];
    auto at = comment.find("dm-lint:");
    if (at == std::string::npos) continue;
    at = comment.find("allow(", at);
    if (at == std::string::npos) continue;
    const auto close = comment.find(')', at);
    if (close == std::string::npos) continue;
    std::string list = comment.substr(at + 6, close - at - 6);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const auto first = rule.find_first_not_of(" \t");
      const auto last = rule.find_last_not_of(" \t");
      if (first == std::string::npos) continue;
      rule = rule.substr(first, last - first + 1);
      // The marker covers its own line and the line below, so both
      // trailing-comment and line-above styles work.
      file.allow[rule].insert(static_cast<int>(i) + 1);
      file.allow[rule].insert(static_cast<int>(i) + 2);
    }
  }
}

// `// dm-lock: order(<level>[, ascending])` — the annotation grammar the
// lock-order rule reads at callback-style acquisition sites. The marker
// covers its own line and the line below, like allow().
void parse_lock_markers(SourceFile& file) {
  for (std::size_t i = 0; i < file.comments.size(); ++i) {
    const std::string& comment = file.comments[i];
    auto at = comment.find("dm-lock:");
    if (at == std::string::npos) continue;
    at = comment.find("order(", at);
    if (at == std::string::npos) continue;
    const auto close = comment.find(')', at);
    if (close == std::string::npos) continue;
    std::string list = comment.substr(at + 6, close - at - 6);
    LockAnnotation note;
    std::stringstream ss(list);
    std::string part;
    while (std::getline(ss, part, ',')) {
      const auto first = part.find_first_not_of(" \t");
      const auto last = part.find_last_not_of(" \t");
      if (first == std::string::npos) continue;
      part = part.substr(first, last - first + 1);
      if (part == "ascending") {
        note.ascending = true;
      } else if (note.level.empty()) {
        note.level = part;
      }
    }
    if (note.level.empty()) continue;
    file.lock_notes[static_cast<int>(i) + 1] = note;
    file.lock_notes[static_cast<int>(i) + 2] = note;
  }
}

// Blanks comments and literal contents, capturing string literals and
// per-line comment text. Tracks block comments and raw string literals
// across lines; an unterminated raw string or block comment simply blanks
// through end of file (the analyzer must stay well-defined on any input).
void strip_literals(SourceFile& file) {
  enum class State { kCode, kBlockComment, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  file.code.resize(file.lines.size());
  file.comments.resize(file.lines.size());
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& in = file.lines[li];
    std::string out(in.size(), ' ');
    std::string comment;
    for (std::size_t i = 0; i < in.size();) {
      if (state == State::kBlockComment) {
        if (in.compare(i, 2, "*/") == 0) {
          state = State::kCode;
          i += 2;
        } else {
          comment += in[i];
          ++i;
        }
        continue;
      }
      if (state == State::kRawString) {
        const std::string closer = ")" + raw_delim + "\"";
        if (in.compare(i, closer.size(), closer) == 0) {
          state = State::kCode;
          out[i + closer.size() - 1] = '"';
          i += closer.size();
        } else {
          ++i;
        }
        continue;
      }
      const char c = in[i];
      if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
        comment += in.substr(i + 2);
        break;  // rest of line is comment
      }
      if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
        state = State::kBlockComment;
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < in.size() && in[i + 1] == '"' &&
          (i == 0 || !is_ident_char(in[i - 1]))) {
        const auto open = in.find('(', i + 2);
        if (open != std::string::npos) {
          raw_delim = in.substr(i + 2, open - i - 2);
          out[i] = 'R';
          out[i + 1] = '"';
          state = State::kRawString;
          i = open + 1;
          continue;
        }
      }
      if (c == '"') {
        out[i] = '"';
        const std::size_t open = i;
        ++i;
        while (i < in.size() && in[i] != '"') {
          i += (in[i] == '\\') ? 2 : 1;
        }
        if (i < in.size()) {
          out[i] = '"';
          StringLit lit;
          lit.line = static_cast<int>(li) + 1;
          lit.col = static_cast<int>(open);
          lit.text = in.substr(open + 1, i - open - 1);
          file.strings.push_back(std::move(lit));
        }
        ++i;
        continue;
      }
      if (c == '\'' && i > 0 && is_ident_char(in[i - 1])) {
        ++i;  // digit separator (1'000'000), not a char literal
        continue;
      }
      if (c == '\'') {
        out[i] = '\'';
        ++i;
        while (i < in.size() && in[i] != '\'') {
          i += (in[i] == '\\') ? 2 : 1;
        }
        if (i < in.size()) out[i] = '\'';
        ++i;
        continue;
      }
      out[i] = c;
      ++i;
    }
    file.code[li] = std::move(out);
    file.comments[li] = std::move(comment);
  }
}

void parse_includes(SourceFile& file) {
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& line = file.lines[li];
    const auto hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    const auto inc = line.find("include", hash);
    if (inc == std::string::npos) continue;
    const auto open = line.find('"', inc);
    if (open == std::string::npos) continue;
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    file.includes.emplace_back(static_cast<int>(li) + 1,
                               line.substr(open + 1, close - open - 1));
  }
}

void collect_unordered_names(SourceFile& file) {
  for (const std::string& line : file.code) {
    for (std::size_t pos = 0;;) {
      auto at = line.find("unordered_", pos);
      if (at == std::string::npos) break;
      pos = at + 1;
      if (at > 0 && is_ident_char(line[at - 1])) continue;
      std::size_t i = at;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      const std::string kind = line.substr(at, i - at);
      if (kind != "unordered_map" && kind != "unordered_set" &&
          kind != "unordered_multimap" && kind != "unordered_multiset") {
        continue;
      }
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '<') continue;
      i = skip_angles(line, i);
      if (i == std::string::npos) continue;
      while (i < line.size() &&
             (line[i] == ' ' || line[i] == '&' || line[i] == '*')) {
        ++i;
      }
      std::size_t name_start = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i > name_start && is_ident_start(line[name_start])) {
        file.unordered_names.insert(line.substr(name_start, i - name_start));
      }
    }
  }
}

// Files that produce exported artifacts: obs snapshots, bench JSON, the
// RPC wire format. Detected by path and by the tokens those emitters use.
void detect_exporting(SourceFile& file) {
  if (file.rel.rfind("src/obs/", 0) == 0 || file.rel.rfind("bench/", 0) == 0 ||
      file.rel == "src/net/wire.h") {
    file.exporting = true;
    return;
  }
  static const std::array<const char*, 7> kMarkers = {
      "json_escape", "snapshot_json", "prometheus_text", "to_json",
      "WireWriter",  "BenchJson",     "export_json"};
  for (const std::string& line : file.code) {
    for (const char* marker : kMarkers) {
      const auto at = line.find(marker);
      if (at == std::string::npos) continue;
      const bool left_ok = at == 0 || !is_ident_char(line[at - 1]);
      const auto end = at + std::string_view(marker).size();
      const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
      if (left_ok && right_ok) {
        file.exporting = true;
        return;
      }
    }
  }
}

// Scripts: the comment view is everything after an unquoted '#'; allow
// markers work there so a justified exception can sit next to its line.
void preprocess_script(SourceFile& file) {
  file.comments.resize(file.lines.size());
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& in = file.lines[li];
    bool in_single = false;
    bool in_double = false;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      if (c == '\'' && !in_double) in_single = !in_single;
      if (c == '"' && !in_single) in_double = !in_double;
      if (c == '#' && !in_single && !in_double) {
        file.comments[li] = in.substr(i + 1);
        break;
      }
    }
  }
  parse_allow_markers(file);
}

}  // namespace

void preprocess(SourceFile& file) {
  if (file.is_script) {
    preprocess_script(file);
    return;
  }
  parse_includes(file);
  strip_literals(file);
  parse_allow_markers(file);
  parse_lock_markers(file);
  collect_unordered_names(file);
  detect_exporting(file);
}

std::vector<Token> tokenize(const SourceFile& file) {
  std::vector<Token> tokens;
  char prev = '\0';
  char prev2 = '\0';
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (c == ' ' || c == '\t') {
        ++i;
        continue;
      }
      if (is_ident_start(c)) {
        std::size_t start = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        Token t;
        t.text = line.substr(start, i - start);
        t.line = static_cast<int>(li) + 1;
        t.prev = prev;
        t.prev2 = prev2;
        // Next significant char: rest of this line, else '\0' (a call
        // paren split across lines is rare enough to ignore).
        for (std::size_t j = i; j < line.size(); ++j) {
          if (line[j] != ' ' && line[j] != '\t') {
            t.next = line[j];
            break;
          }
        }
        prev2 = prev;
        prev = t.text.back();
        tokens.push_back(std::move(t));
        continue;
      }
      prev2 = prev;
      prev = c;
      ++i;
    }
  }
  return tokens;
}

bool is_member_access(const Token& t) {
  return t.prev == '.' || (t.prev == '>' && t.prev2 == '-');
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace dm::lint
