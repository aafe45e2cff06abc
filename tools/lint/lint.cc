#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace tfx_lint {

namespace {

// ---------------------------------------------------------------------------
// Source preparation
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, size_t i, const char* prefix) {
  for (size_t k = 0; prefix[k] != '\0'; ++k) {
    if (i + k >= s.size() || s[i + k] != prefix[k]) return false;
  }
  return true;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  std::string out(content.size(), ' ');
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') out[i] = '\n';
  }
  size_t i = 0;
  const size_t n = content.size();
  auto copy = [&](size_t pos) { out[pos] = content[pos]; };
  while (i < n) {
    const char c = content[i];
    if (c == '/' && StartsWith(content, i, "//")) {
      while (i < n && content[i] != '\n') ++i;
    } else if (c == '/' && StartsWith(content, i, "/*")) {
      i += 2;
      while (i < n && !StartsWith(content, i, "*/")) ++i;
      if (i < n) i += 2;
    } else if (c == 'R' && StartsWith(content, i, "R\"")) {
      // Raw string: R"delim( ... )delim"
      size_t d = i + 2;
      std::string delim;
      while (d < n && content[d] != '(') delim += content[d++];
      const std::string close = ")" + delim + "\"";
      size_t end = content.find(close, d);
      i = end == std::string::npos ? n : end + close.size();
    } else if (c == '"' || c == '\'') {
      // Skip the literal but keep its delimiters so tokens on either side
      // stay separated.
      copy(i);
      const char q = c;
      ++i;
      while (i < n && content[i] != q) {
        if (content[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n) {
        copy(i);
        ++i;
      }
    } else {
      copy(i);
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

std::vector<Token> Tokenize(const std::string& stripped) {
  std::vector<Token> tokens;
  size_t line = 1;
  size_t i = 0;
  const size_t n = stripped.size();
  while (i < n) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(stripped[j])) ||
                       stripped[j] == '_')) {
        ++j;
      }
      tokens.push_back({stripped.substr(i, j - i), line, true});
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(stripped[j])) ||
                       stripped[j] == '.' || stripped[j] == '\'')) {
        ++j;
      }
      tokens.push_back({stripped.substr(i, j - i), line, false});
      i = j;
    } else {
      // Multi-char operators the checks care about; everything else is a
      // single-character token.
      if (StartsWith(stripped, i, "::") || StartsWith(stripped, i, "->")) {
        tokens.push_back({stripped.substr(i, 2), line, false});
        i += 2;
      } else {
        tokens.push_back({std::string(1, c), line, false});
        ++i;
      }
    }
  }
  return tokens;
}

/// Index of the token after the `)` matching the `(` at `open`; n when
/// unbalanced.
size_t SkipBalancedParens(const std::vector<Token>& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")") {
      if (--depth == 0) return i + 1;
    }
  }
  return t.size();
}

// ---------------------------------------------------------------------------
// Per-file suppression and path normalization
// ---------------------------------------------------------------------------

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

bool Suppressed(const std::vector<std::string>& lines, size_t line,
                const std::string& check) {
  const std::string marker = "tfx-lint: allow(" + check + ")";
  for (size_t l : {line, line - 1}) {
    if (l >= 1 && l <= lines.size() &&
        lines[l - 1].find(marker) != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool FileSuppressed(const std::vector<std::string>& lines,
                    const std::string& check) {
  const std::string marker = "tfx-lint: allow-file(" + check + ")";
  for (const std::string& l : lines) {
    if (l.find(marker) != std::string::npos) return true;
  }
  return false;
}

std::string NormalizePath(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

namespace {

/// Walks back from the call-name token at `idx` over a `a.b->c::d` chain;
/// returns the index of the chain's first token.
size_t ChainStart(const std::vector<Token>& t, size_t idx) {
  size_t start = idx;
  while (start > 0) {
    const Token& prev = t[start - 1];
    if (prev.text == "." || prev.text == "->" || prev.text == "::") {
      if (start >= 2 && (t[start - 2].ident || t[start - 2].text == ")")) {
        start -= 2;
        continue;
      }
    }
    break;
  }
  return start;
}

bool PathEndsWith(const std::string& path, const char* suffix) {
  const std::string p = NormalizePath(path);
  const std::string s(suffix);
  return p.size() >= s.size() && p.compare(p.size() - s.size(), s.size(), s) == 0;
}

bool IsHotPathFile(const std::string& path) {
  const std::string p = NormalizePath(path);
  for (const char* dir :
       {"/core/", "/match/", "/parallel/", "/baseline/", "/graph/",
        "/serve/", "/symbi/"}) {
    if (p.find("turboflux" + std::string(dir)) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pass 1: project-wide declaration harvest
// ---------------------------------------------------------------------------

/// Function names declared with return type Status (plain, qualified, or
/// [[nodiscard]]-attributed): `Status Name(`, `Status Cls::Name(`,
/// `turboflux::Status Name(`.
void HarvestStatusFunctions(const std::vector<Token>& t,
                            std::unordered_set<std::string>* names) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "Status") continue;
    size_t j = i + 1;
    // Optional `Cls::` qualifiers between the return type and the name.
    std::string candidate;
    while (j < t.size() && t[j].ident) {
      candidate = t[j].text;
      if (j + 1 < t.size() && t[j + 1].text == "::") {
        j += 2;
        continue;
      }
      ++j;
      break;
    }
    if (candidate.empty()) continue;
    if (j < t.size() && t[j].text == "(") names->insert(candidate);
  }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct LintContext {
  std::unordered_set<std::string> status_functions;
};

void CheckRawSync(const FileInput& file, const std::vector<Token>& t,
                  const std::vector<std::string>& lines,
                  std::vector<Finding>* out) {
  if (PathEndsWith(file.path, "common/synchronization.h")) return;
  static const std::unordered_set<std::string> kBanned = {
      "mutex",          "timed_mutex",    "recursive_mutex",
      "shared_mutex",   "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",    "condition_variable",
      "condition_variable_any",
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "std" || t[i + 1].text != "::") continue;
    if (i + 2 >= t.size() || !t[i + 2].ident) continue;
    const std::string& name = t[i + 2].text;
    if (kBanned.count(name) == 0) continue;
    if (Suppressed(lines, t[i].line, "raw-sync")) continue;
    out->push_back({file.path, t[i].line, "raw-sync",
                    "raw std::" + name +
                        " is invisible to thread-safety analysis; use "
                        "Mutex/MutexLock/CondVar from "
                        "turboflux/common/synchronization.h"});
  }
}

void CheckDiscardedStatus(const FileInput& file, const std::vector<Token>& t,
                          const std::vector<std::string>& lines,
                          const LintContext& ctx, std::vector<Finding>* out) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i + 1].text != "(") continue;
    if (ctx.status_functions.count(t[i].text) == 0) continue;
    const size_t start = ChainStart(t, i);
    // Statement start: preceded by nothing, `;`, `{`, `}`, or `else`.
    // Any other predecessor (return, =, !, a type name, `(`, ...) means
    // the result is consumed or this is a declaration.
    if (start > 0) {
      const Token& prev = t[start - 1];
      const bool stmt_start = prev.text == ";" || prev.text == "{" ||
                              prev.text == "}" || prev.text == "else";
      if (!stmt_start) continue;
    }
    // The call's value is discarded only when the matching `)` is
    // immediately followed by `;`.
    const size_t after = SkipBalancedParens(t, i + 1);
    if (after >= t.size() || t[after].text != ";") continue;
    if (Suppressed(lines, t[i].line, "discarded-status")) continue;
    out->push_back({file.path, t[i].line, "discarded-status",
                    "result of Status-returning call `" + t[i].text +
                        "` is discarded; handle it or cast to (void) with "
                        "a rationale"});
  }
}

void CheckHotPathRegistry(const FileInput& file, const std::vector<Token>& t,
                          const std::vector<std::string>& lines,
                          std::vector<Finding>* out) {
  if (!IsHotPathFile(file.path)) return;
  static const std::unordered_set<std::string> kLookups = {
      "GetCounter", "GetGauge", "GetHistogram"};
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (!t[i].ident || kLookups.count(t[i].text) == 0) continue;
    if (t[i + 1].text != "(") continue;
    const std::string& prev = t[i - 1].text;
    if (prev != "." && prev != "->" && prev != "::") continue;
    if (Suppressed(lines, t[i].line, "hot-path-registry")) continue;
    out->push_back({file.path, t[i].line, "hot-path-registry",
                    "string-keyed StatsRegistry lookup `" + t[i].text +
                        "` on an engine hot path; use the typed structs in "
                        "obs/engine_stats.h"});
  }
}

void CheckHotPathMap(const FileInput& file, const std::vector<Token>& t,
                     const std::vector<std::string>& lines,
                     std::vector<Finding>* out) {
  if (!IsHotPathFile(file.path)) return;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "unordered_map") continue;
    if (Suppressed(lines, t[i].line, "hot-path-map")) continue;
    out->push_back(
        {file.path, t[i].line, "hot-path-map",
         "std::unordered_map on an engine hot-path file; per-probe "
         "pointer chasing is what DESIGN.md §3.11 removed — use "
         "FlatPairTable, AdjPool, or a sorted vector, or suppress with a "
         "rationale if this is validation/setup scratch"});
  }
}

/// Names of variables/members declared in this file with a
/// std::unordered_map / std::unordered_set type.
std::unordered_set<std::string> HarvestUnorderedDecls(
    const std::vector<Token>& t) {
  std::unordered_set<std::string> names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
      continue;
    }
    size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      int depth = 0;
      while (j < t.size()) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">") {
          if (--depth == 0) {
            ++j;
            break;
          }
        }
        ++j;
      }
    }
    // Declarator list: idents (possibly &/*-qualified) until the
    // statement ends. `>` already consumed; `foo_;`, `foo = ...`,
    // `foo{...}`, `foo, bar;` and function parameters `...& overlay)` all
    // record the declared name(s).
    while (j < t.size()) {
      const std::string& tx = t[j].text;
      if (tx == "&" || tx == "*" || tx == "const") {
        ++j;
        continue;
      }
      if (t[j].ident) {
        names.insert(t[j].text);
        ++j;
        if (j < t.size() && t[j].text == ",") {
          ++j;
          continue;
        }
      }
      break;
    }
  }
  return names;
}

void CheckUnorderedEmission(const FileInput& file, const std::vector<Token>& t,
                            const std::vector<std::string>& lines,
                            std::vector<Finding>* out) {
  const std::unordered_set<std::string> unordered = HarvestUnorderedDecls(t);
  if (unordered.empty()) return;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "for" || t[i + 1].text != "(") continue;
    const size_t close = SkipBalancedParens(t, i + 1) - 1;
    if (close >= t.size()) continue;
    // Find the range-for `:` at paren depth 1.
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") --depth;
      if (depth == 1 && t[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    // Range expression: a plain `a.b->c_` chain (calls are out of scope
    // for this heuristic). The final identifier names the container.
    std::string container;
    bool simple_chain = true;
    for (size_t j = colon + 1; j < close; ++j) {
      if (t[j].ident) {
        container = t[j].text;
      } else if (t[j].text != "." && t[j].text != "->" && t[j].text != "::") {
        simple_chain = false;
        break;
      }
    }
    if (!simple_chain || unordered.count(container) == 0) continue;
    // Loop body: `{ ... }` or a single statement up to `;`.
    size_t body_begin = close + 1;
    size_t body_end = body_begin;
    if (body_begin < t.size() && t[body_begin].text == "{") {
      int bd = 0;
      for (size_t j = body_begin; j < t.size(); ++j) {
        if (t[j].text == "{") ++bd;
        if (t[j].text == "}") {
          if (--bd == 0) {
            body_end = j;
            break;
          }
        }
      }
    } else {
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    for (size_t j = body_begin; j < body_end; ++j) {
      if (t[j].ident && t[j].text == "OnMatch") {
        if (!Suppressed(lines, t[i].line, "unordered-emission")) {
          out->push_back(
              {file.path, t[i].line, "unordered-emission",
               "match emission inside iteration over unordered container `" +
                   container +
                   "`; emission order would be implementation-defined"});
        }
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string Finding::ToString() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << check << "] " << message;
  return os.str();
}

std::vector<std::string> CheckNames() {
  return {"raw-sync", "discarded-status", "hot-path-registry",
          "hot-path-map", "unordered-emission"};
}

std::vector<Finding> Lint(const std::vector<FileInput>& files) {
  LintContext ctx;
  // Seed with the engine API even when turboflux.h is outside the linted
  // set (e.g. linting a single test file).
  ctx.status_functions = {"Checkpoint", "Restore", "TryApplyUpdate"};
  struct Prepared {
    const FileInput* file;
    std::vector<Token> tokens;
    std::vector<std::string> lines;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(files.size());
  for (const FileInput& f : files) {
    Prepared p;
    p.file = &f;
    p.tokens = Tokenize(StripCommentsAndStrings(f.content));
    p.lines = SplitLines(f.content);
    HarvestStatusFunctions(p.tokens, &ctx.status_functions);
    prepared.push_back(std::move(p));
  }
  std::vector<Finding> findings;
  for (const Prepared& p : prepared) {
    CheckRawSync(*p.file, p.tokens, p.lines, &findings);
    CheckDiscardedStatus(*p.file, p.tokens, p.lines, ctx, &findings);
    CheckHotPathRegistry(*p.file, p.tokens, p.lines, &findings);
    CheckHotPathMap(*p.file, p.tokens, p.lines, &findings);
    CheckUnorderedEmission(*p.file, p.tokens, p.lines, &findings);
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return findings;
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths) {
  std::vector<FileInput> files;
  std::vector<Finding> io_errors;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      io_errors.push_back({path, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream os;
    os << in.rdbuf();
    files.push_back({path, os.str()});
  }
  std::vector<Finding> findings = Lint(files);
  findings.insert(findings.begin(), io_errors.begin(), io_errors.end());
  return findings;
}

std::vector<std::string> FilesFromCompileCommands(const std::string& json,
                                                  std::string* error) {
  // Minimal extraction tuned to CMake's output: an array of objects, each
  // with "directory", "command"/"arguments", and "file" string values.
  // A full JSON parser is deliberately avoided (no dependencies).
  std::vector<std::string> files;
  std::unordered_set<std::string> seen;
  auto read_string = [&](size_t value_start, std::string* value) -> size_t {
    std::string s;
    size_t i = value_start;
    while (i < json.size() && json[i] != '"') {
      if (json[i] == '\\' && i + 1 < json.size()) {
        ++i;  // keep the escaped char verbatim (covers \" and \\)
      }
      s += json[i++];
    }
    *value = s;
    return i;
  };
  std::string directory;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t key = json.find('"', pos);
    if (key == std::string::npos) break;
    std::string key_text;
    size_t key_end = read_string(key + 1, &key_text);
    size_t colon = json.find_first_not_of(" \t\r\n", key_end + 1);
    if (colon == std::string::npos) break;
    if (json[colon] != ':') {
      pos = key_end + 1;
      continue;
    }
    size_t value = json.find('"', colon + 1);
    // Non-string values (none in CMake's format) — skip the key.
    size_t value_probe = json.find_first_not_of(" \t\r\n", colon + 1);
    if (value == std::string::npos || value_probe != value) {
      pos = colon + 1;
      continue;
    }
    std::string value_text;
    size_t value_end = read_string(value + 1, &value_text);
    if (key_text == "directory") {
      directory = value_text;
    } else if (key_text == "file") {
      std::string path = value_text;
      const bool absolute =
          !path.empty() && (path[0] == '/' ||
                            (path.size() > 1 && path[1] == ':'));
      if (!absolute && !directory.empty()) path = directory + "/" + path;
      if (seen.insert(path).second) files.push_back(path);
    }
    pos = value_end + 1;
  }
  if (files.empty() && error != nullptr) {
    *error = "no \"file\" entries found in compile_commands.json";
  }
  return files;
}

namespace {

namespace fs = std::filesystem;

std::string Canonical(const std::string& path) {
  std::error_code ec;
  fs::path p = fs::weakly_canonical(fs::path(path), ec);
  return ec ? path : p.string();
}

bool Under(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

void AddHeadersUnder(const fs::path& dir, const std::string& build_dir,
                     std::vector<std::string>* out) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string p = Canonical(it->path().string());
    if (!build_dir.empty() && Under(p, build_dir)) continue;
    if (it->path().extension() == ".h") out->push_back(p);
  }
}

}  // namespace

std::vector<std::string> CollectTreeFiles(
    const std::string& compile_commands_path, const std::string& root,
    std::string* error) {
  std::ifstream in(compile_commands_path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + compile_commands_path;
    return {};
  }
  std::ostringstream os;
  os << in.rdbuf();
  std::vector<std::string> tus = FilesFromCompileCommands(os.str(), error);
  if (tus.empty()) return {};
  const std::string canon_root = Canonical(root);
  const std::string build_dir = Canonical(
      fs::path(compile_commands_path).parent_path().string());
  std::vector<std::string> paths;
  for (const std::string& tu : tus) {
    const std::string p = Canonical(tu);
    if (Under(p, canon_root) && !Under(p, build_dir)) paths.push_back(p);
  }
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    AddHeadersUnder(fs::path(canon_root) / dir, build_dir, &paths);
  }
  return paths;
}

}  // namespace tfx_lint
