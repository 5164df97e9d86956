#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "util/lock_levels.hpp"

namespace clarens::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Lexer: split a translation unit into per-line code and comment text.
// String and character literal *contents* are blanked in the code view
// (the quotes stay) so token rules never fire inside literals; comment
// text is collected separately because two rules (lock-order, the allow
// escape hatch) read comments.
// ---------------------------------------------------------------------

struct LineInfo {
  std::string code;
  std::string comment;
  std::string raw;
};

std::vector<LineInfo> lex(const std::string& content) {
  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  std::vector<LineInfo> lines(1);
  State state = State::Code;
  std::string raw_delim;  // raw-string delimiter, ")delim" form
  std::size_t i = 0;
  while (i < content.size()) {
    char c = content[i];
    LineInfo& line = lines.back();
    if (c != '\n') line.raw += c;
    switch (state) {
      case State::Code:
        if (c == '/' && i + 1 < content.size() && content[i + 1] == '/') {
          state = State::LineComment;
          ++i;  // skip the second slash; comment text starts after it
          line.raw += '/';
        } else if (c == '/' && i + 1 < content.size() &&
                   content[i + 1] == '*') {
          state = State::BlockComment;
          ++i;
          line.raw += '*';
          line.code += "  ";
        } else if (c == '"') {
          // Raw string? look back for R / u8R / LR / uR / UR prefix.
          bool raw = i > 0 && content[i - 1] == 'R' &&
                     (i < 2 || !(std::isalnum(static_cast<unsigned char>(
                                     content[i - 2])) ||
                                 content[i - 2] == '_') ||
                      content[i - 2] == '8' || content[i - 2] == 'u' ||
                      content[i - 2] == 'U' || content[i - 2] == 'L');
          if (raw) {
            std::size_t open = content.find('(', i + 1);
            raw_delim = ")";
            if (open != std::string::npos) {
              raw_delim += content.substr(i + 1, open - i - 1);
            }
            raw_delim += '"';
            state = State::Raw;
          } else {
            state = State::String;
          }
          line.code += '"';
        } else if (c == '\'') {
          state = State::Char;
          line.code += '\'';
        } else {
          line.code += c;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          state = State::Code;
        } else {
          line.comment += c;
        }
        break;
      case State::BlockComment:
        if (c == '*' && i + 1 < content.size() && content[i + 1] == '/') {
          state = State::Code;
          ++i;
          line.raw += '/';
        } else if (c != '\n') {
          line.comment += c;
        }
        break;
      case State::String:
        if (c == '\\' && i + 1 < content.size()) {
          ++i;
          if (content[i] != '\n') line.raw += content[i];
        } else if (c == '"') {
          state = State::Code;
          line.code += '"';
        }
        break;
      case State::Char:
        if (c == '\\' && i + 1 < content.size()) {
          ++i;
          if (content[i] != '\n') line.raw += content[i];
        } else if (c == '\'') {
          state = State::Code;
          line.code += '\'';
        }
        break;
      case State::Raw:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          line.raw += raw_delim.substr(1);
          line.code += '"';
          state = State::Code;
        }
        break;
    }
    if (c == '\n') lines.emplace_back();
    ++i;
  }
  return lines;
}

// ---------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Position of `token` in `code` with identifier boundaries on both
/// sides, from `from`; npos when absent.
std::size_t find_token(const std::string& code, const std::string& token,
                       std::size_t from = 0) {
  for (std::size_t pos = code.find(token, from); pos != std::string::npos;
       pos = code.find(token, pos + 1)) {
    if (pos > 0 && ident_char(code[pos - 1])) continue;
    std::size_t end = pos + token.size();
    if (end < code.size() && ident_char(code[end])) continue;
    return pos;
  }
  return std::string::npos;
}

std::size_t skip_spaces(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

std::string trim(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

bool path_in(const std::string& path, const std::string& dir) {
  // Matches "src/<dir>/..." whether `path` is absolute or relative.
  std::string needle = "/" + dir + "/";
  if (path.find(needle) != std::string::npos) return true;
  return path.rfind(dir + "/", 0) == 0;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "raw-sync",         "detach",           "net-blocking",
      "layering",         "raw-new",          "lock-order",
      "reactor-blocking", "undeclared-mutex", "held-over-call",
      "lock-cycle",
  };
  return rules;
}

/// The level table, indexed both by level name and by enumerator, built
/// once from the X-macro in src/util/lock_levels.hpp.
struct Levels {
  std::map<std::string, int> rank;             // "db.store.shard" -> 40
  std::map<std::string, std::string> by_enum;  // "kDbStoreShard" -> name
};

const Levels& levels() {
  static const Levels table = [] {
    Levels out;
    for (const auto& info : util::kLockLevels) {
      out.rank[info.name] = info.rank;
    }
#define CLARENS_LINT_LEVEL_ENUM__(name, str, rank_, doc) \
  out.by_enum[#name] = str;
    CLARENS_LOCK_LEVEL_LIST(CLARENS_LINT_LEVEL_ENUM__)
#undef CLARENS_LINT_LEVEL_ENUM__
    return out;
  }();
  return table;
}

/// The annotated-wrapper layer itself: its constructors and lock()
/// bodies are the mechanism, not users of it, so the lock-discipline
/// scans skip these two files.
bool sync_layer_file(const std::string& path) {
  return path_ends_with(path, "util/sync.hpp") ||
         path_ends_with(path, "util/sync.cpp") ||
         path_ends_with(path, "util/lock_levels.hpp");
}

// ---------------------------------------------------------------------
// The allow() escape hatch.
// ---------------------------------------------------------------------

struct Allows {
  /// line -> rules suppressed on that line.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Violation> bad;

  bool suppressed(const Violation& violation) const {
    auto it = by_line.find(violation.line);
    return it != by_line.end() && it->second.count(violation.rule) > 0;
  }
};

Allows collect_allows(const std::string& path,
                      const std::vector<LineInfo>& lines) {
  Allows allows;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    std::string comment = trim(lines[n].comment);
    if (comment.rfind("clarens-lint:", 0) != 0) continue;
    int line = static_cast<int>(n) + 1;
    std::size_t pos = skip_spaces(comment, std::string("clarens-lint:").size());
    if (comment.compare(pos, 6, "allow(") != 0) {
      allows.bad.push_back({path, line, "bad-allow",
                            "expected `clarens-lint: allow(<rule>): "
                            "<justification>`"});
      continue;
    }
    std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) {
      allows.bad.push_back({path, line, "bad-allow", "unclosed allow("});
      continue;
    }
    std::string rule = trim(comment.substr(pos + 6, close - pos - 6));
    if (!known_rules().count(rule)) {
      allows.bad.push_back(
          {path, line, "bad-allow", "unknown rule '" + rule + "'"});
      continue;
    }
    std::size_t just = skip_spaces(comment, close + 1);
    if (just >= comment.size() || comment[just] != ':' ||
        trim(comment.substr(just + 1)).empty()) {
      allows.bad.push_back({path, line, "bad-allow",
                            "allow(" + rule +
                                ") needs a justification: `allow(" + rule +
                                "): <why>`"});
      continue;
    }
    // The pragma covers its own line and the line below it.
    allows.by_line[line].insert(rule);
    allows.by_line[line + 1].insert(rule);
  }
  return allows;
}

// ---------------------------------------------------------------------
// Per-line rules (unchanged from the original structural set).
// ---------------------------------------------------------------------

void check_raw_sync(const std::string& path, const std::vector<LineInfo>& lines,
                    std::vector<Violation>& out) {
  // The wrapper layer is the only home for raw primitives.
  if (path_ends_with(path, "util/sync.hpp")) return;
  static const char* kTokens[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",   "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock",    "std::shared_lock",
      "std::thread",         "std::jthread",
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    for (const char* token : kTokens) {
      std::size_t pos = find_token(code, token);
      if (pos == std::string::npos) continue;
      if (std::string(token) == "std::thread") {
        // std::thread::id / std::thread::hardware_concurrency are types
        // and constants, not thread ownership.
        std::size_t after = pos + std::string(token).size();
        if (code.compare(after, 2, "::") == 0) continue;
      }
      out.push_back({path, static_cast<int>(n) + 1, "raw-sync",
                     std::string(token) +
                         " outside src/util/sync.hpp; use the annotated "
                         "util:: wrappers"});
    }
  }
}

void check_detach(const std::string& path, const std::vector<LineInfo>& lines,
                  std::vector<Violation>& out) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    for (std::size_t pos = find_token(code, "detach"); pos != std::string::npos;
         pos = find_token(code, "detach", pos + 1)) {
      std::size_t after = skip_spaces(code, pos + 6);
      if (after < code.size() && code[after] == '(') {
        out.push_back({path, static_cast<int>(n) + 1, "detach",
                       "detached threads race teardown; keep the handle "
                       "and join it (util::Thread has no detach)"});
      }
    }
  }
}

void check_net_blocking(const std::string& path,
                        const std::vector<LineInfo>& lines,
                        std::vector<Violation>& out) {
  if (!path_in(path, "net")) return;
  static const char* kTokens[] = {"sleep_for", "sleep_until", "usleep",
                                  "nanosleep", "sleep"};
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    bool hit = false;
    for (const char* token : kTokens) {
      std::size_t pos = find_token(code, token);
      if (pos == std::string::npos) continue;
      std::size_t after = skip_spaces(code, pos + std::string(token).size());
      if (after < code.size() && code[after] == '(') {
        out.push_back({path, static_cast<int>(n) + 1, "net-blocking",
                       std::string(token) +
                           "() blocks the reactor thread; every connection "
                           "stalls behind it"});
        hit = true;
        break;
      }
    }
    if (!hit && code.find("std::this_thread") != std::string::npos) {
      out.push_back({path, static_cast<int>(n) + 1, "net-blocking",
                     "std::this_thread in reactor code is a blocking "
                     "smell; the reactor must never wait"});
    }
  }
}

void check_reactor_blocking(const std::string& path,
                            const std::vector<LineInfo>& lines,
                            std::vector<Violation>& out) {
  // The reactor thread services every connection, and with inline
  // dispatch it also runs handlers; one blocking wait in the transport
  // stack stalls all of them. Blocking primitives in src/net, src/http
  // and src/tls must carry an allow() naming the thread that may
  // legitimately park there (identifier-boundary matching keeps
  // epoll_wait and joinable out of scope).
  if (!path_in(path, "net") && !path_in(path, "http") &&
      !path_in(path, "tls")) {
    return;
  }
  static const char* kTokens[] = {
      "wait_writable", "wait_idle",   "wait_for", "wait_until",
      "wait",          "join",        "sleep_for", "sleep_until",
      "usleep",        "nanosleep",   "sleep",
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    for (const char* token : kTokens) {
      std::size_t pos = find_token(code, token);
      if (pos == std::string::npos) continue;
      std::size_t after = skip_spaces(code, pos + std::string(token).size());
      if (after >= code.size() || code[after] != '(') continue;
      out.push_back({path, static_cast<int>(n) + 1, "reactor-blocking",
                     std::string(token) +
                         "() can block; reactor-owned code must stay "
                         "non-blocking — if this call never runs on the "
                         "reactor thread, say so with allow(reactor-"
                         "blocking)"});
      break;  // one finding per line is enough to demand the annotation
    }
  }
}

void check_layering(const std::string& path, const std::vector<LineInfo>& lines,
                    std::vector<Violation>& out) {
  // Three scoped cases:
  //  * rpc/ and util/ sit below http/ and core/ and may include neither;
  //  * task/ sits below core/ and storage/, which both declare task kinds;
  //  * federation/ sits beside core/ (it depends on client, discovery
  //    and rpc) and must never reach into core internals — the head's
  //    method bindings in core depend on federation, not the reverse.
  struct Scope {
    const char* dir;
    std::vector<const char*> banned;
    const char* why;
  };
  static const Scope kScopes[] = {
      {"rpc",
       {"core/", "http/"},
       "dependency direction is util <- rpc <- http <- core; this layer "
       "must not include "},
      {"util",
       {"core/", "http/"},
       "dependency direction is util <- rpc <- http <- core; this layer "
       "must not include "},
      {"task",
       {"core/", "http/", "storage/"},
       "task/ sits below the services that declare task kinds; this layer "
       "must not include "},
      {"federation",
       {"core/"},
       "federation depends on client/discovery/rpc, never core internals; "
       "this layer must not include "},
  };
  for (const Scope& scope : kScopes) {
    if (!path_in(path, scope.dir)) continue;
    for (std::size_t n = 0; n < lines.size(); ++n) {
      const std::string& raw = lines[n].raw;
      std::size_t pos = skip_spaces(raw, 0);
      if (pos >= raw.size() || raw[pos] != '#') continue;
      pos = skip_spaces(raw, pos + 1);
      if (raw.compare(pos, 7, "include") != 0) continue;
      pos = skip_spaces(raw, pos + 7);
      if (pos >= raw.size() || raw[pos] != '"') continue;
      for (const char* layer : scope.banned) {
        if (raw.compare(pos + 1, std::string(layer).size(), layer) == 0) {
          out.push_back({path, static_cast<int>(n) + 1, "layering",
                         scope.why + std::string(layer)});
        }
      }
    }
  }
}

void check_raw_new(const std::string& path, const std::vector<LineInfo>& lines,
                   std::vector<Violation>& out) {
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    for (std::size_t pos = find_token(code, "new"); pos != std::string::npos;
         pos = find_token(code, "new", pos + 1)) {
      std::size_t after = skip_spaces(code, pos + 3);
      // Placement new (`new (arena) T`) is the sanctioned form.
      if (after < code.size() && code[after] == '(') continue;
      // `operator new` declarations describe allocation, don't perform it.
      std::size_t before = code.find_last_not_of(" \t", pos == 0 ? 0 : pos - 1);
      if (before != std::string::npos && before >= 7 &&
          code.compare(before - 7, 8, "operator") == 0) {
        continue;
      }
      out.push_back({path, static_cast<int>(n) + 1, "raw-new",
                     "bare new; own memory via containers or "
                     "std::make_unique/std::make_shared"});
    }
    for (std::size_t pos = find_token(code, "delete"); pos != std::string::npos;
         pos = find_token(code, "delete", pos + 1)) {
      // `= delete` (deleted functions) and `operator delete`.
      std::size_t before =
          pos == 0 ? std::string::npos : code.find_last_not_of(" \t", pos - 1);
      if (before != std::string::npos && code[before] == '=') continue;
      if (before != std::string::npos && before >= 7 &&
          code.compare(before - 7, 8, "operator") == 0) {
        continue;
      }
      out.push_back({path, static_cast<int>(n) + 1, "raw-new",
                     "bare delete; the matching allocation should live in "
                     "a smart pointer"});
    }
  }
}

// ---------------------------------------------------------------------
// Lock-graph machinery: mutex declarations, guard scopes, edges.
// ---------------------------------------------------------------------

/// A declared edge in the global lock graph, in level-name terms.
struct LevelEdge {
  std::string outer;
  std::string inner;
  std::string file;
  int line = 0;
  bool same_rank = false;  ///< carried a SameRankToken / (same-rank) tag
};

/// Per-file result of the structural scan.
struct FileScan {
  std::map<std::string, std::string> decls;  ///< var -> level ("?" ambiguous)
  struct VarEdge {
    std::string outer;  ///< mutex variable of the enclosing guard
    std::string inner;  ///< mutex variable of the nested guard
    int line = 0;
    bool same_rank = false;  ///< nested guard passed a SameRankToken
  };
  std::vector<VarEdge> var_edges;
  std::vector<LevelEdge> comment_edges;  ///< validated lock-order comments
};

/// Joins the code view from (line n, position pos) forward, for parsing
/// balanced groups that wrap across lines. Newlines become spaces.
std::string joined_code(const std::vector<LineInfo>& lines, std::size_t n,
                        std::size_t pos, std::size_t max_lines = 8) {
  std::string out = lines[n].code.substr(pos);
  for (std::size_t k = n + 1; k < lines.size() && k < n + max_lines; ++k) {
    out += ' ';
    out += lines[k].code;
  }
  return out;
}

/// The balanced (...) group's contents: `text[start]` must be the open
/// delimiter. Empty when unbalanced within the joined window.
std::string group_contents(const std::string& text, std::size_t start,
                           char open, char close) {
  if (start >= text.size() || text[start] != open) return "";
  int depth = 0;
  for (std::size_t i = start; i < text.size(); ++i) {
    if (text[i] == open) ++depth;
    if (text[i] == close && --depth == 0) {
      return text.substr(start + 1, i - start - 1);
    }
  }
  return "";
}

/// Trailing identifier of a lock expression: `shard.mutex` -> "mutex",
/// `conn->mutex` -> "mutex", `mutex_` -> "mutex_".
std::string last_ident(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && !ident_char(expr[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && ident_char(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

/// First top-level comma-separated argument of an argument list.
std::string first_argument(const std::string& args) {
  int depth = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    char c = args[i];
    if (c == '(' || c == '{' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) return args.substr(0, i);
  }
  return args;
}

/// Scans `path` for util::Mutex / util::SharedMutex declarations
/// (undeclared-mutex rule) and builds the var -> level map; then walks
/// guard scopes to derive nesting edges and held-over-call violations.
FileScan scan_lock_graph(const std::string& path,
                         const std::vector<LineInfo>& lines,
                         std::vector<Violation>& out) {
  FileScan scan;
  if (sync_layer_file(path)) return scan;

  // --- Pass 1: mutex declarations -------------------------------------
  static const char* kMutexTokens[] = {"Mutex", "SharedMutex"};
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    for (const char* token : kMutexTokens) {
      for (std::size_t pos = find_token(code, token);
           pos != std::string::npos;
           pos = find_token(code, token, pos + 1)) {
        // A declaration is `[util::]Mutex <ident> ...`; anything else
        // (reference/pointer parameters, class definitions in the sync
        // layer, template arguments) has no identifier right after.
        std::size_t after = skip_spaces(code, pos + std::string(token).size());
        if (after >= code.size() || !ident_char(code[after]) ||
            std::isdigit(static_cast<unsigned char>(code[after]))) {
          continue;
        }
        std::size_t vend = after;
        while (vend < code.size() && ident_char(code[vend])) ++vend;
        std::string var = code.substr(after, vend - after);
        int line = static_cast<int>(n) + 1;
        std::size_t init = skip_spaces(code, vend);
        if (init >= code.size() || code[init] != '{') {
          out.push_back(
              {path, line, "undeclared-mutex",
               "util::" + std::string(token) + " '" + var +
                   "' does not declare its hierarchy level; construct as "
                   "util::" + std::string(token) +
                   " " + var + "{util::LockLevel::k...} "
                   "(see src/util/lock_levels.hpp)"});
          continue;
        }
        std::string body =
            group_contents(joined_code(lines, n, init), 0, '{', '}');
        std::size_t lpos = body.find("LockLevel::");
        if (lpos == std::string::npos) {
          out.push_back({path, line, "undeclared-mutex",
                         "util::" + std::string(token) + " '" + var +
                             "' initializer does not name a "
                             "util::LockLevel"});
          continue;
        }
        std::size_t estart = lpos + std::string("LockLevel::").size();
        std::size_t eend = estart;
        while (eend < body.size() && ident_char(body[eend])) ++eend;
        std::string enumerator = body.substr(estart, eend - estart);
        auto it = levels().by_enum.find(enumerator);
        if (it == levels().by_enum.end()) {
          out.push_back({path, line, "undeclared-mutex",
                         "unknown lock level 'LockLevel::" + enumerator +
                             "'; add it to src/util/lock_levels.hpp"});
          continue;
        }
        auto [slot, inserted] = scan.decls.emplace(var, it->second);
        if (!inserted && slot->second != it->second) {
          slot->second = "?";  // same name, different levels: ambiguous
        }
      }
    }
  }

  // --- Pass 2: guard scopes, derived edges, blocking calls -------------
  struct Guard {
    std::string var;
    int depth = 0;
    int line = 0;
  };
  struct Event {
    std::size_t pos = 0;
    enum Kind { kGuard, kRequires, kBlocking } kind = kGuard;
    std::string var;                 // kGuard: mutex variable
    bool same_rank = false;          // kGuard: SameRankToken present
    std::vector<std::string> vars;   // kRequires
    const char* blocking = nullptr;  // kBlocking
  };
  static const char* kGuardTokens[] = {"LockGuard", "UniqueLock", "WriteLock",
                                       "ReadLock"};
  static const char* kRequireTokens[] = {"CLARENS_REQUIRES",
                                         "CLARENS_REQUIRES_SHARED"};
  // Blocking operations that must never run under a lock: network
  // round-trips, durability syscalls, connection setup, zero-copy sends
  // and deliberate sleeps. (CondVar waits are absent by design — parking
  // on a condvar under its mutex is the one sanctioned blocking wait.)
  static const char* kBlockingTokens[] = {
      "roundtrip", "fdatasync",  "fsync",     "connect", "sendfile",
      "sleep_for", "sleep_until", "usleep",   "nanosleep", "sleep",
  };

  std::vector<Guard> active;
  std::vector<std::string> pending_requires;
  int depth = 0;

  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& code = lines[n].code;
    int line = static_cast<int>(n) + 1;
    std::vector<Event> events;

    for (const char* token : kGuardTokens) {
      for (std::size_t pos = find_token(code, token);
           pos != std::string::npos;
           pos = find_token(code, token, pos + 1)) {
        std::size_t after = skip_spaces(code, pos + std::string(token).size());
        if (after >= code.size() || !ident_char(code[after])) continue;
        std::size_t vend = after;
        while (vend < code.size() && ident_char(code[vend])) ++vend;
        std::size_t paren = skip_spaces(code, vend);
        std::string joined = joined_code(lines, n, paren);
        std::string args = group_contents(joined, 0, '(', ')');
        if (args.empty()) continue;
        Event event;
        event.pos = pos;
        event.kind = Event::kGuard;
        event.var = last_ident(first_argument(args));
        event.same_rank = args.find("SameRankToken") != std::string::npos;
        if (!event.var.empty()) events.push_back(std::move(event));
      }
    }
    for (const char* token : kRequireTokens) {
      for (std::size_t pos = find_token(code, token);
           pos != std::string::npos;
           pos = find_token(code, token, pos + 1)) {
        std::size_t paren = skip_spaces(code, pos + std::string(token).size());
        std::string joined = joined_code(lines, n, paren);
        std::string args = group_contents(joined, 0, '(', ')');
        if (args.empty()) continue;
        Event event;
        event.pos = pos;
        event.kind = Event::kRequires;
        std::size_t start = 0;
        while (start <= args.size()) {
          std::size_t comma = args.find(',', start);
          std::string arg = last_ident(
              args.substr(start, comma == std::string::npos ? std::string::npos
                                                            : comma - start));
          if (!arg.empty()) event.vars.push_back(arg);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        if (!event.vars.empty()) events.push_back(std::move(event));
      }
    }
    for (const char* token : kBlockingTokens) {
      for (std::size_t pos = find_token(code, token);
           pos != std::string::npos;
           pos = find_token(code, token, pos + 1)) {
        std::size_t after = skip_spaces(code, pos + std::string(token).size());
        if (after >= code.size() || code[after] != '(') continue;
        Event event;
        event.pos = pos;
        event.kind = Event::kBlocking;
        event.blocking = token;
        events.push_back(std::move(event));
        break;  // one finding per line per token family is enough
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });

    std::size_t next_event = 0;
    for (std::size_t i = 0; i <= code.size(); ++i) {
      while (next_event < events.size() && events[next_event].pos == i) {
        const Event& event = events[next_event++];
        switch (event.kind) {
          case Event::kGuard:
            if (!active.empty()) {
              scan.var_edges.push_back(
                  {active.back().var, event.var, line, event.same_rank});
            }
            active.push_back({event.var, depth, line});
            break;
          case Event::kRequires:
            pending_requires = event.vars;
            break;
          case Event::kBlocking:
            if (!active.empty()) {
              out.push_back(
                  {path, line, "held-over-call",
                   std::string(event.blocking) +
                       "() blocks while holding '" + active.back().var +
                       "' (guard since line " +
                       std::to_string(active.back().line) +
                       "); every other acquirer convoys behind the "
                       "syscall — release the lock first"});
            }
            break;
        }
      }
      if (i == code.size()) break;
      char c = code[i];
      if (c == '{') {
        ++depth;
        if (!pending_requires.empty()) {
          // A CLARENS_REQUIRES function body: the listed locks are held
          // for the whole body, exactly like a guard opened here.
          for (const std::string& var : pending_requires) {
            if (!active.empty()) {
              scan.var_edges.push_back({active.back().var, var, line, false});
            }
            active.push_back({var, depth, line});
          }
          pending_requires.clear();
        }
      } else if (c == '}') {
        --depth;
        while (!active.empty() && active.back().depth > depth) {
          active.pop_back();
        }
      } else if (c == ';' && !pending_requires.empty()) {
        pending_requires.clear();  // prototype, not a definition
      }
    }
  }
  return scan;
}

/// Validates `// lock-order:` comments against the hierarchy and
/// collects the declared edges for the global graph. A `(same-rank)`
/// suffix documents a tokened same-rank edge (legal only when the ranks
/// really are equal).
void check_lock_order_comments(const std::string& path,
                               const std::vector<LineInfo>& lines,
                               FileScan& scan, std::vector<Violation>& out) {
  const std::map<std::string, int>& rank = levels().rank;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    std::string comment = trim(lines[n].comment);
    if (comment.rfind("lock-order:", 0) != 0) continue;
    int line = static_cast<int>(n) + 1;
    std::string spec = trim(comment.substr(std::string("lock-order:").size()));
    bool same_rank = false;
    const std::string kSameRankTag = "(same-rank)";
    if (spec.size() >= kSameRankTag.size() &&
        spec.compare(spec.size() - kSameRankTag.size(), kSameRankTag.size(),
                     kSameRankTag) == 0) {
      same_rank = true;
      spec = trim(spec.substr(0, spec.size() - kSameRankTag.size()));
    }
    std::size_t arrow = spec.find("->");
    if (arrow == std::string::npos) {
      out.push_back({path, line, "lock-order",
                     "malformed declaration; expected `lock-order: "
                     "<outer> -> <inner>`"});
      continue;
    }
    std::string outer = trim(spec.substr(0, arrow));
    std::string inner = trim(spec.substr(arrow + 2));
    bool ok = true;
    for (const std::string& level : {outer, inner}) {
      if (!rank.count(level)) {
        out.push_back({path, line, "lock-order",
                       "unknown lock level '" + level +
                           "'; declare it in the hierarchy table "
                           "(src/util/lock_levels.hpp)"});
        ok = false;
      }
    }
    if (!ok) continue;
    int outer_rank = rank.at(outer);
    int inner_rank = rank.at(inner);
    if (same_rank) {
      if (outer_rank != inner_rank) {
        out.push_back({path, line, "lock-order",
                       "'" + outer + "' -> '" + inner +
                           "' is tagged (same-rank) but the ranks differ (" +
                           std::to_string(outer_rank) + " vs " +
                           std::to_string(inner_rank) + ")"});
        continue;
      }
    } else if (outer_rank >= inner_rank) {
      out.push_back({path, line, "lock-order",
                     "'" + outer + "' -> '" + inner +
                         "' inverts the declared hierarchy (" + outer +
                         " rank " + std::to_string(outer_rank) + ", " + inner +
                         " rank " + std::to_string(inner_rank) +
                         "); deadlock risk"});
      continue;
    }
    scan.comment_edges.push_back({outer, inner, path, line, same_rank});
  }
}

// ---------------------------------------------------------------------
// The tree-wide pass: resolve variable edges to levels, check derived
// edges against the ranks, and run cycle detection over the merged
// global graph.
// ---------------------------------------------------------------------

std::string paired_path(const std::string& path) {
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".cpp") == 0) {
    return path.substr(0, path.size() - 4) + ".hpp";
  }
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0) {
    return path.substr(0, path.size() - 4) + ".cpp";
  }
  return "";
}

struct GraphInput {
  std::string path;
  FileScan scan;
};

void run_graph_pass(const std::vector<GraphInput>& inputs,
                    std::map<std::string, std::vector<Violation>>& per_file) {
  const std::map<std::string, int>& rank = levels().rank;

  // Declaration index: per file, and globally for unambiguous names.
  std::map<std::string, const std::map<std::string, std::string>*> file_decls;
  std::map<std::string, std::set<std::string>> global;
  for (const GraphInput& input : inputs) {
    file_decls[input.path] = &input.scan.decls;
    for (const auto& [var, level] : input.scan.decls) {
      if (level != "?") global[var].insert(level);
    }
  }
  auto resolve = [&](const std::string& path,
                     const std::string& var) -> std::optional<std::string> {
    auto in = [&](const std::string& p) -> std::optional<std::string> {
      auto fit = file_decls.find(p);
      if (fit == file_decls.end()) return std::nullopt;
      auto vit = fit->second->find(var);
      if (vit == fit->second->end() || vit->second == "?") return std::nullopt;
      return vit->second;
    };
    if (auto hit = in(path)) return hit;
    std::string pair = paired_path(path);
    if (!pair.empty()) {
      if (auto hit = in(pair)) return hit;
    }
    auto git = global.find(var);
    if (git != global.end() && git->second.size() == 1) {
      return *git->second.begin();
    }
    return std::nullopt;
  };

  // Merge edges: derived (rank-checked here) + comment (already checked).
  std::vector<LevelEdge> edges;
  for (const GraphInput& input : inputs) {
    for (const FileScan::VarEdge& edge : input.scan.var_edges) {
      std::optional<std::string> outer = resolve(input.path, edge.outer);
      std::optional<std::string> inner = resolve(input.path, edge.inner);
      if (!outer || !inner) continue;
      int outer_rank = rank.at(*outer);
      int inner_rank = rank.at(*inner);
      if (!edge.same_rank && outer_rank > inner_rank) {
        per_file[input.path].push_back(
            {input.path, edge.line, "lock-order",
             "nested acquisition '" + *outer + "' -> '" + *inner +
                 "' inverts the declared hierarchy (" + *outer + " rank " +
                 std::to_string(outer_rank) + ", " + *inner + " rank " +
                 std::to_string(inner_rank) + "); deadlock risk"});
      } else if (!edge.same_rank && outer_rank == inner_rank) {
        per_file[input.path].push_back(
            {input.path, edge.line, "lock-order",
             "same-rank nested acquisition '" + *outer + "' -> '" + *inner +
                 "' (both rank " + std::to_string(outer_rank) +
                 ") needs an explicit util::SameRankToken at the call "
                 "site"});
      }
      if (*outer != *inner) {
        edges.push_back({*outer, *inner, input.path, edge.line,
                         edge.same_rank});
      }
    }
    for (const LevelEdge& edge : input.scan.comment_edges) {
      if (edge.outer != edge.inner) edges.push_back(edge);
    }
  }

  // Cycle detection over the merged graph. SameRankToken / (same-rank)
  // edges stay IN the graph: each one is locally justified, but two
  // tokened edges in opposite directions across different files are a
  // deadlock no per-edge check can see — catching exactly that is this
  // rule's reason to exist.
  std::map<std::string, std::map<std::string, const LevelEdge*>> adjacency;
  for (const LevelEdge& edge : edges) {
    adjacency[edge.outer].emplace(edge.inner, &edge);
  }
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        auto it = adjacency.find(node);
        if (it != adjacency.end()) {
          for (const auto& [next, edge] : it->second) {
            if (color[next] == 1) {
              // Back edge: the cycle is stack[pos(next)..] + this edge.
              auto begin =
                  std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(begin, stack.end());
              std::vector<std::string> canon = cycle;
              std::rotate(canon.begin(),
                          std::min_element(canon.begin(), canon.end()),
                          canon.end());
              std::string key;
              for (const std::string& name : canon) key += name + ";";
              if (!reported.insert(key).second) continue;
              std::ostringstream chain;
              std::ostringstream sites;
              for (std::size_t i = 0; i < cycle.size(); ++i) {
                const std::string& from = cycle[i];
                const std::string& to = cycle[(i + 1) % cycle.size()];
                const LevelEdge* hop = adjacency.at(from).at(to);
                chain << from << " -> ";
                sites << (i ? ", " : "") << from << "->" << to << " ("
                      << hop->file << ":" << hop->line << ")";
              }
              chain << cycle.front();
              per_file[edge->file].push_back(
                  {edge->file, edge->line, "lock-cycle",
                   "cycle in the global lock graph: " + chain.str() +
                       "; edges: " + sites.str() +
                       " — some interleaving of these acquisitions "
                       "deadlocks"});
            } else if (color[next] == 0) {
              visit(next);
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, _] : adjacency) {
    if (color[node] == 0) visit(node);
  }
}

}  // namespace

const std::vector<std::pair<std::string, int>>& lock_hierarchy() {
  // Generated from src/util/lock_levels.hpp — the same single source the
  // runtime detector and the docs table use.
  static const std::vector<std::pair<std::string, int>> hierarchy = [] {
    std::vector<std::pair<std::string, int>> out;
    for (const auto& info : util::kLockLevels) {
      out.emplace_back(info.name, info.rank);
    }
    return out;
  }();
  return hierarchy;
}

std::string lock_table_markdown() {
  std::ostringstream out;
  out << "| level | rank | guards |\n";
  out << "|-------|------|--------|\n";
  for (const auto& info : util::kLockLevels) {
    out << "| `" << info.name << "` | " << info.rank << " | " << info.doc
        << " |\n";
  }
  return out.str();
}

std::string format(const Violation& violation) {
  std::ostringstream out;
  out << violation.file << ":" << violation.line << ": " << violation.rule
      << ": " << violation.message;
  return out.str();
}

std::vector<Violation> lint_sources(const std::vector<SourceFile>& files) {
  struct FileState {
    Allows allows;
    std::vector<Violation> found;
  };
  std::map<std::string, FileState> states;
  std::vector<GraphInput> graph_inputs;

  for (const SourceFile& file : files) {
    std::vector<LineInfo> lines = lex(file.content);
    FileState& state = states[file.path];
    state.allows = collect_allows(file.path, lines);
    check_raw_sync(file.path, lines, state.found);
    check_detach(file.path, lines, state.found);
    check_net_blocking(file.path, lines, state.found);
    check_reactor_blocking(file.path, lines, state.found);
    check_layering(file.path, lines, state.found);
    check_raw_new(file.path, lines, state.found);
    GraphInput input;
    input.path = file.path;
    input.scan = scan_lock_graph(file.path, lines, state.found);
    check_lock_order_comments(file.path, lines, input.scan, state.found);
    // An allow(lock-order) on a derived edge means "this lexical nesting
    // is not a real acquisition edge" (lambda bodies, death-test
    // fixtures), so it must leave the global cycle graph too — not just
    // mute the per-edge report.
    auto& var_edges = input.scan.var_edges;
    var_edges.erase(
        std::remove_if(var_edges.begin(), var_edges.end(),
                       [&](const FileScan::VarEdge& edge) {
                         auto it = state.allows.by_line.find(edge.line);
                         return it != state.allows.by_line.end() &&
                                it->second.count("lock-order") > 0;
                       }),
        var_edges.end());
    graph_inputs.push_back(std::move(input));
  }

  std::map<std::string, std::vector<Violation>> graph_violations;
  run_graph_pass(graph_inputs, graph_violations);
  for (auto& [path, found] : graph_violations) {
    auto it = states.find(path);
    if (it == states.end()) continue;
    for (Violation& violation : found) {
      it->second.found.push_back(std::move(violation));
    }
  }

  std::vector<Violation> out;
  for (auto& [path, state] : states) {
    for (Violation& violation : state.allows.bad) {
      out.push_back(std::move(violation));
    }
    for (Violation& violation : state.found) {
      if (state.allows.suppressed(violation)) continue;
      out.push_back(std::move(violation));
    }
  }
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::vector<Violation> lint_content(const std::string& path,
                                    const std::string& content) {
  return lint_sources({{path, content}});
}

std::vector<Violation> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io", "cannot open file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_content(path, buffer.str());
}

std::vector<Violation> lint_roots(const std::vector<std::string>& roots) {
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    if (fs::is_regular_file(root)) {
      paths.push_back(root);
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  std::vector<SourceFile> files;
  std::vector<Violation> out;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      out.push_back({path, 0, "io", "cannot open file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back({path, buffer.str()});
  }
  std::vector<Violation> found = lint_sources(files);
  out.insert(out.end(), found.begin(), found.end());
  return out;
}

std::vector<Violation> lint_tree(const std::string& root) {
  return lint_roots({root});
}

}  // namespace clarens::lint
