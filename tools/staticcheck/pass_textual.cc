// Per-line rules migrated from tools/lint.py (which is now a thin
// driver). Same checks, same messages, same scoping — but running on
// the scanner's comment/string-blanked view instead of a hand-rolled
// Python state machine, so raw strings and spliced comments are handled
// for free. NOLINT and baseline filtering happen centrally in
// RunAnalysis; these functions just emit.

#include <regex>
#include <sstream>

#include "staticcheck.h"

namespace staticcheck {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsLibrarySource(const std::string& path) {
  return StartsWith(path, "src/");
}

// The per-line rules audit the whole checked tree, not just the
// library: tests and benchmarks follow the same error-model and
// concurrency policies (deliberate exceptions carry a NOLINT).
bool IsCheckedTree(const std::string& path) {
  return IsLibrarySource(path) || StartsWith(path, "tests/") ||
         StartsWith(path, "bench/");
}

bool IsNetTest(const std::string& path) {
  return StartsWith(path, "tests/net_");
}

void Emit(std::vector<Diagnostic>* out, const SourceFile& f, int line,
          const char* check, const std::string& msg) {
  out->push_back({f.path, line, check, msg});
}

// ---------------------------------------------------------- per-file rules

void CheckThrow(const SourceFile& f, std::vector<Diagnostic>* out) {
  static const std::regex re(R"(\bthrow\b)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (std::regex_search(f.code_lines[i], re)) {
      Emit(out, f, static_cast<int>(i + 1), "no-throw",
           "library code must not throw; return a Status");
    }
  }
}

void CheckNewDelete(const SourceFile& f, std::vector<Diagnostic>* out) {
  static const std::regex new_re(R"(\bnew\b)");
  static const std::regex new_allowed(
      R"((static\s[^=]*=\s*new\b|(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*new\b))");
  static const std::regex eq_delete(R"(=\s*delete\b)");
  static const std::regex delete_expr(R"(\bdelete\b(\s*\[\s*\])?\s)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    if (std::regex_search(line, new_re) &&
        !std::regex_search(line, new_allowed)) {
      Emit(out, f, static_cast<int>(i + 1), "no-naked-new",
           "`new` must be owned at birth (smart-pointer ctor) or a static "
           "leaky singleton; use std::make_unique");
    }
    std::string stripped = std::regex_replace(line, eq_delete, "");
    if (std::regex_search(stripped, delete_expr)) {
      Emit(out, f, static_cast<int>(i + 1), "no-naked-new",
           "`delete` expression; memory must be owned by smart pointers");
    }
  }
}

void CheckStatusLadder(const SourceFile& f, std::vector<Diagnostic>* out) {
  // macros.h defines RETURN_NOT_OK itself in terms of this pattern.
  if (f.path == "src/common/macros.h") return;
  static const std::regex ladder(
      R"(if\s*\(\s*!\s*([A-Za-z_]\w*)\s*\.\s*ok\s*\(\s*\)\s*\)\s*(\{\s*)?return\s+\1(\s*\.\s*status\s*\(\s*\))?\s*;)");
  std::string code;
  for (const auto& line : f.code_lines) {
    code += line;
    code += '\n';
  }
  auto begin = std::sregex_iterator(code.begin(), code.end(), ladder);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    int line = 1;
    for (size_t k = 0; k < static_cast<size_t>(it->position()); ++k) {
      if (code[k] == '\n') ++line;
    }
    const char* fix =
        (*it)[3].matched ? "ASSIGN_OR_RETURN" : "RETURN_NOT_OK";
    Emit(out, f, line, "status-ladder",
         std::string("manual .ok() ladder; use ") + fix);
  }
}

void CheckMetricsState(const SourceFile& f, std::vector<Diagnostic>* out) {
  // The registry and its instruments are written from every thread; a
  // plain member there is a data race by construction.
  if (f.path != "src/common/metrics.h") return;
  static const std::regex member(
      R"(^\s+(?!return\b|using\b|typedef\b|static\b|friend\b)[A-Za-z_][\w:<>,&*\s]*[\s&*][a-z_]\w*_\s*(\[[^\]]*\])?\s*(\{[^}]*\})?\s*(=[^;]*)?(\s*[A-Z_]+\([^)]*\))?\s*;\s*$)");
  static const std::regex safe(
      R"(atomic|\bconst\b|GUARDED_BY|\bMutex\b|\bCondVar\b)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    const std::string& line = f.code_lines[i];
    if (std::regex_match(line, member) && !std::regex_search(line, safe)) {
      Emit(out, f, static_cast<int>(i + 1), "metrics-state",
           "shared metric state must be atomic, const, a Mutex/CondVar, or "
           "GUARDED_BY a mutex");
    }
  }
}

void CheckRawThread(const SourceFile& f, std::vector<Diagnostic>* out) {
  // The audited homes for thread creation: the morsel pool, the
  // transport layer, the storage background merger's single daemon, and
  // the query server's per-query driver threads (DESIGN.md §15).
  if (StartsWith(f.path, "src/common/thread_pool.") ||
      StartsWith(f.path, "src/net/") ||
      StartsWith(f.path, "src/server/query_server.") ||
      f.path == "src/storage/background_merger.h") {
    return;
  }
  static const std::regex re(
      R"(std\s*::\s*(thread|jthread|async)\b|#\s*include\s*<thread>)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (std::regex_search(f.code_lines[i], re)) {
      Emit(out, f, static_cast<int>(i + 1), "no-raw-thread",
           "threads live in common/thread_pool, src/net/, the query "
           "server's drivers, and the background merger only; use "
           "ExecContext::pool or the net/ transport instead of raw "
           "std::thread/async");
    }
  }
}

void CheckRawSocket(const SourceFile& f, std::vector<Diagnostic>* out) {
  // Sockets outside src/net/ would bypass fault injection, frame
  // accounting, and the RPC deadline machinery.
  if (StartsWith(f.path, "src/net/")) return;
  static const std::regex re(
      R"(#\s*include\s*<sys/socket\.h>|::\s*socket\s*\(|\bsocket\s*\()");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (std::regex_search(f.code_lines[i], re)) {
      Emit(out, f, static_cast<int>(i + 1), "no-raw-socket",
           "socket(2) is confined to src/net/; go through net::Transport / "
           "net::RpcClient");
    }
  }
}

void CheckAtomicOrder(const SourceFile& f, std::vector<Diagnostic>* out) {
  // Relaxed ordering is correct only when the value carries no
  // release/acquire obligation — that argument must be written down
  // where it is made. Two audited hot paths are exempt as a unit.
  if (StartsWith(f.path, "src/common/metrics.") ||
      StartsWith(f.path, "src/common/thread_pool.")) {
    return;
  }
  static const std::regex relaxed_ok(R"(//\s*relaxed-ok:\s*\S)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (f.code_lines[i].find("memory_order_relaxed") == std::string::npos) {
      continue;
    }
    if (i < f.raw_lines.size() &&
        std::regex_search(f.raw_lines[i], relaxed_ok)) {
      continue;
    }
    Emit(out, f, static_cast<int>(i + 1), "atomic-order",
         "memory_order_relaxed outside the audited hot paths; justify with "
         "`// relaxed-ok: <why>` or use the default sequentially "
         "consistent ordering");
  }
}

void CheckNetTestClock(const SourceFile& f, std::vector<Diagnostic>* out) {
  // tests/net_*: deadline behaviour must be driven by net::VirtualTime so
  // the suite is fast and deterministic; a real sleep is either too
  // short (flaky) or too long (slow), and always both eventually.
  static const std::regex re(
      R"(sleep_for|sleep_until|\busleep\s*\(|\bnanosleep\s*\(|(^|[^_\w])sleep\s*\(\s*\d)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (std::regex_search(f.code_lines[i], re)) {
      Emit(out, f, static_cast<int>(i + 1), "net-test-clock",
           "net tests must use net::VirtualTime, not real sleeps");
    }
  }
}

void CheckOneEvaluator(const SourceFile& f, std::vector<Diagnostic>* out) {
  // Operators evaluate expressions through BoundExpr. Only the reference
  // evaluator (Expr::Eval) and BoundExpr's untyped fallback build the
  // per-cell name-lookup context; anything else is a second evaluator.
  if (!IsLibrarySource(f.path) || f.path == "src/exec/expression.h" ||
      f.path == "src/exec/expression.cc" ||
      f.path == "src/exec/bound_expr.cc") {
    return;
  }
  static const std::regex re(R"(\bEvalContext\b)");
  for (size_t i = 0; i < f.code_lines.size(); ++i) {
    if (std::regex_search(f.code_lines[i], re)) {
      Emit(out, f, static_cast<int>(i + 1), "one-evaluator",
           "EvalContext outside exec/expression and exec/bound_expr.cc; "
           "bind the expression with BoundExpr::Bind and evaluate it "
           "through Keep or MapChunk");
    }
  }
}

void CheckIncludeGuard(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (f.path.size() < 2 ||
      f.path.compare(f.path.size() - 2, 2, ".h") != 0) {
    return;
  }
  // src/ headers drop the prefix (SCIDB_NET_RPC_H_); other roots keep
  // the full path (SCIDB_BENCH_WORKLOADS_H_) so guards stay unique.
  std::string rel = StartsWith(f.path, "src/") ? f.path.substr(4) : f.path;
  std::string expected = "SCIDB_";
  for (char c : rel) {
    expected += std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(std::toupper(c))
                    : '_';
  }
  expected += '_';

  // First two directives must be `ifndef GUARD` / `define GUARD`.
  const Directive* ifndef = nullptr;
  const Directive* define = nullptr;
  for (const auto& d : f.directives) {
    if (!ifndef) {
      if (d.kind == "ifndef") ifndef = &d;
      continue;
    }
    if (d.kind == "define") define = &d;
    break;
  }
  if (!ifndef || !define) {
    Emit(out, f, 1, "include-guard",
         "missing #ifndef/#define include guard");
    return;
  }
  // First word of `rest` is the macro name.
  auto first_word = [](const std::string& s) {
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return std::string();
    size_t e = s.find_first_of(" \t", b);
    return s.substr(b, e == std::string::npos ? std::string::npos : e - b);
  };
  std::string g1 = first_word(ifndef->rest);
  std::string g2 = first_word(define->rest);
  if (g1 != expected || g2 != expected) {
    Emit(out, f, 1, "include-guard",
         "guard is " + g1 + ", expected " + expected);
  }
  // Closing #endif must carry a `// GUARD` comment (checked on raw text
  // because the comment is the thing being required).
  static const char* kEndif = "#endif";
  bool endif_ok = false;
  size_t pos = 0;
  while ((pos = f.text.find(kEndif, pos)) != std::string::npos) {
    size_t rest = pos + 6;
    size_t slash = f.text.find("//", rest);
    size_t nl = f.text.find('\n', rest);
    if (slash != std::string::npos &&
        (nl == std::string::npos || slash < nl)) {
      size_t after = slash + 2;
      while (after < f.text.size() &&
             (f.text[after] == ' ' || f.text[after] == '\t')) {
        ++after;
      }
      if (f.text.compare(after, expected.size(), expected) == 0) {
        endif_ok = true;
        break;
      }
    }
    pos = rest;
  }
  if (!endif_ok) {
    Emit(out, f, 1, "include-guard",
         "closing #endif lacks `// " + expected + "` comment");
  }
}

}  // namespace

void RunTextualPass(const Analysis& a, std::vector<Diagnostic>* out) {
  for (const auto& f : a.files) {
    if (IsCheckedTree(f.path)) {
      CheckThrow(f, out);
      CheckNewDelete(f, out);
      CheckStatusLadder(f, out);
      CheckMetricsState(f, out);
      CheckRawThread(f, out);
      CheckRawSocket(f, out);
      CheckAtomicOrder(f, out);
      CheckOneEvaluator(f, out);
      CheckIncludeGuard(f, out);
    }
    if (IsNetTest(f.path)) {
      CheckNetTestClock(f, out);
    }
  }
}

}  // namespace staticcheck
