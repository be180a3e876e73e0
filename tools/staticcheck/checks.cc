// The check registry: one entry per diagnostic id the analyzer can
// emit, with the prose `--list-checks` / `--explain` serve and ToSarif
// embeds as rule metadata. Adding a pass without registering its check
// here fails the registry test in tests/staticcheck_test.cc.

#include <algorithm>

#include "staticcheck.h"

namespace staticcheck {

const std::vector<CheckInfo>& AllChecks() {
  static const std::vector<CheckInfo> kChecks = {
      {"layering",
       "#include edges between src/ modules must be declared in the "
       "layering manifest",
       "The module DAG (common <- storage <- exec <- ... ) is what keeps "
       "the engine buildable in pieces and testable per layer. An "
       "undeclared #include edge is how cycles start: the first one is "
       "always innocent, and by the third the layers are load-bearing "
       "spaghetti. The manifest (tools/staticcheck/layering.manifest) is "
       "the single declared truth; this pass diffs reality against it "
       "and also rejects a manifest that itself contains a cycle.",
       "src/common/value.h doing `#include \"exec/operators.h\"` fails: "
       "common must not depend on exec."},
      {"lock-coverage",
       "every mutable member of a mutex-owning class must be GUARDED_BY, "
       "atomic, or const",
       "clang's -Wthread-safety only checks members that carry an "
       "annotation — an unannotated member is silently skipped, which "
       "is exactly where races hide. In any class that owns a Mutex, "
       "this pass requires every mutable, non-atomic data member to be "
       "GUARDED_BY a mutex (or const / a reference / the mutex itself), "
       "closing the annotate-nothing loophole.",
       "class Cache { Mutex mu_; size_t hits_; } fails: hits_ needs "
       "GUARDED_BY(mu_)."},
      {"protocol-drift",
       "tracked wire enums must be handled in every switch and dispatch "
       "table",
       "Wire enums (MessageType, ValueTag, ...) evolve; a new enumerator "
       "that a switch quietly routes to `default:` is a protocol drift "
       "that only fails at the worst time — in a mixed-version grid. "
       "Enums named in tools/staticcheck/protocol.manifest must be "
       "exhaustively handled in every switch over them and in every "
       "declared dispatch table, so adding an enumerator is a build "
       "error until every handler exists.",
       "adding MessageType::kSnapshot without a case in "
       "RpcServer::OnFrame's switch fails the build."},
      {"status-flow",
       "(void)-discarding a Status/Result call needs a same-line "
       "justification",
       "Status and Result<T> are [[nodiscard]]; the escape hatch is a "
       "(void) cast, and an unexplained (void) cast is a swallowed "
       "error. Every discard of a fallible call must carry a same-line "
       "`// status-ignored: <why>` so the decision to drop the error is "
       "reviewable, not accidental.",
       "`(void)storage->Flush();` fails; `(void)storage->Flush();  // "
       "status-ignored: best-effort on shutdown` passes."},
      {"lock-order",
       "the whole-program lock acquisition graph must be acyclic",
       "Deadlock needs a cycle: thread 1 holds A and wants B, thread 2 "
       "holds B and wants A. The runtime detector in common/lock_order "
       "aborts on inversions, but only on interleavings that actually "
       "execute. This pass builds the static \"acquires B while holding "
       "A\" graph over the cross-file call graph — MutexLock RAII "
       "sites, direct lock()/unlock(), REQUIRES/ACQUIRE annotations — "
       "and reports any cycle with the full witness path (files:lines "
       "through the call chain), so an inversion is a build error before "
       "it is a 3am page. Resolution is conservative: virtual calls "
       "union every definition of the callee's name, and an ambiguous "
       "receiver merges lock identities, so rare false positives are "
       "possible and suppressed with NOLINT(lock-order).",
       "FooA: holds a_ then calls Bar; Bar acquires b_. FooB: holds b_ "
       "then calls Baz; Baz acquires a_. Reported as a_ -> b_ -> a_ "
       "with all four files:lines."},
      {"blocking-under-lock",
       "no RPC / socket / pool-wait / file I/O / sleep while a Mutex is "
       "held",
       "Holding a mutex across a blocking call turns one slow peer into "
       "a stalled subsystem: every thread that wants the lock queues "
       "behind a network round trip. Blocking roots are declared in "
       "tools/staticcheck/blocking.manifest (RPC Call, send/recv, "
       "ParallelFor, joins, condition-variable waits, file I/O, sleeps) "
       "and propagated transitively through the call graph to a "
       "may-block attribute; any may-block call made while a Mutex is "
       "held is reported with the call chain down to the root. "
       "Condition-variable waits release the lock they are handed "
       "(cv_.wait(mu_)), so they are exempt for that one lock. "
       "Deliberate design points (e.g. a loopback handshake under the "
       "transport lock) take a justified NOLINT(blocking-under-lock).",
       "`MutexLock l(mu_); client_->Call(...)` fails with the chain "
       "Call -> Send -> ::send."},
      {"no-throw",
       "no `throw` in checked code; errors travel as Status/Result",
       "The engine's error model is Status/Result end to end: callers "
       "see every failure in the return type, and the RPC boundary can "
       "serialize it. A `throw` bypasses all of that — it unwinds "
       "through code that never agreed to be exception-safe and dies at "
       "the first noexcept boundary.",
       "`if (!ok) throw std::runtime_error(...)` fails; return "
       "Status::Invalid(...) instead."},
      {"no-naked-new",
       "every `new` must be owned at birth; no `delete` expressions",
       "A raw `new` whose result is assigned to a raw pointer has no "
       "owner, and ownership added later is ownership forgotten on the "
       "error path. `new` is allowed only inside a smart-pointer "
       "constructor on the same line, or as a static leaky singleton; "
       "`delete` is allowed nowhere.",
       "`Foo* f = new Foo;` fails; `auto f = std::make_unique<Foo>();` "
       "passes."},
      {"status-ladder",
       "manual `if (!s.ok()) return s;` ladders must use the macros",
       "RETURN_NOT_OK / ASSIGN_OR_RETURN exist so error propagation "
       "reads as one line and can be grepped as one pattern. The "
       "hand-rolled ladder is the same semantics with more lines and, "
       "eventually, a typo'd variable in one copy.",
       "`auto s = f(); if (!s.ok()) return s;` fails; "
       "`RETURN_NOT_OK(f());` passes."},
      {"include-guard",
       "headers carry a canonical SCIDB_<PATH>_H_ include guard",
       "Guards derived mechanically from the path never collide and "
       "never go stale when a file moves (the mismatch is flagged). The "
       "closing #endif repeats the guard in a comment so the end of a "
       "long header is self-identifying.",
       "src/net/rpc.h must use SCIDB_NET_RPC_H_; bench/workloads.h must "
       "use SCIDB_BENCH_WORKLOADS_H_."},
      {"metrics-state",
       "shared metric registry state must be atomic, const, or "
       "GUARDED_BY",
       "src/common/metrics.h is written from every thread in the "
       "process; a plain data member there is a data race by "
       "construction, and TSan only catches the interleavings the test "
       "suite happens to produce. This pass makes the type system "
       "requirement structural: atomic, const, a Mutex/CondVar, or "
       "GUARDED_BY.",
       "`int64_t count_;` in metrics.h fails; "
       "`std::atomic<int64_t> count_;` passes."},
      {"no-raw-thread",
       "threads are created in thread_pool, src/net/, and the "
       "background merger only",
       "Every thread outside the three audited homes is a thread the "
       "shutdown paths, TSan suites, and the flake gate do not know "
       "about. Library code uses ExecContext::pool or the transports; "
       "tests that exercise the threading primitives themselves carry a "
       "justified NOLINT.",
       "`std::thread t([..]{...});` in src/exec/ fails; use "
       "ExecContext::pool."},
      {"no-raw-socket",
       "socket(2) is confined to src/net/",
       "A socket opened outside src/net/ bypasses fault injection, "
       "frame accounting, deadlines, and the seeded-fault determinism "
       "the replication tests stand on. Everything speaks "
       "net::Transport / net::RpcClient.",
       "`::socket(AF_INET, ...)` in src/storage/ fails."},
      {"net-test-clock",
       "tests/net_* drive time through net::VirtualTime, not sleeps",
       "Deadline behaviour tested with real sleeps is either flaky "
       "(sleep too short) or slow (sleep too long), and both on a loaded "
       "CI runner. The net tests inject net::VirtualTime, so a test "
       "advances the clock explicitly and the suite is fast and "
       "deterministic.",
       "`std::this_thread::sleep_for(50ms)` in tests/net_rpc_test.cc "
       "fails; `clock.Advance(...)` passes."},
      {"atomic-order",
       "memory_order_relaxed needs a same-line justification",
       "Relaxed ordering is correct only when the value carries no "
       "acquire/release obligation, and that argument lives in the "
       "author's head unless it is written down. Outside the two "
       "audited hot paths (metrics, thread_pool), every "
       "memory_order_relaxed needs a same-line `// relaxed-ok: <why>`.",
       "`x.load(std::memory_order_relaxed)` fails unless the line ends "
       "with `// relaxed-ok: counter is monotonic, no ordering needed`."},
      {"one-evaluator",
       "EvalContext appears in src/ only in exec/expression and "
       "exec/bound_expr.cc",
       "Every operator evaluates an expression through BoundExpr: bound "
       "once against its operands laid side by side, run as column "
       "kernels when the tree is numeric and through Expr::Eval cell by "
       "cell otherwise. A hand-rolled EvalContext loop in an operator is "
       "a second evaluator, with its own name lookup, error order and "
       "boxing, that the differential suites do not pin. Expr::Eval and "
       "its context stay as the reference the fuzz harness and the "
       "oracle tests compare against.",
       "`EvalContext ectx; ... pred->Eval(ectx)` in src/exec/"
       "structural_ops.cc fails; `BoundExpr::Bind(pred, {&schema}, fns)"
       ".Keep(chunk, box)` passes."},
  };
  return kChecks;
}

const CheckInfo* FindCheck(const std::string& id) {
  const auto& all = AllChecks();
  auto it = std::find_if(all.begin(), all.end(),
                         [&id](const CheckInfo& c) { return c.id == id; });
  return it == all.end() ? nullptr : &*it;
}

}  // namespace staticcheck
