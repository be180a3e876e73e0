// tools/staticcheck: tokenizer corner cases, a positive and a negative
// per pass, suppression (NOLINT, baseline), SARIF shape, and a
// regression guard that shells out to the built binary against seeded
// bad fixtures — so a future refactor cannot quietly turn the analyzer
// into a yes-machine.
#include "tools/staticcheck/staticcheck.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace staticcheck {
namespace {

SourceFile MakeFile(const std::string& path, const std::string& text) {
  SourceFile f;
  f.path = path;
  f.text = text;
  Lex(&f);
  return f;
}

std::vector<Token> TokensOfKind(const SourceFile& f, TokKind k) {
  std::vector<Token> out;
  for (const auto& t : f.tokens) {
    if (t.kind == k) out.push_back(t);
  }
  return out;
}

bool HasIdent(const SourceFile& f, const std::string& name) {
  for (const auto& t : f.tokens) {
    if (t.kind == TokKind::kIdent && t.text == name) return true;
  }
  return false;
}

// ------------------------------------------------------------- tokenizer

TEST(Lexer, RawStringsHideCommentAndStringSyntax) {
  SourceFile f = MakeFile(
      "src/x/a.cc",
      "const char* s = R\"x(no \"quote\" // not a comment)x\";\n"
      "int after = 1;\n");
  // The raw string is one token; its contents never leak into the
  // comment-stripped view the per-line rules run on.
  ASSERT_EQ(TokensOfKind(f, TokKind::kString).size(), 1u);
  EXPECT_TRUE(HasIdent(f, "after"));
  ASSERT_GE(f.code_lines.size(), 2u);
  EXPECT_EQ(f.code_lines[0].find("comment"), std::string::npos);
  EXPECT_EQ(f.code_lines[0].find("quote"), std::string::npos);
}

TEST(Lexer, LineSplicedCommentSwallowsNextLine) {
  SourceFile f = MakeFile("src/x/a.cc",
                          "// spliced comment \\\n"
                          "int not_code = 1;\n"
                          "int real = 2;\n");
  // Line 2 is still comment (the backslash splices it into line 1); the
  // first real token is on line 3.
  EXPECT_FALSE(HasIdent(f, "not_code"));
  ASSERT_TRUE(HasIdent(f, "real"));
  EXPECT_EQ(f.tokens.front().line, 3);
}

TEST(Lexer, BlockCommentsDoNotNest) {
  // Per the language, /* */ does not nest: the first */ closes the
  // comment, so `mid` is code and the trailing */ would be a stray
  // token, not swallowed text.
  SourceFile f =
      MakeFile("src/x/a.cc", "/* outer /* inner */ int mid = 3;\n");
  EXPECT_TRUE(HasIdent(f, "mid"));
  EXPECT_FALSE(HasIdent(f, "inner"));
}

TEST(Lexer, DirectivesAreCapturedNotTokenized) {
  SourceFile f = MakeFile("src/x/a.cc",
                          "#include \"net/rpc.h\"  // trailing\n"
                          "#define WIDTH 4\n"
                          "int x = WIDTH;\n");
  ASSERT_EQ(f.directives.size(), 2u);
  EXPECT_EQ(f.directives[0].kind, "include");
  EXPECT_EQ(f.directives[0].rest, "\"net/rpc.h\"");
  EXPECT_EQ(f.directives[0].line, 1);
  EXPECT_EQ(f.directives[1].kind, "define");
  // Directive bodies are not part of the expression token stream.
  EXPECT_EQ(f.tokens.front().text, "int");
}

// ------------------------------------------------------------- layering

constexpr char kManifest[] =
    "common:\n"
    "net: common\n"
    "exec: common\n";

TEST(LayeringPass, FlagsUndeclaredEdgeAtIncludeLine) {
  Analysis a;
  a.config.layering_manifest = kManifest;
  a.files.push_back(MakeFile("src/net/a.h",
                             "#include \"common/status.h\"\n"
                             "#include \"exec/expression.h\"\n"));
  std::vector<Diagnostic> diags;
  RunLayeringPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].path, "src/net/a.h");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[0].check, "layering");
  EXPECT_NE(diags[0].message.find("net -> exec"), std::string::npos);
}

TEST(LayeringPass, DeclaredEdgesAndNonModuleIncludesAreClean) {
  Analysis a;
  a.config.layering_manifest = kManifest;
  a.files.push_back(MakeFile("src/net/a.h",
                             "#include <vector>\n"
                             "#include \"common/status.h\"\n"
                             "#include \"net/frame.h\"\n"));
  std::vector<Diagnostic> diags;
  RunLayeringPass(a, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LayeringPass, ManifestCycleCannotLegalizeItself) {
  // Declaring both directions must itself be an error, or a back-edge
  // report could be "fixed" by adding the reverse edge to the manifest.
  Analysis a;
  a.config.layering_manifest = "net: exec\nexec: net\n";
  std::vector<Diagnostic> diags;
  RunLayeringPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("cycle"), std::string::npos);
}

// -------------------------------------------------------- lock-coverage

TEST(LockCoveragePass, FlagsUnguardedMemberOfMutexOwningClass) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/c.h",
                             "class Cache {\n"
                             " private:\n"
                             "  Mutex mu_;\n"
                             "  int hits_ = 0;\n"
                             "  int total_ GUARDED_BY(mu_) = 0;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunLockCoveragePass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[0].check, "lock-coverage");
  EXPECT_NE(diags[0].message.find("'hits_'"), std::string::npos);
}

TEST(LockCoveragePass, SafeMembersAndMutexFreeClassesAreClean) {
  Analysis a;
  a.files.push_back(MakeFile(
      "src/x/c.h",
      "class Plain {\n"
      "  int anything_ = 0;\n"  // no mutex: out of scope for this pass
      "};\n"
      "class Guarded {\n"
      "  std::mutex mu_;\n"
      "  const int limit_ = 8;\n"
      "  std::atomic<int> seq_{0};\n"
      "  std::vector<int> rows_ GUARDED_BY(mu_);\n"
      "};\n"));
  std::vector<Diagnostic> diags;
  RunLockCoveragePass(a, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LockCoveragePass, BraceInitializedMutexStillMarksOwnership) {
  // Regression: `Mutex mu_{"name"};` must read as a member with a brace
  // initializer, not a function body that hides the rest of the class.
  Analysis a;
  a.files.push_back(MakeFile("src/x/c.h",
                             "class S {\n"
                             "  mutable Mutex mu_{\"S::mu_\"};\n"
                             "  int state_ = 0;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunLockCoveragePass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("'state_'"), std::string::npos);
}

// ------------------------------------------------------- protocol-drift

TEST(ProtocolDriftPass, FlagsSwitchMissingEnumeratorAndDefaultArm) {
  Analysis a;
  a.config.protocol_manifest = "enum Color\n";
  a.files.push_back(
      MakeFile("src/x/e.h", "enum class Color { kRed, kGreen };\n"));
  a.files.push_back(MakeFile("src/x/u.cc",
                             "int F(Color c) {\n"
                             "  switch (c) {\n"
                             "    case Color::kRed: return 1;\n"
                             "  }\n"
                             "  return 0;\n"
                             "}\n"
                             "int G(Color c) {\n"
                             "  switch (c) {\n"
                             "    case Color::kRed: return 1;\n"
                             "    case Color::kGreen: return 2;\n"
                             "    default: return 0;\n"
                             "  }\n"
                             "}\n"));
  std::vector<Diagnostic> diags;
  RunProtocolDriftPass(a, &diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_NE(diags[0].message.find("kGreen"), std::string::npos);
  EXPECT_NE(diags[1].message.find("default"), std::string::npos);
}

TEST(ProtocolDriftPass, CompleteSwitchIsClean) {
  Analysis a;
  a.config.protocol_manifest = "enum Color\n";
  a.files.push_back(
      MakeFile("src/x/e.h", "enum class Color { kRed, kGreen };\n"));
  a.files.push_back(MakeFile("src/x/u.cc",
                             "int F(Color c) {\n"
                             "  switch (c) {\n"
                             "    case Color::kRed: return 1;\n"
                             "    case Color::kGreen: return 2;\n"
                             "  }\n"
                             "  return 0;\n"
                             "}\n"));
  std::vector<Diagnostic> diags;
  RunProtocolDriftPass(a, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(ProtocolDriftPass, DispatchTableMustRegisterEveryEnumerator) {
  Analysis a;
  a.config.protocol_manifest =
      "enum Color\n"
      "dispatch Color src/x/reg.cc Register except kGreen\n";
  a.files.push_back(
      MakeFile("src/x/e.h", "enum class Color { kRed, kGreen, kBlue };\n"));
  a.files.push_back(MakeFile("src/x/reg.cc",
                             "void Wire() {\n"
                             "  Register(Color::kRed, 1);\n"
                             "}\n"));
  std::vector<Diagnostic> diags;
  RunProtocolDriftPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "protocol-drift");
  EXPECT_NE(diags[0].message.find("kBlue"), std::string::npos);
}

// ---------------------------------------------------------- status-flow

TEST(StatusFlowPass, FlagsUntaggedDiscardAcrossFiles) {
  Analysis a;
  // The fallible callee is declared in a different file than the
  // discard: the pass must union names across the whole tree.
  a.files.push_back(MakeFile("src/x/api.h", "Status Flush(int fd);\n"));
  a.files.push_back(MakeFile(
      "src/x/use.cc",
      "void A(int fd) { (void)Flush(fd); }\n"
      "void B(int fd) { (void)Flush(fd); }  // status-ignored: "
      "best-effort\n"
      "void C() { (void)printf(\"x\"); }\n"));  // not fallible: ignored
  std::vector<Diagnostic> diags;
  RunStatusFlowPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[0].check, "status-flow");
  EXPECT_NE(diags[0].message.find("'Flush'"), std::string::npos);
}

// ------------------------------------------- textual rules + suppression

TEST(TextualPass, MigratedRulesFireOnLibraryCode) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/t.cc",
                             "void F() { throw 1; }\n"
                             "int* G() { return new int(3); }\n"));
  std::vector<Diagnostic> diags;
  RunTextualPass(a, &diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].check, "no-throw");
  EXPECT_EQ(diags[1].check, "no-naked-new");
}

TEST(TextualPass, OneEvaluatorFlagsEvalContextOutsideItsHomes) {
  Analysis a;
  a.files.push_back(MakeFile("src/exec/structural_ops.cc",
                             "// EvalContext in a comment is fine.\n"
                             "void F() { EvalContext ectx; }\n"));
  a.files.push_back(MakeFile("src/query/session.cc",
                             "struct S { scidb::EvalContext* c; };\n"));
  std::vector<Diagnostic> diags;
  RunTextualPass(a, &diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].check, "one-evaluator");
  EXPECT_EQ(diags[0].path, "src/exec/structural_ops.cc");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].check, "one-evaluator");
}

TEST(TextualPass, OneEvaluatorAllowsTheReferenceAndBoundExpr) {
  Analysis a;
  for (const char* path :
       {"src/exec/expression.h", "src/exec/expression.cc",
        "src/exec/bound_expr.cc", "tests/exec_test.cc",
        "bench/bench_expr.cc"}) {
    a.files.push_back(MakeFile(path, "void F() { EvalContext ectx; }\n"));
  }
  a.files.push_back(
      MakeFile("src/exec/eval_context_user.cc",
               "const char* k = \"EvalContext\";  // EvalContext\n"));
  std::vector<Diagnostic> diags;
  RunTextualPass(a, &diags);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.check, "one-evaluator") << d.path << ": " << d.message;
  }
}

TEST(Suppression, ScopedNolintSilencesOnlyTheNamedCheck) {
  Analysis a;
  a.files.push_back(
      MakeFile("src/x/t.cc",
               "void F() { throw 1; }  // NOLINT(no-throw)\n"
               "void G() { throw 2; }  // NOLINT(no-naked-new)\n"
               "void H() { throw 3; }  // NOLINT\n"));
  size_t n = RunAnalysis(&a);
  // Line 1: scoped match, suppressed. Line 2: scope names a different
  // check, NOT suppressed. Line 3: bare NOLINT suppresses everything.
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(a.diagnostics[0].line, 2);
}

TEST(Suppression, BaselineFiltersExactMatchAndReportsStaleEntries) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/t.cc", "void F() { throw 1; }\n"));
  std::vector<Diagnostic> raw;
  RunTextualPass(a, &raw);
  ASSERT_EQ(raw.size(), 1u);
  a.config.baseline = "no-throw|src/x/t.cc|" + raw[0].message +
                      "\n"
                      "no-throw|src/gone.cc|stale entry\n";
  size_t n = RunAnalysis(&a);
  EXPECT_EQ(n, 0u);
  // The entry that matched nothing must be surfaced, or baselines only
  // ever grow.
  ASSERT_EQ(a.notes.size(), 1u);
  EXPECT_NE(a.notes[0].find("src/gone.cc"), std::string::npos);
}

TEST(Sarif, EmitsRuleAndResultForEachDiagnostic) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/t.cc", "void F() { throw 1; }\n"));
  size_t n = RunAnalysis(&a);
  ASSERT_EQ(n, 1u);
  std::string sarif = ToSarif(a);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"no-throw\""), std::string::npos);
  EXPECT_NE(sarif.find("src/x/t.cc"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

// ------------------------------------ call graph / lock effects (§14)

const FunctionDef* FindFn(const ConcurrencyModel& m, const std::string& cls,
                          const std::string& name) {
  for (const auto& f : m.functions) {
    if (f.cls == cls && f.name == name) return &f;
  }
  return nullptr;
}

const CallSite* FindCall(const FunctionDef& f, const std::string& name) {
  for (const auto& c : f.calls) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(CallGraph, IndexesInlineAndOutOfLineDefinitions) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/a.h",
                             "class A {\n"
                             " public:\n"
                             "  int Inline() { return 1; }\n"
                             "  int Outline();\n"
                             "};\n"
                             "int Free() { return 2; }\n"));
  a.files.push_back(MakeFile("src/x/a.cc",
                             "int A::Outline() { return Free(); }\n"));
  ConcurrencyModel m = BuildConcurrencyModel(a);
  EXPECT_NE(FindFn(m, "A", "Inline"), nullptr);
  const FunctionDef* outline = FindFn(m, "A", "Outline");
  ASSERT_NE(outline, nullptr);
  EXPECT_EQ(outline->path, "src/x/a.cc");
  ASSERT_NE(FindFn(m, "", "Free"), nullptr);
  // The out-of-line body's call resolves to the free function.
  const CallSite* c = FindCall(*outline, "Free");
  ASSERT_NE(c, nullptr);
  std::vector<size_t> t = ResolveCall(m, *outline, *c);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(m.functions[t[0]].cls, "");
}

TEST(CallGraph, OverloadedCalleesResolveToEveryOverloadOfTheClass) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/chan.h",
                             "class Chan {\n"
                             " public:\n"
                             "  void Send(int v) { v_ = v; }\n"
                             "  void Send(long v) { v_ = 0; (void)v; }\n"
                             "  void Drive(Chan* c) { c->Send(1); }\n"
                             "\n"
                             " private:\n"
                             "  int v_ = 0;\n"
                             "};\n"));
  ConcurrencyModel m = BuildConcurrencyModel(a);
  const FunctionDef* drive = FindFn(m, "Chan", "Drive");
  ASSERT_NE(drive, nullptr);
  const CallSite* c = FindCall(*drive, "Send");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->recv_type, "Chan");  // parameter type was visible
  // Conservative overload handling: both Send definitions are targets.
  EXPECT_EQ(ResolveCall(m, *drive, *c).size(), 2u);
}

TEST(CallGraph, ShadowedNamePrefersTheCallersOwnClass) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/clock.h",
                             "void Tick() {}\n"
                             "class Clock {\n"
                             " public:\n"
                             "  void Tick() { n_ = n_ + 1; }\n"
                             "  void Step() { Tick(); }\n"
                             "\n"
                             " private:\n"
                             "  int n_ = 0;\n"
                             "};\n"
                             "void Go() { Tick(); }\n"));
  ConcurrencyModel m = BuildConcurrencyModel(a);
  const FunctionDef* step = FindFn(m, "Clock", "Step");
  const FunctionDef* go = FindFn(m, "", "Go");
  ASSERT_NE(step, nullptr);
  ASSERT_NE(go, nullptr);
  // Unqualified from a member: the member shadows the free function.
  std::vector<size_t> t1 = ResolveCall(m, *step, *FindCall(*step, "Tick"));
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(m.functions[t1[0]].cls, "Clock");
  // Unqualified from a free function: only the free Tick.
  std::vector<size_t> t2 = ResolveCall(m, *go, *FindCall(*go, "Tick"));
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(m.functions[t2[0]].cls, "");
}

TEST(CallGraph, UnknownReceiverResolvesToNothing) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/u.h",
                             "class Box {\n"
                             " public:\n"
                             "  int size() { return 3; }\n"
                             "};\n"
                             "int Use() {\n"
                             "  auto v = MakeVec();\n"
                             "  return v.size();\n"
                             "}\n"));
  ConcurrencyModel m = BuildConcurrencyModel(a);
  const FunctionDef* use = FindFn(m, "", "Use");
  ASSERT_NE(use, nullptr);
  const CallSite* c = FindCall(*use, "size");
  ASSERT_NE(c, nullptr);
  // `auto` hid the receiver's type; unioning every in-tree `size` here
  // would manufacture phantom call edges, so the call stays unresolved.
  EXPECT_TRUE(ResolveCall(m, *use, *c).empty());
}

TEST(CallGraph, MutualRecursionTerminates) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/rec.h",
                             "class R {\n"
                             " public:\n"
                             "  void Odd(int n) { if (n) Even(n - 1); }\n"
                             "  void Even(int n) { if (n) Odd(n - 1); }\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunLockOrderPass(a, &diags);  // must terminate despite the cycle
  EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------- lock-order pass

constexpr const char* kInversionHeader =
    "class B;\n"
    "class A {\n"
    " public:\n"
    "  void Lift(B* b);\n"
    "  void GrabA();\n"
    "\n"
    " private:\n"
    "  mutable Mutex amu_;\n"
    "};\n"
    "class B {\n"
    " public:\n"
    "  void Drop(A* a);\n"
    "  void GrabB();\n"
    "\n"
    " private:\n"
    "  mutable Mutex bmu_;\n"
    "};\n";

TEST(LockOrderPass, CrossClassInversionReportsWitnessPath) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/ab.h", kInversionHeader));
  a.files.push_back(MakeFile("src/x/ab.cc",
                             "void A::Lift(B* b) {\n"
                             "  MutexLock la(amu_);\n"
                             "  b->GrabB();\n"
                             "}\n"
                             "void A::GrabA() { MutexLock l(amu_); }\n"
                             "void B::Drop(A* a) {\n"
                             "  MutexLock lb(bmu_);\n"
                             "  a->GrabA();\n"
                             "}\n"
                             "void B::GrabB() { MutexLock l(bmu_); }\n"));
  std::vector<Diagnostic> diags;
  RunLockOrderPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  const Diagnostic& d = diags[0];
  EXPECT_EQ(d.check, "lock-order");
  EXPECT_NE(d.message.find("`A::amu_` -> `B::bmu_` -> `A::amu_`"),
            std::string::npos)
      << d.message;
  // Both directions carry file:line witness hops through the call graph.
  EXPECT_NE(d.message.find("src/x/ab.cc:3: call to `B::GrabB` in `A::Lift` "
                           "while holding `A::amu_`"),
            std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("src/x/ab.cc:8: call to `A::GrabA` in `B::Drop` "
                           "while holding `B::bmu_`"),
            std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("src/x/ab.cc:10: acquires `B::bmu_`"),
            std::string::npos)
      << d.message;
}

TEST(LockOrderPass, ConsistentNestingIsClean) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/ab.h", kInversionHeader));
  a.files.push_back(MakeFile("src/x/ab.cc",
                             "void A::Lift(B* b) {\n"
                             "  MutexLock la(amu_);\n"
                             "  b->GrabB();\n"
                             "}\n"
                             "void A::GrabA() { MutexLock l(amu_); }\n"
                             "void B::Drop(A* a) {\n"
                             "  MutexLock lb(bmu_);\n"
                             "}\n"
                             "void B::GrabB() { MutexLock l(bmu_); }\n"));
  std::vector<Diagnostic> diags;
  RunLockOrderPass(a, &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LockOrderPass, ReacquiredHeldMutexIsASelfCycle) {
  Analysis a;
  a.files.push_back(MakeFile("src/x/self.cc",
                             "void F() {\n"
                             "  Mutex m;\n"
                             "  MutexLock l1(m);\n"
                             "  MutexLock l2(m);\n"
                             "}\n"));
  std::vector<Diagnostic> diags;
  RunLockOrderPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("re-acquired while held"),
            std::string::npos);
}

// ---------------------------------------------- blocking-under-lock pass

constexpr const char* kBlockRoots =
    "root nap\nroot wait cv\nroot RpcClient::Call\n";

TEST(BlockingPass, DirectRootUnderLockIsFlagged) {
  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.files.push_back(MakeFile("src/x/w.h",
                             "class W {\n"
                             " public:\n"
                             "  void Bad() { MutexLock l(mu_); nap(); }\n"
                             "  void Fine() { nap(); }\n"
                             "\n"
                             " private:\n"
                             "  mutable Mutex mu_;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunBlockingPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find(
                "call to blocking `nap` in `W::Bad` while holding "
                "`W::mu_`"),
            std::string::npos)
      << diags[0].message;
}

TEST(BlockingPass, TransitiveChainCarriesWitness) {
  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.files.push_back(MakeFile("src/x/w.h",
                             "class W {\n"
                             " public:\n"
                             "  void Outer() {\n"
                             "    MutexLock l(mu_);\n"
                             "    Helper();\n"
                             "  }\n"
                             "  void Helper() { nap(); }\n"
                             "\n"
                             " private:\n"
                             "  mutable Mutex mu_;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunBlockingPass(a, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 5);
  EXPECT_NE(diags[0].message.find("may block while holding `W::mu_`"),
            std::string::npos)
      << diags[0].message;
  EXPECT_NE(diags[0].message.find(
                "src/x/w.h:7: call to `nap` (blocking root) in "
                "`W::Helper`"),
            std::string::npos)
      << diags[0].message;
}

TEST(BlockingPass, CondvarWaitReleasesItsFirstArgument) {
  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.files.push_back(MakeFile("src/x/w.h",
                             "class W {\n"
                             " public:\n"
                             "  void Park() {\n"
                             "    MutexLock l(mu_);\n"
                             "    cv_.wait(mu_);\n"
                             "  }\n"
                             "\n"
                             " private:\n"
                             "  mutable Mutex mu_;\n"
                             "  CondVar cv_;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunBlockingPass(a, &diags);
  // wait atomically releases the lock it is handed: not "held across".
  EXPECT_TRUE(diags.empty());
}

TEST(BlockingPass, QualifiedRootIgnoresSameNameFreeFunction) {
  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.files.push_back(MakeFile("src/x/rpc.h",
                             "class RpcClient {\n"
                             " public:\n"
                             "  int Call(int x) { return x + fd_; }\n"
                             "\n"
                             " private:\n"
                             "  int fd_ = 0;\n"
                             "};\n"
                             "int Call(int x) { return x; }\n"
                             "class U {\n"
                             " public:\n"
                             "  int BadRpc() {\n"
                             "    MutexLock l(mu_);\n"
                             "    return rpc_->Call(1);\n"
                             "  }\n"
                             "  int FineExpr() {\n"
                             "    MutexLock l(mu_);\n"
                             "    return Call(2);\n"
                             "  }\n"
                             "\n"
                             " private:\n"
                             "  RpcClient* rpc_ GUARDED_BY(mu_);\n"
                             "  mutable Mutex mu_;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunBlockingPass(a, &diags);
  // The RPC round trip through the typed receiver is a block; the
  // expression-builder free function of the same short name is not.
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("`U::BadRpc`"), std::string::npos)
      << diags[0].message;
}

TEST(BlockingPass, LambdaBodyDoesNotInheritCreationSiteLocks) {
  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.files.push_back(MakeFile("src/x/w.h",
                             "class W {\n"
                             " public:\n"
                             "  void Spawn() {\n"
                             "    MutexLock l(mu_);\n"
                             "    enqueue([this] { nap(); });\n"
                             "  }\n"
                             "\n"
                             " private:\n"
                             "  mutable Mutex mu_;\n"
                             "};\n"));
  std::vector<Diagnostic> diags;
  RunBlockingPass(a, &diags);
  // The closure runs when the queue drains it, not at the creation
  // site, so mu_ is not held around its nap().
  EXPECT_TRUE(diags.empty());
}

TEST(Suppression, NolintSilencesLockOrderAtTheAnchor) {
  const char* body =
      "void F() {\n"
      "  Mutex a;\n"
      "  Mutex b;\n"
      "  {\n"
      "    MutexLock la(a);\n"
      "    MutexLock lb(b);%s\n"
      "  }\n"
      "  {\n"
      "    MutexLock l2(b);\n"
      "    MutexLock l3(a);\n"
      "  }\n"
      "}\n";
  char with_nolint[512], without[512];
  std::snprintf(with_nolint, sizeof(with_nolint), body,
                "  // NOLINT(lock-order)");
  std::snprintf(without, sizeof(without), body, "");
  {
    Analysis a;
    a.files.push_back(MakeFile("src/x/cyc.cc", without));
    EXPECT_EQ(RunAnalysis(&a), 1u);
  }
  {
    Analysis a;
    a.files.push_back(MakeFile("src/x/cyc.cc", with_nolint));
    EXPECT_EQ(RunAnalysis(&a), 0u);
  }
}

TEST(Suppression, BaselineCoversBlockingUnderLock) {
  const char* src =
      "class W {\n"
      " public:\n"
      "  void Bad() { MutexLock l(mu_); nap(); }\n"
      "\n"
      " private:\n"
      "  mutable Mutex mu_;\n"
      "};\n";
  Analysis probe;
  probe.config.blocking_manifest = kBlockRoots;
  probe.files.push_back(MakeFile("src/x/w.cc", src));
  std::vector<Diagnostic> raw;
  RunBlockingPass(probe, &raw);
  ASSERT_EQ(raw.size(), 1u);

  Analysis a;
  a.config.blocking_manifest = kBlockRoots;
  a.config.baseline = "blocking-under-lock|src/x/w.cc|" + raw[0].message +
                      "\n";
  a.files.push_back(MakeFile("src/x/w.cc", src));
  EXPECT_EQ(RunAnalysis(&a), 0u);
  EXPECT_EQ(a.stale_baseline, 0u);
}

// ------------------------------------------------------- check registry

TEST(CheckRegistry, EveryEmittableCheckHasMetadata) {
  const char* expected[] = {
      "layering",     "lock-coverage", "protocol-drift",
      "status-flow",  "lock-order",    "blocking-under-lock",
      "no-throw",     "no-naked-new",  "status-ladder",
      "include-guard", "metrics-state", "no-raw-thread",
      "no-raw-socket", "net-test-clock", "atomic-order",
      "one-evaluator"};
  EXPECT_EQ(AllChecks().size(), sizeof(expected) / sizeof(expected[0]));
  for (const char* id : expected) {
    const CheckInfo* c = FindCheck(id);
    ASSERT_NE(c, nullptr) << id;
    EXPECT_NE(std::string(c->summary), "") << id;
    EXPECT_NE(std::string(c->rationale), "") << id;
    EXPECT_NE(std::string(c->example), "") << id;
  }
  EXPECT_EQ(FindCheck("not-a-check"), nullptr);
}

// ------------------------------------------------- regression guard (f)

#ifdef SCIDB_STATICCHECK_BIN

struct RunResult {
  int exit_code;
  std::string output;
};

RunResult RunBinary(const std::string& args) {
  std::string cmd = std::string(SCIDB_STATICCHECK_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[512];
  while (pipe != nullptr && fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  int status = pipe != nullptr ? pclose(pipe) : -1;
  int code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return {code, out};
}

void WriteFixture(const std::filesystem::path& p, const std::string& text) {
  std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary);
  ASSERT_TRUE(out.good()) << p;
  out << text;
}

// Seeds a layering back-edge (net -> exec) and an unguarded member into
// throwaway fixtures and asserts the binary exits non-zero naming the
// exact file:line of each. If this test starts passing with exit 0, the
// analyzer has stopped analyzing.
TEST(RegressionGuard, SeededViolationsFailWithExactLocations) {
  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "staticcheck_fixture";
  fs::remove_all(tmp);

  WriteFixture(tmp / "src/net/bad.h",
               "#ifndef SCIDB_NET_BAD_H_\n"
               "#define SCIDB_NET_BAD_H_\n"
               "\n"
               "#include \"exec/expression.h\"\n"
               "\n"
               "#endif  // SCIDB_NET_BAD_H_\n");
  WriteFixture(tmp / "src/common/bad_lock.h",
               "#ifndef SCIDB_COMMON_BAD_LOCK_H_\n"
               "#define SCIDB_COMMON_BAD_LOCK_H_\n"
               "\n"
               "class Cache {\n"
               " public:\n"
               "  int Get();\n"
               "\n"
               " private:\n"
               "  Mutex mu_;\n"
               "  int hits_ = 0;\n"
               "};\n"
               "\n"
               "#endif  // SCIDB_COMMON_BAD_LOCK_H_\n");
  WriteFixture(tmp / "layering.manifest",
               "common:\n"
               "net: common\n"
               "exec: common\n");

  RunResult r = RunBinary(
      "--root " + tmp.string() + " --manifest " +
      (tmp / "layering.manifest").string() + " " +
      (tmp / "src/net/bad.h").string() + " " +
      (tmp / "src/common/bad_lock.h").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/net/bad.h:4"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/common/bad_lock.h:10"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[lock-coverage]"), std::string::npos)
      << r.output;

  fs::remove_all(tmp);
}

// Seeds a two-mutex inversion whose halves live in different functions
// of one TU reached through the call graph, and asserts the binary
// exits 1 with the full witness path — every hop as file:line.
TEST(RegressionGuard, SeededCrossTuLockCycleFailsWithWitnessPath) {
  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "staticcheck_lockcycle";
  fs::remove_all(tmp);

  WriteFixture(tmp / "src/grid/a.h",
               "#ifndef SCIDB_GRID_A_H_\n"
               "#define SCIDB_GRID_A_H_\n"
               "\n"
               "class B;\n"
               "class A {\n"
               " public:\n"
               "  void Lift(B* b);\n"
               "  void GrabA();\n"
               "\n"
               " private:\n"
               "  mutable Mutex amu_;\n"
               "};\n"
               "class B {\n"
               " public:\n"
               "  void Drop(A* a);\n"
               "  void GrabB();\n"
               "\n"
               " private:\n"
               "  mutable Mutex bmu_;\n"
               "};\n"
               "\n"
               "#endif  // SCIDB_GRID_A_H_\n");
  WriteFixture(tmp / "src/grid/a.cc",
               "void A::Lift(B* b) {\n"
               "  MutexLock la(amu_);\n"
               "  b->GrabB();\n"
               "}\n"
               "void A::GrabA() { MutexLock l(amu_); }\n"
               "void B::Drop(A* a) {\n"
               "  MutexLock lb(bmu_);\n"
               "  a->GrabA();\n"
               "}\n"
               "void B::GrabB() { MutexLock l(bmu_); }\n");

  RunResult r = RunBinary("--root " + tmp.string() + " " +
                          (tmp / "src/grid/a.h").string() + " " +
                          (tmp / "src/grid/a.cc").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-order]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(
                "lock-order cycle: `A::amu_` -> `B::bmu_` -> `A::amu_`"),
            std::string::npos)
      << r.output;
  // The diagnostic anchors at the first edge of the rotated cycle...
  EXPECT_NE(r.output.find("src/grid/a.cc:3: [lock-order]"),
            std::string::npos)
      << r.output;
  // ...and the witness walks both directions through the call graph.
  EXPECT_NE(r.output.find("src/grid/a.cc:3: call to `B::GrabB` in "
                          "`A::Lift` while holding `A::amu_`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/grid/a.cc:10: acquires `B::bmu_`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/grid/a.cc:8: call to `A::GrabA` in "
                          "`B::Drop` while holding `B::bmu_`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/grid/a.cc:5: acquires `A::amu_`"),
            std::string::npos)
      << r.output;

  fs::remove_all(tmp);
}

// Seeds an RPC round trip under a held Mutex and asserts the binary —
// run with the checked-in blocking manifest, whose `RpcClient::Call`
// root is class-qualified — exits 1 naming the call site.
TEST(RegressionGuard, SeededRpcCallUnderLockFails) {
  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "staticcheck_rpclock";
  fs::remove_all(tmp);

  WriteFixture(tmp / "src/net/r.h",
               "#ifndef SCIDB_NET_R_H_\n"
               "#define SCIDB_NET_R_H_\n"
               "\n"
               "class RpcClient {\n"
               " public:\n"
               "  int Call(int x) { return x + fd_; }\n"
               "\n"
               " private:\n"
               "  int fd_ = 0;\n"
               "};\n"
               "\n"
               "#endif  // SCIDB_NET_R_H_\n");
  WriteFixture(tmp / "src/grid/svc.cc",
               "class Svc {\n"
               " public:\n"
               "  int Push() {\n"
               "    MutexLock l(mu_);\n"
               "    return rpc_->Call(7);\n"
               "  }\n"
               "\n"
               " private:\n"
               "  RpcClient* rpc_ GUARDED_BY(mu_);\n"
               "  mutable Mutex mu_;\n"
               "};\n");

  std::string manifest =
      std::string(SCIDB_SOURCE_ROOT) + "/tools/staticcheck/blocking.manifest";
  RunResult r = RunBinary("--root " + tmp.string() + " --blocking " +
                          manifest + " " +
                          (tmp / "src/net/r.h").string() + " " +
                          (tmp / "src/grid/svc.cc").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("src/grid/svc.cc:5: [blocking-under-lock] "
                          "call to blocking `Call` in `Svc::Push` while "
                          "holding `Svc::mu_`"),
            std::string::npos)
      << r.output;

  fs::remove_all(tmp);
}

// A stale baseline entry is a note by default but must flip the exit
// code under --baseline-strict — the CI/ctest configuration.
TEST(RegressionGuard, BaselineStrictFailsOnStaleEntries) {
  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "staticcheck_stale";
  fs::remove_all(tmp);

  WriteFixture(tmp / "src/common/ok.h",
               "#ifndef SCIDB_COMMON_OK_H_\n"
               "#define SCIDB_COMMON_OK_H_\n"
               "\n"
               "inline int Twice(int x) { return x * 2; }\n"
               "\n"
               "#endif  // SCIDB_COMMON_OK_H_\n");
  WriteFixture(tmp / "baseline",
               "no-throw|src/common/ok.h|library code must not throw\n");

  std::string common = "--root " + tmp.string() + " --baseline " +
                       (tmp / "baseline").string() + " " +
                       (tmp / "src/common/ok.h").string();
  RunResult lax = RunBinary(common);
  EXPECT_EQ(lax.exit_code, 0) << lax.output;
  EXPECT_NE(lax.output.find("stale"), std::string::npos) << lax.output;

  RunResult strict = RunBinary(common + " --baseline-strict");
  EXPECT_EQ(strict.exit_code, 1) << strict.output;
  EXPECT_NE(strict.output.find("stale baseline entry"), std::string::npos)
      << strict.output;

  fs::remove_all(tmp);
}

// The self-documentation surface: --list-checks names every check and
// --explain gives rationale + example (the same prose SARIF embeds).
TEST(RegressionGuard, ListChecksAndExplainDocumentEveryCheck) {
  RunResult list = RunBinary("--list-checks");
  EXPECT_EQ(list.exit_code, 0) << list.output;
  for (const auto& c : AllChecks()) {
    EXPECT_NE(list.output.find(c.id), std::string::npos) << c.id;
  }

  RunResult exp = RunBinary("--explain lock-order");
  EXPECT_EQ(exp.exit_code, 0) << exp.output;
  EXPECT_NE(exp.output.find("lock-order:"), std::string::npos)
      << exp.output;
  EXPECT_NE(exp.output.find("Example: "), std::string::npos) << exp.output;

  RunResult unknown = RunBinary("--explain not-a-check");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
}

// The real tree must be clean under the checked-in manifests — the same
// invocation the `staticcheck` ctest entry and CI run, including the
// blocking manifest and strict baseline mode.
TEST(RegressionGuard, CheckedInTreeIsClean) {
  std::string root = SCIDB_SOURCE_ROOT;
  std::string sc = root + "/tools/staticcheck";
  RunResult r = RunBinary("--root " + root + " --manifest " + sc +
                          "/layering.manifest --protocol " + sc +
                          "/protocol.manifest --baseline " + sc +
                          "/baseline --blocking " + sc +
                          "/blocking.manifest --baseline-strict");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

#endif  // SCIDB_STATICCHECK_BIN

}  // namespace
}  // namespace staticcheck
