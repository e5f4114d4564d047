// Tests for tools/gadget_lint: each rule fires on a bad snippet and stays
// quiet on the idiomatic one, the allowlist suppresses, RunLint's exit codes
// match the CLI contract, and — the meta-test — the real source tree is
// lint-clean under the checked-in allowlist.
#include "tools/gadget_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gadget {
namespace lint {
namespace {

bool HasRule(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --------------------------------------------------------------- stripping

TEST(StripTest, RemovesCommentsAndStringsButKeepsLines) {
  std::string out = StripCommentsAndStrings(
      "int a; // rand()\n"
      "/* strcpy(\n"
      "   two lines */ int b;\n"
      "const char* s = \"system(\\\"x\\\")\";\n"
      "char c = '\"';\n");
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("strcpy"), std::string::npos);
  EXPECT_EQ(out.find("system"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripTest, HandlesRawStrings) {
  std::string out = StripCommentsAndStrings("auto s = R\"(system(\"x\") \" unterminated)\";\nint a;\n");
  EXPECT_EQ(out.find("system"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
}

// ----------------------------------------------------------- include-guard

TEST(IncludeGuardTest, ExpectedGuardDropsSrcPrefixAndUppercases) {
  EXPECT_EQ(ExpectedIncludeGuard("src/stores/lsm/lsm_store.h"), "GADGET_STORES_LSM_LSM_STORE_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tools/gadget_lint.h"), "GADGET_TOOLS_GADGET_LINT_H_");
  EXPECT_EQ(ExpectedIncludeGuard("/abs/repo/src/common/status.h"), "GADGET_COMMON_STATUS_H_");
}

TEST(IncludeGuardTest, AcceptsCorrectGuard) {
  auto findings = LintContent("src/foo/bar.h",
                              "#ifndef GADGET_FOO_BAR_H_\n"
                              "#define GADGET_FOO_BAR_H_\n"
                              "#endif  // GADGET_FOO_BAR_H_\n");
  EXPECT_FALSE(HasRule(findings, "include-guard")) << FormatFinding(findings.front());
}

TEST(IncludeGuardTest, FlagsWrongName) {
  auto findings = LintContent("src/foo/bar.h",
                              "#ifndef FOO_BAR_H\n"
                              "#define FOO_BAR_H\n"
                              "#endif\n");
  ASSERT_TRUE(HasRule(findings, "include-guard"));
  EXPECT_NE(findings.front().message.find("GADGET_FOO_BAR_H_"), std::string::npos);
}

TEST(IncludeGuardTest, FlagsMissingGuardAndMissingDefine) {
  EXPECT_TRUE(HasRule(LintContent("src/a.h", "int x;\n"), "include-guard"));
  EXPECT_TRUE(HasRule(LintContent("src/a.h", "#ifndef GADGET_A_H_\nint x;\n#endif\n"),
                      "include-guard"));
}

TEST(IncludeGuardTest, NotAppliedToSourceFiles) {
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "int x;\n"), "include-guard"));
}

// --------------------------------------------------------- locked-requires

TEST(LockedRequiresTest, FlagsUnannotatedDeclaration) {
  auto findings = LintContent("src/foo.h",
                              "#ifndef GADGET_FOO_H_\n"
                              "#define GADGET_FOO_H_\n"
                              "class C {\n"
                              "  void EvictLocked();\n"
                              "};\n"
                              "#endif\n");
  ASSERT_TRUE(HasRule(findings, "locked-requires"));
  EXPECT_EQ(findings.front().line, 4);
}

TEST(LockedRequiresTest, AcceptsRequiresIncludingMultiLine) {
  auto findings = LintContent("src/foo.h",
                              "#ifndef GADGET_FOO_H_\n"
                              "#define GADGET_FOO_H_\n"
                              "class C {\n"
                              "  void EvictLocked() REQUIRES(mu_);\n"
                              "  int CountLocked(int a,\n"
                              "                  int b) const REQUIRES_SHARED(mu_);\n"
                              "  void HackLocked() NO_THREAD_SAFETY_ANALYSIS;\n"
                              "};\n"
                              "#endif\n");
  EXPECT_FALSE(HasRule(findings, "locked-requires")) << FormatFinding(findings.front());
}

TEST(LockedRequiresTest, IgnoresCallsAndSourceFiles) {
  // Calls inside inline header bodies are uses, not declarations.
  auto findings = LintContent("src/foo.h",
                              "#ifndef GADGET_FOO_H_\n"
                              "#define GADGET_FOO_H_\n"
                              "class C {\n"
                              "  void DrainLocked() REQUIRES(mu_);\n"
                              "  void Drain() { return DrainLocked(); }\n"
                              "  bool F() { return !EmptyLocked() && x_.CheckLocked(); }\n"
                              "};\n"
                              "#endif\n");
  EXPECT_FALSE(HasRule(findings, "locked-requires")) << FormatFinding(findings.front());
  // Out-of-line definitions in .cc files do not repeat the annotation.
  EXPECT_FALSE(HasRule(LintContent("src/foo.cc", "void C::EvictLocked() { work(); }\n"),
                       "locked-requires"));
}

// ------------------------------------------------------------- banned-call

TEST(BannedCallTest, FlagsEachBannedFunction) {
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "int x = rand();\n"), "banned-call"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "strcpy(dst, src);\n"), "banned-call"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "sprintf(buf, \"%d\", 1);\n"), "banned-call"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "system(\"rm -rf /\");\n"), "banned-call"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "char* p = new char[64];\n"), "banned-call"));
}

TEST(BannedCallTest, IgnoresLookalikesCommentsAndStrings) {
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "srand(7); grand(); rando();\n"), "banned-call"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "snprintf(buf, n, \"%d\", 1);\n"), "banned-call"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "// rand() is banned\n"), "banned-call"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "log(\"do not call system()\");\n"), "banned-call"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "auto v = std::make_unique<char[]>(n);\n"),
                       "banned-call"));
}

// ----------------------------------------------------- using-namespace-std

TEST(UsingNamespaceTest, FlagsHeadersOnly) {
  EXPECT_TRUE(HasRule(LintContent("src/a.h",
                                  "#ifndef GADGET_A_H_\n#define GADGET_A_H_\n"
                                  "using namespace std;\n#endif\n"),
                      "using-namespace-std"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "using namespace std;\n"), "using-namespace-std"));
  EXPECT_FALSE(HasRule(LintContent("src/a.h",
                                   "#ifndef GADGET_A_H_\n#define GADGET_A_H_\n"
                                   "using std::string;\n#endif\n"),
                       "using-namespace-std"));
}

// ------------------------------------------------------------- void-status

TEST(VoidStatusTest, FlagsUnjustifiedDiscardedCall) {
  auto findings = LintContent("src/a.cc", "void f() { (void)store->Close(); }\n");
  ASSERT_TRUE(HasRule(findings, "void-status"));
  EXPECT_EQ(findings.front().line, 1);
}

TEST(VoidStatusTest, AcceptsJustificationWithinThreeLines) {
  EXPECT_FALSE(HasRule(LintContent("src/a.cc",
                                   "// status intentionally ignored: destructor.\n"
                                   "(void)Close();\n"),
                       "void-status"));
  // A two-line comment plus a preceding discard still keeps the phrase in
  // the three-line window.
  EXPECT_FALSE(HasRule(LintContent("src/a.cc",
                                   "// status intentionally ignored: this test\n"
                                   "// asserts on counters only.\n"
                                   "(void)store->Get(key, &v);\n"
                                   "(void)store->Delete(key);\n"),
                       "void-status"));
}

TEST(VoidStatusTest, IgnoresVariableSilencing) {
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "(void)unused_variable;\n"), "void-status"));
}

// ------------------------------------------------------------- rename-sync

TEST(RenameSyncTest, FlagsRenameWithoutDirectorySync) {
  auto findings =
      LintContent("src/a.cc", "Status Save() {\n  return RenameFile(tmp, path);\n}\n");
  ASSERT_TRUE(HasRule(findings, "rename-sync"));
  EXPECT_EQ(findings.front().line, 2);
}

TEST(RenameSyncTest, AcceptsRenameFollowedBySyncDir) {
  EXPECT_FALSE(HasRule(LintContent("src/a.cc",
                                   "Status Save() {\n"
                                   "  GADGET_RETURN_IF_ERROR(RenameFile(tmp, path));\n"
                                   "  // several lines of explanation may sit\n"
                                   "  // between the rename and the sync\n"
                                   "  return SyncDir(dir);\n"
                                   "}\n"),
                       "rename-sync"));
}

TEST(RenameSyncTest, IgnoresDeclarationAndDefinition) {
  EXPECT_FALSE(HasRule(LintContent("src/file_util.h",
                                   "#ifndef GADGET_FILE_UTIL_H_\n#define GADGET_FILE_UTIL_H_\n"
                                   "Status RenameFile(const std::string& f, const std::string& t);\n"
                                   "#endif\n"),
                       "rename-sync"));
  EXPECT_FALSE(HasRule(LintContent("src/file_util.cc",
                                   "Status RenameFile(const std::string& f, const std::string& t) {\n"
                                   "  return DoRename(f, t);\n"
                                   "}\n"),
                       "rename-sync"));
}

// -------------------------------------------------------- bufferpool-bypass

TEST(BufferPoolBypassTest, FlagsBlockCacheAndRawPread) {
  EXPECT_TRUE(
      HasRule(LintContent("src/stores/lsm/a.cc", "BlockCache cache(1 << 20);\n"),
              "bufferpool-bypass"));
  auto findings = LintContent("src/stores/lsm/a.cc",
                              "ssize_t r = ::pread(fd, buf, n, off);\n");
  ASSERT_TRUE(HasRule(findings, "bufferpool-bypass"));
  EXPECT_EQ(findings.front().line, 1);
  EXPECT_TRUE(HasRule(LintContent("src/x.cc", "if (pread(fd, p, n, o) < 0) {}\n"),
                      "bufferpool-bypass"));
  EXPECT_TRUE(HasRule(LintContent("src/x.cc", "pread64(fd, p, n, o);\n"),
                      "bufferpool-bypass"));
}

TEST(BufferPoolBypassTest, ExemptsPoolImplementationAndLookalikes) {
  EXPECT_FALSE(HasRule(LintContent("src/stores/bufferpool/io_backend.cc",
                                   "::pread(fd, buf, n, off);\nBlockCache x;\n"),
                       "bufferpool-bypass"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "PreadFully(fd, buf, n, off);\n"),
                       "bufferpool-bypass"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "// pread() is banned here\n"),
                       "bufferpool-bypass"));
  EXPECT_FALSE(
      HasRule(LintContent("src/a.cc", "int my_pread(int fd);\n"), "bufferpool-bypass"));
}

// --------------------------------------------------------------- raw-socket

TEST(RawSocketTest, FlagsSyscallsOutsideNetDir) {
  auto findings =
      LintContent("src/server/server.cc", "int fd = socket(AF_INET, SOCK_STREAM, 0);\n");
  ASSERT_TRUE(HasRule(findings, "raw-socket"));
  EXPECT_EQ(findings.front().line, 1);
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "send(fd, buf, n, 0);\n"), "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "ssize_t r = ::recv(fd, p, n, 0);\n"),
                      "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "sendmsg(fd, &msg, 0);\n"), "raw-socket"));
  EXPECT_TRUE(
      HasRule(LintContent("src/a.cc", "recvfrom(fd, p, n, 0, a, l);\n"), "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "writev(fd, iov, cnt);\n"), "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "ssize_t r = ::writev(fd, iov, 2);\n"),
                      "raw-socket"));
}

TEST(RawSocketTest, FlagsUringSocketOpcodesOutsideNetDir) {
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "sqe->opcode = IORING_OP_RECV;\n"),
                      "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "sqe->opcode = IORING_OP_SENDMSG;\n"),
                      "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "sqe->opcode = IORING_OP_SEND;\n"),
                      "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "op = IORING_OP_RECVMSG;\n"), "raw-socket"));
  EXPECT_TRUE(HasRule(LintContent("src/a.cc", "op = IORING_OP_WRITEV;\n"), "raw-socket"));
  // Socket opcodes are sanctioned in the net dir.
  EXPECT_FALSE(HasRule(LintContent("src/server/net/socket.cc",
                                   "sqe->opcode = IORING_OP_RECV;\n"),
                       "raw-socket"));
  // File-I/O opcodes are not socket I/O.
  EXPECT_FALSE(HasRule(LintContent("src/stores/bufferpool/io_backend.cc",
                                   "sqe->opcode = IORING_OP_READ;\n"),
                       "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "op = IORING_OP_WRITE;\n"), "raw-socket"));
}

TEST(RawSocketTest, ExemptsNetDirHelpersAndLookalikes) {
  EXPECT_FALSE(HasRule(LintContent("src/server/net/socket.cc",
                                   "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
                                   "send(fd, buf, n, 0);\nrecv(fd, p, n, 0);\n"),
                       "raw-socket"));
  // Method calls and project helpers must not fire.
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "conn->Send(frame);\n"), "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "lease.conn()->Send(frame);\n"), "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "net::SendAll(fd, data);\n"), "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "RecvChunk(fd, &buf, n, &err);\n"),
                       "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "my_send(fd); resend(x); wire::recv_ops++;\n"),
                       "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "net::WritevNonBlocking(fd, iov, n, &e);\n"),
                       "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "stats.frames_per_writev_max = 4;\n"),
                       "raw-socket"));
  EXPECT_FALSE(HasRule(LintContent("src/a.cc", "// send() is banned here\n"), "raw-socket"));
}

// --------------------------------------------------------------- lock-order

// Two classes with uniquely named locks; file A nests beta under alpha, file
// B nests alpha under beta. The global graph has the cycle even though each
// translation unit is individually consistent — exactly what per-file lint
// can never see.
TEST(LockOrderTest, FlagsCrossFileCycle) {
  std::vector<SourceFile> files = {
      {"src/a.cc",
       "class AlphaHolder {\n"
       " public:\n"
       "  void Poke(BetaHolder* other) {\n"
       "    MutexLock a(&alpha_mu_);\n"
       "    MutexLock b(&other->beta_mu_);\n"
       "  }\n"
       "  Mutex alpha_mu_;\n"
       "};\n"},
      {"src/b.cc",
       "class BetaHolder {\n"
       " public:\n"
       "  void Poke(AlphaHolder* other) {\n"
       "    MutexLock b(&beta_mu_);\n"
       "    MutexLock a(&other->alpha_mu_);\n"
       "  }\n"
       "  Mutex beta_mu_;\n"
       "};\n"},
  };
  auto findings = AnalyzeTree(files);
  ASSERT_TRUE(HasRule(findings, "lock-order")) << findings.size();
  EXPECT_NE(findings.front().message.find("alpha_mu_"), std::string::npos)
      << findings.front().message;
  EXPECT_NE(findings.front().message.find("beta_mu_"), std::string::npos);
}

TEST(LockOrderTest, AcceptsConsistentOrderAcrossFiles) {
  std::vector<SourceFile> files = {
      {"src/a.cc",
       "class AlphaHolder {\n"
       "  void Poke(BetaHolder* o) { MutexLock a(&alpha_mu_); MutexLock b(&o->beta_mu_); }\n"
       "  Mutex alpha_mu_;\n"
       "};\n"},
      {"src/b.cc",
       "class BetaHolder {\n"
       "  void Poke(AlphaHolder* o) { MutexLock a(&o->alpha_mu_); MutexLock b(&beta_mu_); }\n"
       "  Mutex beta_mu_;\n"
       "};\n"},
  };
  EXPECT_FALSE(HasRule(AnalyzeTree(files), "lock-order"));
}

// A REQUIRES(...) annotation counts as holding the lock for the whole body,
// and the annotation on the header declaration carries to the out-of-line
// definition.
TEST(LockOrderTest, RequiresAnnotationSeedsHeldSet) {
  std::vector<SourceFile> files = {
      {"src/a.cc",
       "class AlphaHolder {\n"
       "  void NestLocked(BetaHolder* o) REQUIRES(alpha_mu_) {\n"
       "    MutexLock b(&o->beta_mu_);\n"
       "  }\n"
       "  Mutex alpha_mu_;\n"
       "};\n"
       "class BetaHolder {\n"
       "  void Nest(AlphaHolder* o) {\n"
       "    MutexLock b(&beta_mu_);\n"
       "    MutexLock a(&o->alpha_mu_);\n"
       "  }\n"
       "  Mutex beta_mu_;\n"
       "};\n"},
  };
  EXPECT_TRUE(HasRule(AnalyzeTree(files), "lock-order"));
}

// Holding a lock while calling a function that takes another lock forms the
// same edge (one level of inlining).
TEST(LockOrderTest, InterproceduralEdgeThroughCall) {
  std::vector<SourceFile> files = {
      {"src/a.cc",
       "class AlphaHolder {\n"
       " public:\n"
       "  void Outer() {\n"
       "    MutexLock a(&alpha_mu_);\n"
       "    GrabBeta();\n"
       "  }\n"
       "  void GrabBeta();\n"
       "  Mutex alpha_mu_;\n"
       "};\n"
       "void AlphaHolder::GrabBeta() { MutexLock b(&g_beta.beta_mu_); }\n"
       "class BetaHolder {\n"
       " public:\n"
       "  void Flip(AlphaHolder* o) {\n"
       "    MutexLock b(&beta_mu_);\n"
       "    MutexLock a(&o->alpha_mu_);\n"
       "  }\n"
       "  Mutex beta_mu_;\n"
       "};\n"},
  };
  EXPECT_TRUE(HasRule(AnalyzeTree(files), "lock-order"));
}

// A member name declared by several classes (`mu` everywhere) cannot be
// attributed; the analyzer must skip it rather than invent edges.
TEST(LockOrderTest, AmbiguousLockNamesNeverFire) {
  std::vector<SourceFile> files = {
      {"src/a.cc",
       "class P { public: void F(Q* q) { MutexLock a(&mu); MutexLock b(&q->mu); }\n"
       "  Mutex mu;\n};\n"
       "class Q { public: void F(P* p) { MutexLock b(&mu); MutexLock a(&p->mu); }\n"
       "  Mutex mu;\n};\n"},
  };
  // `&q->mu` / `&p->mu` resolve to the *enclosing* class (which declares mu)
  // or stay ambiguous — either way no cross-class inversion can be proven.
  EXPECT_FALSE(HasRule(AnalyzeTree(files), "lock-order"));
}

// ---------------------------------------------------------- reactor-blocking

TEST(ReactorBlockingTest, FlagsBlockingCallReachableFromMarkedEntry) {
  std::vector<SourceFile> files = {
      {"src/server/loop.cc",
       "class Loop {\n"
       " public:\n"
       "  void Run();\n"
       "  void Helper();\n"
       "};\n"
       "// gadget:reactor-context\n"
       "void Loop::Run() { Helper(); }\n"
       "void Loop::Helper() { fsync(3); }\n"},
  };
  auto findings = AnalyzeTree(files);
  ASSERT_TRUE(HasRule(findings, "reactor-blocking"));
  EXPECT_EQ(findings.front().line, 8);
  EXPECT_NE(findings.front().message.find("Loop::Run -> Loop::Helper"), std::string::npos)
      << findings.front().message;
}

TEST(ReactorBlockingTest, FlagsSleepAndCondVarWaitDirectlyInEntry) {
  std::vector<SourceFile> files = {
      {"src/server/loop.cc",
       "// gadget:reactor-context\n"
       "void Run() {\n"
       "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
       "  cv.Wait();\n"
       "}\n"},
  };
  auto findings = AnalyzeTree(files);
  int hits = 0;
  for (const auto& f : findings) {
    hits += f.rule == "reactor-blocking" ? 1 : 0;
  }
  EXPECT_EQ(hits, 2);
}

TEST(ReactorBlockingTest, BlockingOkCommentSuppresses) {
  std::vector<SourceFile> files = {
      {"src/server/loop.cc",
       "// gadget:reactor-context\n"
       "void Run() {\n"
       "  // gadget:blocking-ok: startup only, before the loop goes live.\n"
       "  fsync(3);\n"
       "}\n"},
  };
  EXPECT_FALSE(HasRule(AnalyzeTree(files), "reactor-blocking"));
}

TEST(ReactorBlockingTest, UnmarkedAndUnreachableFunctionsStayQuiet) {
  std::vector<SourceFile> files = {
      // No marker at all: nothing is an entry point.
      {"src/server/a.cc", "void Run() { fsync(3); }\n"},
      // Marker, but the blocking call sits in a function the entry never
      // reaches (a worker loop beside the reactor).
      {"src/server/b.cc",
       "// gadget:reactor-context\n"
       "void Reactor() { Poll(); }\n"
       "void Poll() {}\n"
       "void Worker() { cv.Wait(); }\n"},
  };
  EXPECT_FALSE(HasRule(AnalyzeTree(files), "reactor-blocking"));
}

// --------------------------------------------------------------- allowlist

TEST(AllowlistTest, SuppressesByRuleAndPathSuffix) {
  Allowlist list = Allowlist::Parse(
      "# comment\n"
      "\n"
      "banned-call src/legacy.cc\n"
      "void-status *\n");
  EXPECT_TRUE(list.Allows("third_party/src/legacy.cc", "banned-call"));
  EXPECT_FALSE(list.Allows("src/other.cc", "banned-call"));
  EXPECT_FALSE(list.Allows("src/legacy.cc", "include-guard"));
  EXPECT_TRUE(list.Allows("anything/at/all.h", "void-status"));
}

TEST(AllowlistTest, TracksUnusedEntriesWithLineNumbers) {
  Allowlist list = Allowlist::Parse(
      "# header comment\n"
      "banned-call src/legacy.cc\n"
      "rename-sync src/never_matches.cc\n");
  EXPECT_TRUE(list.Allows("src/legacy.cc", "banned-call"));
  auto stale = list.UnusedEntries();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "rename-sync");
  EXPECT_EQ(stale[0].path_suffix, "src/never_matches.cc");
  EXPECT_EQ(stale[0].line, 3);
}

// ------------------------------------------------------ RunLint exit codes

TEST(RunLintTest, ExitCodesMatchCliContract) {
  const std::string dir = ::testing::TempDir() + "/lint_exit";
  std::filesystem::remove_all(dir);  // leftovers from a previous run
  std::filesystem::create_directories(dir);
  std::ostringstream out, err;
  // No source files -> usage error (2).
  EXPECT_EQ(RunLint({dir}, "", out, err), 2);
  // A clean file -> 0.
  {
    std::ofstream f(dir + "/clean.cc");
    f << "int main() { return 0; }\n";
  }
  EXPECT_EQ(RunLint({dir}, "", out, err), 0);
  // A dirty file -> 1, and the finding is printed file:line: rule-id: ...
  {
    std::ofstream f(dir + "/dirty.cc");
    f << "int x = rand();\n";
  }
  out.str("");
  EXPECT_EQ(RunLint({dir}, "", out, err), 1);
  EXPECT_NE(out.str().find("dirty.cc:1: banned-call:"), std::string::npos) << out.str();
  // The allowlist turns the same scan clean again -> 0.
  const std::string allow = dir + "/allow.txt";
  {
    std::ofstream f(allow);
    f << "banned-call dirty.cc\n";
  }
  EXPECT_EQ(RunLint({dir}, allow, out, err), 0);
  // A stale entry (nothing left to suppress) flips the scan back to 1: dead
  // allowlist lines would silently swallow the next real regression.
  {
    std::ofstream f(allow);
    f << "banned-call dirty.cc\n"
      << "rename-sync gone_forever.cc\n";
  }
  out.str("");
  EXPECT_EQ(RunLint({dir}, allow, out, err), 1);
  EXPECT_NE(out.str().find("stale-allowlist"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("rename-sync gone_forever.cc"), std::string::npos) << out.str();
  // A missing allowlist file is a usage error (2).
  EXPECT_EQ(RunLint({dir}, dir + "/nope.txt", out, err), 2);
}

// ---------------------------------------------------------------- meta-test

// The real tree must be lint-clean under the checked-in allowlist: this is
// the same scan the static-analysis CI job runs.
TEST(MetaTest, RealSourceTreeIsClean) {
  const std::string root = GADGET_SOURCE_DIR;
  std::ostringstream out, err;
  int rc = RunLint({root + "/src", root + "/tools", root + "/tests"},
                   root + "/tools/lint_allowlist.txt", out, err);
  EXPECT_EQ(rc, 0) << "gadget_lint findings:\n" << out.str() << err.str();
}

}  // namespace
}  // namespace lint
}  // namespace gadget
