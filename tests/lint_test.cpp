// clarens_lint rule engine: every rule exercised with in-memory fixture
// sources, one passing and one failing case per rule, plus the allow()
// escape hatch and the lexer's literal/comment handling.

#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace clarens::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const auto& violation : violations) out.push_back(violation.rule);
  return out;
}

bool has_rule(const std::vector<Violation>& violations,
              const std::string& rule) {
  return std::any_of(
      violations.begin(), violations.end(),
      [&](const Violation& violation) { return violation.rule == rule; });
}

// --- raw-sync ---------------------------------------------------------

TEST(LintRawSync, FlagsRawPrimitives) {
  auto found = lint_content("src/core/x.cpp",
                            "std::mutex m;\n"
                            "std::condition_variable cv;\n"
                            "std::shared_mutex sm;\n"
                            "std::lock_guard<std::mutex> g(m);\n"
                            "std::thread t;\n");
  // lock_guard line carries two tokens (lock_guard + mutex).
  EXPECT_EQ(found.size(), 6u);
  for (const auto& violation : found) EXPECT_EQ(violation.rule, "raw-sync");
}

TEST(LintRawSync, WrapperAndNestedTypesPass) {
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           "util::Mutex m{util::LockLevel::kTaskEngine};\n"
                           "util::Thread t;\n"
                           "std::thread::id tid;\n"
                           "std::thread::hardware_concurrency();\n")
                  .empty());
}

TEST(LintRawSync, SyncHeaderIsExempt) {
  EXPECT_TRUE(
      lint_content("src/util/sync.hpp", "std::mutex impl_;\n").empty());
  // ...but only that file, not the rest of util/ (the thread pool's
  // legacy exemption is gone — it uses the wrappers now).
  EXPECT_TRUE(has_rule(lint_content("src/util/other.hpp", "std::mutex m;\n"),
                       "raw-sync"));
  EXPECT_TRUE(has_rule(
      lint_content("src/util/thread_pool.hpp", "std::thread t;\n"),
      "raw-sync"));
}

TEST(LintRawSync, IgnoresStringsAndComments) {
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           "const char* s = \"std::mutex\";\n"
                           "// std::mutex in prose\n"
                           "/* std::thread t; */\n")
                  .empty());
}

// --- detach -----------------------------------------------------------

TEST(LintDetach, FlagsDetachCalls) {
  EXPECT_TRUE(has_rule(lint_content("src/a.cpp", "t.detach();\n"), "detach"));
  EXPECT_TRUE(
      has_rule(lint_content("src/a.cpp", "worker->detach ();\n"), "detach"));
}

TEST(LintDetach, PlainIdentifierPasses) {
  EXPECT_TRUE(lint_content("src/a.cpp", "bool detach = false;\n").empty());
}

// --- net-blocking -----------------------------------------------------

TEST(LintNetBlocking, FlagsSleepsInNet) {
  auto found = lint_content(
      "src/net/reactor.cpp",
      "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "usleep(100);\n"
      "sleep(1);\n");
  // Every sleep in src/net/ also counts as a blocking wait, so each line
  // carries the net-blocking and reactor-blocking pair.
  EXPECT_EQ(rules_of(found),
            (std::vector<std::string>{"net-blocking", "reactor-blocking",
                                      "net-blocking", "reactor-blocking",
                                      "net-blocking", "reactor-blocking"}));
}

TEST(LintNetBlocking, OutsideNetPasses) {
  EXPECT_TRUE(lint_content("src/storage/mass_storage.cpp",
                           "std::this_thread::sleep_for(ms);\n")
                  .empty());
}

TEST(LintNetBlocking, NonBlockingNetCodePasses) {
  EXPECT_TRUE(lint_content("src/net/reactor.cpp",
                           "int n = epoll_wait(fd, events, 64, timeout);\n")
                  .empty());
}

// --- reactor-blocking -------------------------------------------------

TEST(LintReactorBlocking, FlagsWaitsInTransportLayers) {
  EXPECT_TRUE(has_rule(
      lint_content("src/net/socket.cpp", "wait_writable(-1);\n"),
      "reactor-blocking"));
  EXPECT_TRUE(has_rule(
      lint_content("src/http/server.cpp", "reactor_thread_.join();\n"),
      "reactor-blocking"));
  EXPECT_TRUE(has_rule(
      lint_content("src/tls/channel.cpp", "done_.wait(lock);\n"),
      "reactor-blocking"));
  EXPECT_TRUE(has_rule(
      lint_content("src/http/server.cpp", "pool_->wait_idle();\n"),
      "reactor-blocking"));
}

TEST(LintReactorBlocking, BoundariesAndScopeRespected) {
  // epoll_wait / joinable share substrings with the tokens but are the
  // reactor's bread and butter; identifier boundaries keep them legal.
  EXPECT_TRUE(lint_content("src/net/reactor.cpp",
                           "int n = epoll_wait(fd, events, 64, t);\n"
                           "if (thread_.joinable()) mark();\n")
                  .empty());
  // Outside src/net, src/http, src/tls the rule does not apply: workers
  // and control threads may block.
  EXPECT_TRUE(lint_content("src/core/server.cpp", "reaper_.join();\n")
                  .empty());
}

TEST(LintReactorBlocking, AllowNamesTheBlessedThread) {
  EXPECT_TRUE(
      lint_content("src/net/socket.cpp",
                   "// clarens-lint: allow(reactor-blocking): worker-side "
                   "blocking write.\n"
                   "wait_writable(-1);\n")
          .empty());
}

// --- layering ---------------------------------------------------------

TEST(LintLayering, RpcAndUtilMustNotReachUp) {
  EXPECT_TRUE(has_rule(
      lint_content("src/rpc/x.cpp", "#include \"core/server.hpp\"\n"),
      "layering"));
  EXPECT_TRUE(has_rule(
      lint_content("src/util/x.cpp", "#include \"http/server.hpp\"\n"),
      "layering"));
}

TEST(LintLayering, FederationMustNotReachIntoCore) {
  EXPECT_TRUE(has_rule(
      lint_content("src/federation/router.cpp",
                   "#include \"core/server.hpp\"\n"),
      "layering"));
  // Its sanctioned dependencies pass.
  EXPECT_TRUE(lint_content("src/federation/router.cpp",
                           "#include \"client/peer_pool.hpp\"\n"
                           "#include \"discovery/discovery_server.hpp\"\n"
                           "#include \"rpc/value.hpp\"\n")
                  .empty());
}

TEST(LintLayering, DownwardAndExternalIncludesPass) {
  EXPECT_TRUE(lint_content("src/rpc/x.cpp",
                           "#include \"util/buffer.hpp\"\n"
                           "#include <string>\n")
                  .empty());
  // core/ may include anything.
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           "#include \"http/server.hpp\"\n"
                           "#include \"core/acl.hpp\"\n")
                  .empty());
}

// --- raw-new ----------------------------------------------------------

TEST(LintRawNew, FlagsNewAndDelete) {
  EXPECT_TRUE(
      has_rule(lint_content("src/a.cpp", "auto* p = new Foo();\n"), "raw-new"));
  EXPECT_TRUE(has_rule(lint_content("src/a.cpp", "delete p;\n"), "raw-new"));
}

TEST(LintRawNew, PlacementDeletedAndOperatorPass) {
  EXPECT_TRUE(lint_content("src/a.cpp",
                           "new (arena) Foo();\n"
                           "Foo(const Foo&) = delete;\n"
                           "void* operator new(std::size_t);\n"
                           "void operator delete(void*) noexcept;\n"
                           "sessions_.renew(id, extra);\n")
                  .empty());
}

// --- lock-order -------------------------------------------------------

TEST(LintLockOrder, DeclaredEdgePasses) {
  EXPECT_TRUE(
      lint_content("src/core/x.cpp", "// lock-order: task.engine -> db.store.shard\n")
          .empty());
}

TEST(LintLockOrder, InvertedEdgeFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.cpp", "// lock-order: db.store.shard -> task.engine\n"),
      "lock-order"));
}

TEST(LintLockOrder, SameRankFlagged) {
  // Two level-20 locks: neither may nest inside the other.
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.cpp",
                   "// lock-order: task.engine -> core.shell\n"),
      "lock-order"));
}

TEST(LintLockOrder, UnknownLevelFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.cpp", "// lock-order: task.engine -> bogus\n"),
      "lock-order"));
}

TEST(LintLockOrder, MalformedFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/core/x.cpp",
                                    "// lock-order: task.engine db.store.shard\n"),
                       "lock-order"));
}

TEST(LintLockOrder, ProseMentionIgnored) {
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           "// checked against `// lock-order:` comments\n")
                  .empty());
}

// --- allow escape hatch -----------------------------------------------

TEST(LintAllow, SuppressesOnOwnAndNextLine) {
  EXPECT_TRUE(lint_content("src/a.cpp",
                           "// clarens-lint: allow(raw-new): ctor private.\n"
                           "auto* p = new Foo();\n")
                  .empty());
  EXPECT_TRUE(lint_content("src/a.cpp",
                           "auto* p = new Foo();  "
                           "// clarens-lint: allow(raw-new): ctor private.\n")
                  .empty());
}

TEST(LintAllow, DoesNotLeakPastNextLine) {
  auto found = lint_content("src/a.cpp",
                            "// clarens-lint: allow(raw-new): reason.\n"
                            "int x = 0;\n"
                            "auto* p = new Foo();\n");
  EXPECT_TRUE(has_rule(found, "raw-new"));
}

TEST(LintAllow, OnlyNamedRuleSuppressed) {
  auto found = lint_content("src/a.cpp",
                            "// clarens-lint: allow(raw-new): reason.\n"
                            "std::mutex m;\n");
  EXPECT_TRUE(has_rule(found, "raw-sync"));
}

TEST(LintAllow, MissingJustificationFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/a.cpp", "// clarens-lint: allow(raw-new)\n"),
      "bad-allow"));
}

TEST(LintAllow, UnknownRuleFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/a.cpp", "// clarens-lint: allow(nonsense): x.\n"),
      "bad-allow"));
}

// --- output format ----------------------------------------------------

TEST(LintFormat, FileLineRuleMessage) {
  Violation violation{"src/a.cpp", 12, "raw-new", "bare new"};
  EXPECT_EQ(format(violation), "src/a.cpp:12: raw-new: bare new");
}

TEST(LintHierarchy, JournalIsInnermostDbLock) {
  // The commit-queue lock nests under the memtable shard locks (enqueue
  // runs with the shard write lock held), which in turn nest under every
  // service lock that wraps store calls.
  int shard_rank = -1;
  int journal_rank = -1;
  for (const auto& [level, rank] : lock_hierarchy()) {
    if (level == "db.store.shard") shard_rank = rank;
    if (level == "db.store.journal") journal_rank = rank;
  }
  ASSERT_GE(shard_rank, 0);
  ASSERT_GE(journal_rank, 0);
  EXPECT_LT(shard_rank, journal_rank);
  for (const auto& [level, rank] : lock_hierarchy()) {
    if (level.rfind("db.", 0) != 0 && level.rfind("core.", 0) != 0) continue;
    EXPECT_LE(rank, journal_rank) << level << " outranks db.store.journal";
  }
  // Logging is the one global innermost level: loggable under any lock.
  int logging_rank = -1;
  for (const auto& [level, rank] : lock_hierarchy()) {
    if (level == "util.logging") logging_rank = rank;
  }
  ASSERT_GE(logging_rank, 0);
  for (const auto& [level, rank] : lock_hierarchy()) {
    EXPECT_LE(rank, logging_rank) << level << " outranks util.logging";
  }
}

TEST(LintLockOrder, ShardToJournalEdgePasses) {
  EXPECT_TRUE(lint_content("src/db/x.cpp",
                           "// lock-order: db.store.shard -> db.store.journal\n")
                  .empty());
}

TEST(LintLockOrder, SameRankTagAcceptedWhenRanksMatch) {
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           "// lock-order: core.vo.write -> "
                           "core.vo.root_cache (same-rank)\n")
                  .empty());
  // ...and rejected when they differ.
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.cpp",
                   "// lock-order: task.engine -> db.store.shard (same-rank)\n"),
      "lock-order"));
}

// --- undeclared-mutex -------------------------------------------------

TEST(LintUndeclaredMutex, FlagsLevellessDeclarations) {
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.hpp", "util::Mutex mutex_;\n"),
      "undeclared-mutex"));
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.hpp", "mutable util::SharedMutex mutex_{};\n"),
      "undeclared-mutex"));
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.hpp",
                   "util::Mutex m{util::LockLevel::kBogusLevel};\n"),
      "undeclared-mutex"));
}

TEST(LintUndeclaredMutex, RankedDeclarationAndReferencesPass) {
  EXPECT_TRUE(lint_content("src/core/x.hpp",
                           "util::Mutex m{util::LockLevel::kTaskEngine};\n"
                           "mutable util::SharedMutex sm{\n"
                           "    util::LockLevel::kDbStoreShard};\n"
                           "void take(util::Mutex& m);\n"
                           "explicit Guard(util::SharedMutex* m);\n")
                  .empty());
}

// --- derived lock-order edges (nested guard scopes) -------------------

namespace {
constexpr const char* kTwoLevelDecls =
    "util::Mutex job_{util::LockLevel::kTaskEngine};\n"
    "util::Mutex shard_{util::LockLevel::kDbStoreShard};\n"
    "util::Mutex transfer_{util::LockLevel::kCoreShell};\n";
}  // namespace

TEST(LintDerivedEdges, DownwardNestingPasses) {
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           std::string(kTwoLevelDecls) +
                               "void f() {\n"
                               "  util::LockGuard a(job_);\n"
                               "  util::LockGuard b(shard_);\n"
                               "}\n")
                  .empty());
}

TEST(LintDerivedEdges, InvertedNestingFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/core/x.cpp",
                                    std::string(kTwoLevelDecls) +
                                        "void f() {\n"
                                        "  util::LockGuard a(shard_);\n"
                                        "  util::LockGuard b(job_);\n"
                                        "}\n"),
                       "lock-order"));
}

TEST(LintDerivedEdges, SameRankNeedsToken) {
  EXPECT_TRUE(has_rule(lint_content("src/core/x.cpp",
                                    std::string(kTwoLevelDecls) +
                                        "void f() {\n"
                                        "  util::LockGuard a(job_);\n"
                                        "  util::LockGuard b(transfer_);\n"
                                        "}\n"),
                       "lock-order"));
  EXPECT_TRUE(
      lint_content("src/core/x.cpp",
                   std::string(kTwoLevelDecls) +
                       "void f() {\n"
                       "  util::LockGuard a(job_);\n"
                       "  util::LockGuard b(transfer_,\n"
                       "                    util::SameRankToken{\"why\"});\n"
                       "}\n")
          .empty());
}

TEST(LintDerivedEdges, GuardScopeEndsAtBrace) {
  // Sequential guards in sibling scopes are not nested.
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           std::string(kTwoLevelDecls) +
                               "void f() {\n"
                               "  { util::LockGuard a(shard_); }\n"
                               "  { util::LockGuard b(job_); }\n"
                               "}\n")
                  .empty());
}

TEST(LintDerivedEdges, RequiresBodyCountsAsGuardScope) {
  // A CLARENS_REQUIRES function body holds the listed lock throughout,
  // so a guard inside it derives an edge...
  EXPECT_TRUE(has_rule(
      lint_content("src/core/x.cpp",
                   std::string(kTwoLevelDecls) +
                       "void f() CLARENS_REQUIRES(shard_) {\n"
                       "  util::LockGuard b(job_);\n"
                       "}\n"),
      "lock-order"));
  // ...but a prototype holds nothing.
  EXPECT_TRUE(lint_content("src/core/x.cpp",
                           std::string(kTwoLevelDecls) +
                               "void f() CLARENS_REQUIRES(shard_);\n"
                               "void g() { util::LockGuard b(job_); }\n")
                  .empty());
}

TEST(LintDerivedEdges, ResolvesThroughPairedHeader) {
  // Declarations live in the header, guards in the matching .cpp.
  std::vector<SourceFile> files = {
      {"src/core/x.hpp", kTwoLevelDecls},
      {"src/core/x.cpp",
       "void f() {\n"
       "  util::LockGuard a(shard_);\n"
       "  util::LockGuard b(job_);\n"
       "}\n"},
  };
  EXPECT_TRUE(has_rule(lint_sources(files), "lock-order"));
}

// --- held-over-call ---------------------------------------------------

TEST(LintHeldOverCall, BlockingCallUnderGuardFlagged) {
  EXPECT_TRUE(has_rule(lint_content("src/db/x.cpp",
                                    std::string(kTwoLevelDecls) +
                                        "void f() {\n"
                                        "  util::LockGuard g(job_);\n"
                                        "  ::fdatasync(fd_);\n"
                                        "}\n"),
                       "held-over-call"));
  EXPECT_TRUE(has_rule(lint_content("src/client/x.cpp",
                                    std::string(kTwoLevelDecls) +
                                        "void f() {\n"
                                        "  util::LockGuard g(job_);\n"
                                        "  auto r = client.roundtrip(req);\n"
                                        "}\n"),
                       "held-over-call"));
}

TEST(LintHeldOverCall, AfterGuardScopeEndsPasses) {
  EXPECT_TRUE(lint_content("src/db/x.cpp",
                           std::string(kTwoLevelDecls) +
                               "void f() {\n"
                               "  { util::LockGuard g(job_); note(); }\n"
                               "  ::fdatasync(fd_);\n"
                               "}\n")
                  .empty());
}

TEST(LintHeldOverCall, AllowSuppresses) {
  EXPECT_TRUE(
      lint_content("src/db/x.cpp",
                   std::string(kTwoLevelDecls) +
                       "void f() {\n"
                       "  util::LockGuard g(job_);\n"
                       "  // clarens-lint: allow(held-over-call): cold "
                       "shutdown path, no concurrent acquirers\n"
                       "  ::fdatasync(fd_);\n"
                       "}\n")
          .empty());
}

// --- lock-cycle (tree-wide merged graph) ------------------------------

TEST(LintLockCycle, TwoNodeTokenedCycleAcrossFiles) {
  // Each edge carries a SameRankToken, so no per-edge rule fires — but
  // the two files together close a cycle only the global graph sees.
  std::vector<SourceFile> files = {
      {"src/core/a.cpp",
       std::string(kTwoLevelDecls) +
           "void a() {\n"
           "  util::LockGuard g1(job_);\n"
           "  util::LockGuard g2(transfer_, util::SameRankToken{\"a\"});\n"
           "}\n"},
      {"src/core/b.cpp",
       "void b() {\n"
       "  util::LockGuard g1(transfer_);\n"
       "  util::LockGuard g2(job_, util::SameRankToken{\"b\"});\n"
       "}\n"},
  };
  auto found = lint_sources(files);
  EXPECT_TRUE(has_rule(found, "lock-cycle"));
  EXPECT_FALSE(has_rule(found, "lock-order"));
}

TEST(LintLockCycle, ThreeNodeCommentCycleAcrossFiles) {
  // Three declared same-rank edges, each individually legal, that only
  // deadlock in combination.
  std::vector<SourceFile> files = {
      {"src/core/a.cpp",
       "// lock-order: task.engine -> core.shell (same-rank)\n"},
      {"src/core/b.cpp",
       "// lock-order: core.shell -> core.message (same-rank)\n"},
      {"src/core/c.cpp",
       "// lock-order: core.message -> task.engine (same-rank)\n"},
  };
  auto found = lint_sources(files);
  ASSERT_TRUE(has_rule(found, "lock-cycle"));
  for (const auto& violation : found) {
    if (violation.rule != "lock-cycle") continue;
    // The report names the full chain with one site per edge.
    EXPECT_NE(violation.message.find("task.engine"), std::string::npos);
    EXPECT_NE(violation.message.find("core.shell"), std::string::npos);
    EXPECT_NE(violation.message.find("core.message"), std::string::npos);
    EXPECT_NE(violation.message.find("src/core/a.cpp:1"), std::string::npos);
  }
}

TEST(LintLockCycle, AcyclicGraphPasses) {
  std::vector<SourceFile> files = {
      {"src/core/a.cpp", "// lock-order: task.engine -> db.store.shard\n"},
      {"src/core/b.cpp",
       "// lock-order: db.store.shard -> db.store.journal\n"},
  };
  EXPECT_FALSE(has_rule(lint_sources(files), "lock-cycle"));
}

}  // namespace
}  // namespace clarens::lint
