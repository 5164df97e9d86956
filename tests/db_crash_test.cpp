// Crash-recovery proof for the storage engine (ISSUE 7 satellite).
//
// Each test forks a child that mutates a store under load and reports
// every mutation it considers settled over a pipe, then SIGKILLs the
// child at an arbitrary point and recovers the directory in the parent:
//
//   * durable writers (put_durable / erase_durable) report after the ack
//     — every reported record MUST survive recovery, whether the kill
//     landed before a group's fsync, after it, or mid-checkpoint;
//   * async writers report only what a later sync() covered — the same
//     guarantee, at barrier granularity;
//   * the recovered store must itself be consistent: a torn trailing
//     group parses away cleanly and the store accepts new writes.
//
// Pipe writes are single writev-style ::write calls well under PIPE_BUF,
// so lines arrive atomically even though the writer dies mid-flight.
//
// The task engine keeps its records in this store; two tests kill a
// server mid-task and check that each restart rule ends both tasks — one
// RUNNING, one QUEUED — in its declared state.
//
// A final test injects disk-full (RLIMIT_FSIZE, SIGXFSZ ignored) and
// asserts the store surfaces store-unavailable instead of acking writes
// it can no longer journal.
#include <gtest/gtest.h>

#include <limits.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <latch>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/store.hpp"
#include "task/engine.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::db {
namespace {

using clarens::testing::TempDir;

/// Report one settled mutation ("P key" or "E key") atomically.
void report(int fd, char op, const std::string& key) {
  std::string line;
  line.push_back(op);
  line.push_back(' ');
  line += key;
  line.push_back('\n');
  ASSERT_LE(line.size(), static_cast<std::size_t>(PIPE_BUF));
  (void)::write(fd, line.data(), line.size());
}

/// Read until a line reporting `op` has arrived (or EOF), into `all`.
void read_until(int fd, char op, std::string& all) {
  const std::string marker = std::string("\n") + op + ' ';
  char buf[4096];
  ssize_t n;
  while (("\n" + all).find(marker) == std::string::npos &&
         (n = ::read(fd, buf, sizeof(buf))) > 0) {
    all.append(buf, n);
  }
}

/// Drain the read side, after what `all` already holds, into (op, key)
/// pairs. Later reports win.
std::map<std::string, char> drain_reports(int fd, std::string all = {}) {
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) all.append(buf, n);
  std::map<std::string, char> settled;
  std::istringstream in(all);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 3) continue;  // a torn line is impossible, but cheap
    settled[line.substr(2)] = line[0];
  }
  return settled;
}

/// Fork `child`, kill it with SIGKILL after `delay_ms` — or, when `until`
/// is set, as soon as it reports that op — and return its settled
/// reports. The child must never exit on its own (it loops until killed),
/// so a normal exit is a test failure.
std::map<std::string, char> run_and_kill(const std::string& dir,
                                         int delay_ms,
                                         void (*child)(const std::string&,
                                                       int),
                                         char until = 0) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) ADD_FAILURE() << "pipe failed";
  pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    child(dir, pipe_fds[1]);
    _exit(0);  // not reached: children loop until SIGKILLed
  }
  ::close(pipe_fds[1]);
  std::string seen;
  if (until != 0) {
    read_until(pipe_fds[0], until, seen);
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited on its own instead of being killed";
  auto settled = drain_reports(pipe_fds[0], std::move(seen));
  ::close(pipe_fds[0]);
  return settled;
}

void assert_recovered(const std::string& dir,
                      const std::map<std::string, char>& settled) {
  Store store(dir);
  for (const auto& [key, op] : settled) {
    if (op == 'P') {
      EXPECT_TRUE(store.get("t", key).has_value())
          << "durably acked put of '" << key << "' lost after crash";
    } else {
      EXPECT_FALSE(store.get("t", key).has_value())
          << "durably acked erase of '" << key << "' resurrected after crash";
    }
  }
  // The recovered store stays writable (torn tail folded away).
  store.put_durable("t", "post-recovery", "ok");
  EXPECT_EQ(store.get("t", "post-recovery"), "ok");
}

// --- children (run in the forked process; no gtest asserts that throw) --

void durable_writer_child(const std::string& dir, int fd) {
  StoreOptions options;
  options.commit_interval_us = 100;  // small groups: many fsync boundaries
  Store store(dir, options);
  std::vector<util::Thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, fd, t] {
      for (int i = 0;; ++i) {
        std::string key = "w" + std::to_string(t) + "-" + std::to_string(i);
        store.put_durable("t", key, "value-" + key);
        report(fd, 'P', key);  // acked => must survive any later kill
      }
    });
  }
  for (auto& w : writers) w.join();
}

void mixed_durable_child(const std::string& dir, int fd) {
  Store store(dir);
  for (int i = 0;; ++i) {
    std::string key = "k" + std::to_string(i % 64);
    if (i % 3 == 2) {
      if (store.erase_durable("t", key)) report(fd, 'E', key);
    } else {
      store.put_durable("t", key, "gen-" + std::to_string(i));
      report(fd, 'P', key);
    }
  }
}

void sync_barrier_child(const std::string& dir, int fd) {
  // Async puts; only keys covered by a completed sync() are reported.
  Store store(dir);
  int reported = 0;
  for (int i = 0;; ++i) {
    store.put("t", "s" + std::to_string(i), "v");
    if (i % 32 == 31) {
      store.sync();
      for (; reported <= i; ++reported) {
        report(fd, 'P', "s" + std::to_string(reported));
      }
    }
  }
}

void compaction_churn_child(const std::string& dir, int fd) {
  // Tiny compaction threshold so the journal thread checkpoints
  // constantly: kills land before fsync, after fsync, mid-rotation and
  // mid-snapshot-rename at random.
  StoreOptions options;
  options.compact_threshold = 4096;
  Store store(dir, options);
  for (int i = 0;; ++i) {
    std::string key = "c" + std::to_string(i % 128);
    store.put_durable("t", key, std::string(200, 'a' + (i % 26)));
    report(fd, 'P', key);
  }
}

// --- the suite ----------------------------------------------------------

class StoreCrash : public ::testing::TestWithParam<int> {};

TEST_P(StoreCrash, DurableAcksSurviveSigkill) {
  TempDir tmp;
  auto settled = run_and_kill(tmp.path(), GetParam(), durable_writer_child);
  EXPECT_FALSE(settled.empty()) << "child made no progress before the kill";
  assert_recovered(tmp.path(), settled);
}

TEST_P(StoreCrash, MixedPutEraseRecoversLastAckedState) {
  TempDir tmp;
  auto settled = run_and_kill(tmp.path(), GetParam(), mixed_durable_child);
  EXPECT_FALSE(settled.empty());
  // The child is single-threaded, so at most ONE op can have been acked
  // durable without its report reaching the pipe (the kill landed between
  // ack and report). That op may contradict the key's last report — an
  // unreported trailing erase removes a reported put, or vice versa. Any
  // second contradiction is a real durability violation.
  Store store(tmp.path());
  int contradictions = 0;
  std::string detail;
  for (const auto& [key, op] : settled) {
    bool present = store.get("t", key).has_value();
    if (present != (op == 'P')) {
      ++contradictions;
      detail += (op == 'P' ? "acked put of '" : "acked erase of '") + key +
                (present ? "' resurrected; " : "' lost; ");
    }
  }
  EXPECT_LE(contradictions, 1) << detail;
  store.put_durable("t", "post-recovery", "ok");
  EXPECT_EQ(store.get("t", "post-recovery"), "ok");
}

TEST_P(StoreCrash, SyncBarrierCoversEarlierAsyncPuts) {
  TempDir tmp;
  auto settled = run_and_kill(tmp.path(), GetParam(), sync_barrier_child);
  assert_recovered(tmp.path(), settled);
}

TEST_P(StoreCrash, KillDuringCompactionChurn) {
  TempDir tmp;
  auto settled = run_and_kill(tmp.path(), GetParam(), compaction_churn_child);
  EXPECT_FALSE(settled.empty());
  assert_recovered(tmp.path(), settled);
  // Recovery must also have cleaned up checkpoint intermediates.
  EXPECT_FALSE(std::filesystem::exists(tmp.path() + "/snapshot.tmp"));
  EXPECT_FALSE(std::filesystem::exists(tmp.path() + "/journal.old"));
}

// Three delays spread kills across engine states: mid-first-groups,
// steady-state batching, and deep into compaction churn.
INSTANTIATE_TEST_SUITE_P(KillPoints, StoreCrash,
                         ::testing::Values(25, 80, 200));

TEST(StoreCrashRecovery, RecoveredStoreEqualsChildView) {
  // Beyond per-key presence: a second crash immediately after recovery
  // (before any new write) must replay to the identical state — i.e.
  // recovery itself is durable (fold-on-anomaly writes a fresh
  // snapshot).
  TempDir tmp;
  auto settled = run_and_kill(tmp.path(), 120, durable_writer_child);
  std::map<std::string, std::string> first_view;
  {
    Store store(tmp.path());
    for (const auto& key : store.keys("t")) {
      first_view[key] = *store.get("t", key);
    }
  }
  std::map<std::string, std::string> second_view;
  {
    Store store(tmp.path());
    for (const auto& key : store.keys("t")) {
      second_view[key] = *store.get("t", key);
    }
  }
  EXPECT_EQ(first_view, second_view);
  for (const auto& [key, op] : settled) {
    if (op == 'P') {
      EXPECT_TRUE(first_view.count(key));
    }
  }
}

// --- task engine restart -------------------------------------------------

const std::string kTaskOwner = "/O=g/CN=Owner";

task::Kind task_kind(task::Restart restart) {
  return {.table = "tasks",
          .noun = "task",
          .restart = restart,
          .resume = [](const task::Record&) -> task::Step {
            return [](task::Record&) { return true; };
          }};
}

/// One engine thread: the first task's step parks forever, the second
/// task waits behind it. Reports "R id" and "Q id", then — once both
/// records are on disk — "S running".
void task_child(const std::string& dir, int fd) {
  Store store(dir);
  task::Engine engine(store, 1);
  task::Kind kind = task_kind(task::Restart::Fail);
  task::Record record;
  record.owner = kTaskOwner;
  std::latch submitted(1);
  std::string running = engine.submit(kind, record, [&](task::Record&) {
    submitted.wait();
    store.sync();
    report(fd, 'S', "running");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    return true;
  });
  std::string queued =
      engine.submit(kind, record, [](task::Record&) { return true; });
  report(fd, 'R', running);
  report(fd, 'Q', queued);
  submitted.count_down();
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
}

/// Kills a task_child mid-task; returns the ids of its RUNNING and QUEUED
/// tasks, in that order.
std::vector<std::string> kill_mid_task(const std::string& dir) {
  auto settled = run_and_kill(dir, 0, task_child, 'S');
  std::vector<std::string> ids(2);
  for (const auto& [id, op] : settled) {
    if (op == 'R') ids[0] = id;
    if (op == 'Q') ids[1] = id;
  }
  EXPECT_FALSE(ids[0].empty() || ids[1].empty()) << "child reported no tasks";
  return ids;
}

TEST(TaskEngineCrash, RequeueKindRunsRunningAndQueuedTasksToDone) {
  TempDir tmp;
  task::Kind kind = task_kind(task::Restart::Requeue);
  auto ids = kill_mid_task(tmp.path());
  Store store(tmp.path());
  task::Engine engine(store, 2);
  EXPECT_EQ(engine.get(kind, ids[0], kTaskOwner).state, task::State::Running);
  EXPECT_EQ(engine.get(kind, ids[1], kTaskOwner).state, task::State::Queued);
  engine.declare(kind);
  for (const auto& id : ids) {
    EXPECT_EQ(engine.wait(kind, id, kTaskOwner, 5000).state,
              task::State::Done);
  }
}

TEST(TaskEngineCrash, FailKindFailsRunningAndQueuedTasks) {
  TempDir tmp;
  task::Kind kind = task_kind(task::Restart::Fail);
  auto ids = kill_mid_task(tmp.path());
  Store store(tmp.path());
  task::Engine engine(store, 2);
  EXPECT_EQ(engine.get(kind, ids[0], kTaskOwner).state, task::State::Running);
  EXPECT_EQ(engine.get(kind, ids[1], kTaskOwner).state, task::State::Queued);
  engine.declare(kind);
  for (const auto& id : ids) {
    task::Record record = engine.wait(kind, id, kTaskOwner, 5000);
    EXPECT_EQ(record.state, task::State::Failed);
    EXPECT_EQ(record.error, task::kInterrupted);
  }
}

TEST(StoreDiskFull, JournalFailureSurfacesStoreUnavailable) {
  // Satellite: a full disk must not silently ack lost writes. The child
  // caps its file size with RLIMIT_FSIZE (writes past it fail with
  // EFBIG once SIGXFSZ is ignored) and verifies that (a) a durable put
  // eventually throws SystemError and (b) every later mutation throws
  // store-unavailable instead of acking, while reads keep working.
  TempDir tmp;
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit{4096, 4096};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(10);
    // The store lives inside the lambda so its destructor joins the
    // journal thread before _exit (TSan flags unjoined threads at exit).
    int code = [&]() -> int {
      try {
        Store store(tmp.path());
        bool failed = false;
        for (int i = 0; i < 4096 && !failed; ++i) {
          try {
            store.put_durable("t", "k" + std::to_string(i), std::string(64, 'x'));
          } catch (const SystemError&) {
            failed = true;
          }
        }
        if (!failed) return 11;  // the cap was never hit: test is broken
        try {
          store.put("t", "after-failure", "v");
          return 12;  // acked a write the journal cannot persist
        } catch (const SystemError&) {
        }
        try {
          store.put_durable("t", "after-failure2", "v");
          return 13;
        } catch (const SystemError&) {
        }
        // Reads still serve the memtable.
        if (!store.get("t", "k0").has_value()) return 14;
        return 0;
      } catch (...) {
        return 15;
      }
    }();
    _exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status)) << "child crashed";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child exit code " << WEXITSTATUS(status)
                                    << " (see _exit codes in the test)";
}

}  // namespace
}  // namespace clarens::db
