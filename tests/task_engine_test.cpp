// Tests for the task engine behind jobs, transfers and SRM staging:
// cancel, owner checks, purge, wait timeouts and teardown, each pinned
// with a step that blocks on a latch so the task states are exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "db/store.hpp"
#include "task/engine.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::task {
namespace {

const Kind kKind{.table = "tasks", .noun = "task"};
const std::string kOwner = "/O=g/CN=Owner";

Record owned_by(const std::string& owner) {
  Record record;
  record.owner = owner;
  return record;
}

/// A step that reports it started, then blocks until `release` opens.
struct Gate {
  std::latch started{1};
  std::latch release{1};
  std::atomic<bool> opened{false};

  void open() {
    if (!opened.exchange(true)) release.count_down();
  }

  Step step() {
    return [this](Record&) {
      started.count_down();
      release.wait();
      return true;
    };
  }
};

/// Engine of one thread whose only thread is held by a gated task.
struct BusyEngine : ::testing::Test {
  db::Store store;
  Gate gate;
  std::unique_ptr<Engine> engine = std::make_unique<Engine>(store, 1);
  std::string running;

  BusyEngine() {
    running = engine->submit(kKind, owned_by(kOwner), gate.step());
    gate.started.wait();
  }
  ~BusyEngine() override { gate.open(); }
};

TEST_F(BusyEngine, CancelledWhileQueuedNeverRunsAndDropsItsStepAtOnce) {
  auto credential = std::make_shared<int>(42);
  std::weak_ptr<int> watch = credential;
  std::atomic<bool> ran{false};
  std::string queued = engine->submit(
      kKind, owned_by(kOwner), [credential, &ran](Record&) {
        ran = true;
        return true;
      });
  credential.reset();
  EXPECT_FALSE(watch.expired());  // the queued step holds it

  EXPECT_FALSE(engine->cancel(kKind, running, kOwner));  // already started
  EXPECT_TRUE(engine->cancel(kKind, queued, kOwner));
  // Destroyed at cancel, while the only worker is still busy.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(engine->get(kKind, queued, kOwner).state, State::Cancelled);

  gate.open();
  EXPECT_EQ(engine->wait(kKind, running, kOwner, 5000).state, State::Done);
  engine.reset();  // joins the pool: every popped task has been looked at
  EXPECT_FALSE(ran);
}

TEST_F(BusyEngine, WaitByNonOwnerThrowsAtOnce) {
  auto begin = std::chrono::steady_clock::now();
  EXPECT_THROW(engine->wait(kKind, running, "/O=g/CN=Mallory", 10000),
               AccessError);
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(5));
  EXPECT_THROW(engine->get(kKind, running, "/O=g/CN=Mallory"), AccessError);
  EXPECT_THROW(engine->wait(kKind, "no-such-task", kOwner, 10), NotFoundError);
}

TEST_F(BusyEngine, PurgeOfUnfinishedTaskIsRefused) {
  std::string queued =
      engine->submit(kKind, owned_by(kOwner), [](Record&) { return true; });
  EXPECT_THROW(engine->purge(kKind, running, kOwner), Error);
  EXPECT_THROW(engine->purge(kKind, queued, kOwner), Error);

  gate.open();
  engine->wait(kKind, queued, kOwner, 5000);
  engine->purge(kKind, queued, kOwner);
  EXPECT_THROW(engine->get(kKind, queued, kOwner), NotFoundError);
}

TEST_F(BusyEngine, WaitThatRunsOutOfTimeThrowsSystemError) {
  EXPECT_THROW(engine->wait(kKind, running, kOwner, 50), SystemError);
  EXPECT_EQ(engine->get(kKind, running, kOwner).state, State::Running);
}

TEST_F(BusyEngine, DestructionWithQueuedTasksReturnsOnceRunningStepsEnd) {
  std::atomic<bool> ran{false};
  std::string queued = engine->submit(kKind, owned_by(kOwner), [&ran](Record&) {
    ran = true;
    return true;
  });
  std::atomic<bool> destroyed{false};
  util::Thread destroyer([&] {
    engine.reset();
    destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(destroyed);  // the running step still holds the pool
  gate.open();
  destroyer.join();
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(ran);

  // The running task finished; the queued one stays QUEUED in the store
  // for the next engine's restart rule.
  Engine next(store, 1);
  EXPECT_EQ(next.get(kKind, running, kOwner).state, State::Done);
  EXPECT_EQ(next.get(kKind, queued, kOwner).state, State::Queued);
}

TEST(TaskEngine, StepResultAndExceptionSetTheFinalState) {
  db::Store store;
  Engine engine(store, 2);
  std::string ok = engine.submit(kKind, owned_by(kOwner), [](Record& r) {
    r.fields.set("answer", std::int64_t{42});
    return true;
  });
  std::string no = engine.submit(kKind, owned_by(kOwner), [](Record& r) {
    r.error = "declined";
    return false;
  });
  std::string boom = engine.submit(kKind, owned_by(kOwner), [](Record&) -> bool {
    throw std::runtime_error("step blew up");
  });

  Record done = engine.wait(kKind, ok, kOwner, 5000);
  EXPECT_EQ(done.state, State::Done);
  EXPECT_EQ(done.fields.at("answer").as_int(), 42);
  EXPECT_GE(done.finished, done.submitted);
  Record declined = engine.wait(kKind, no, kOwner, 5000);
  EXPECT_EQ(declined.state, State::Failed);
  EXPECT_EQ(declined.error, "declined");
  Record failed = engine.wait(kKind, boom, kOwner, 5000);
  EXPECT_EQ(failed.state, State::Failed);
  EXPECT_EQ(failed.error, "step blew up");
  EXPECT_EQ(engine.list(kKind, kOwner).size(), 3u);
  EXPECT_TRUE(engine.list(kKind, "/O=g/CN=Other").empty());
}

}  // namespace
}  // namespace clarens::task
