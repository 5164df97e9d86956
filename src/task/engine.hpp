// One task engine for the server's asynchronous services: job execution
// (paper §3), third-party transfer and SRM staging (§6).
//
// A task is a store record plus a step. The engine owns what every kind
// shares: the record's common fields (owner, state, error, submitted,
// finished), owner checks, cancel, purge and wait, and the restart rule
// the kind declares. The step — the kind's own work — runs on the
// engine's util::ThreadPool with no engine lock held. States:
// QUEUED -> RUNNING -> DONE | FAILED; CANCELLED is reachable from QUEUED
// only (a running step is never interrupted).
//
// A queued task's step lives only in the engine's memory. Cancel destroys
// it at once, so whatever it captured (a transfer's delegated proxy) goes
// with it; a restart loses it, which is what a kind's restart rule is for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "db/store.hpp"
#include "rpc/value.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace clarens::task {

enum class State { Queued, Running, Done, Failed, Cancelled };

const char* to_string(State state);

/// One task. Stored as one JSON struct: the common fields plus the
/// members of `fields`, the kind's own.
struct Record {
  std::string id;
  std::string owner;  // DN string; "" for kinds without owners
  State state = State::Queued;
  std::string error;
  std::int64_t submitted = 0;
  std::int64_t finished = 0;  // 0 while not terminal
  rpc::Value fields = rpc::Value::struct_();
};

/// A task's work. Runs on a pool thread with the record in RUNNING, fills
/// in the kind's result fields, and returns true for DONE, false for
/// FAILED. An exception fails the task with its message as the error.
using Step = std::function<bool(Record&)>;

/// What becomes of a task found QUEUED or RUNNING in the store when its
/// kind is declared, i.e. after the server that ran it died.
enum class Restart {
  Requeue,  // the step is rebuilt from the record and runs (again)
  Fail,     // the step held state that was never stored: FAILED, kInterrupted
};

inline constexpr const char* kInterrupted =
    "interrupted by server restart; resubmit";

struct Kind {
  std::string table;  // store table holding this kind's records
  std::string noun;   // names a record in errors: "job", "SRM request"
  Restart restart = Restart::Fail;
  /// Rebuilds the step of a re-queued task; required for Restart::Requeue.
  /// Runs with the engine lock held, so it only builds the closure.
  std::function<Step(const Record&)> resume;
};

class Engine {
 public:
  /// Runs steps on `threads` pool threads over records kept in `store`.
  Engine(db::Store& store, std::size_t threads);
  /// Waits for running steps; queued tasks stay QUEUED in the store.
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Applies `kind`'s restart rule to the records an earlier run left
  /// unfinished in the store. Call once per kind, before its first submit;
  /// a kind over a fresh in-memory store has nothing to recover.
  void declare(const Kind& kind);

  /// Stores `record` as a new QUEUED task and queues `step`; returns the
  /// task id. Only `owner` and `fields` of `record` are read.
  std::string submit(const Kind& kind, Record record, Step step);

  /// The task's record. Throws NotFoundError for an unknown id and
  /// AccessError when `who` is not its owner.
  Record get(const Kind& kind, const std::string& id,
             const std::string& who) const;

  /// Every record of `owner`, newest first.
  std::vector<Record> list(const Kind& kind, const std::string& owner) const;

  /// Cancels a queued task and destroys its step; false once it started.
  bool cancel(const Kind& kind, const std::string& id, const std::string& who);

  /// Deletes a terminal task's record; throws Error for any other state.
  void purge(const Kind& kind, const std::string& id, const std::string& who);

  /// Blocks until the task is terminal. Checks the owner before waiting;
  /// throws SystemError when `timeout_ms` passes first.
  Record wait(const Kind& kind, const std::string& id, const std::string& who,
              int timeout_ms);

  /// Loads, edits and stores one record atomically with respect to every
  /// other engine call. `edit` may throw to leave the record unchanged.
  void update(const Kind& kind, const std::string& id, const std::string& who,
              const std::function<void(Record&)>& edit);

 private:
  void run(const std::string& table, const std::string& id);
  void enqueue(const std::string& table, const std::string& id, Step step)
      CLARENS_REQUIRES(mutex_);
  Record load(const Kind& kind, const std::string& id,
              const std::string& who) const CLARENS_REQUIRES(mutex_);
  void save(const std::string& table, const Record& record)
      CLARENS_REQUIRES(mutex_);

  db::Store& store_;
  /// Held across store reads and writes of records, so every state
  /// transition is atomic: hierarchy `task.engine` -> `db.store.shard`.
  mutable util::Mutex mutex_{util::LockLevel::kTaskEngine};
  util::CondVar state_changed_;
  /// Steps of queued tasks, keyed by table + '/' + id.
  std::map<std::string, Step> steps_ CLARENS_GUARDED_BY(mutex_);
  /// Last member: destroyed first, joining running steps while the rest
  /// of the engine is still alive.
  util::ThreadPool pool_;
};

}  // namespace clarens::task
