#include "task/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "crypto/random.hpp"
#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace clarens::task {

namespace {

State state_from(const std::string& name) {
  for (State state : {State::Queued, State::Running, State::Done,
                      State::Failed, State::Cancelled}) {
    if (name == to_string(state)) return state;
  }
  throw ParseError("unknown task state: '" + name + "'");
}

bool is_common(const std::string& key) {
  return key == "owner" || key == "state" || key == "error" ||
         key == "submitted" || key == "finished";
}

std::string encode(const Record& record) {
  rpc::Value v = record.fields;
  v.set("owner", record.owner);
  v.set("state", std::string(to_string(record.state)));
  v.set("error", record.error);
  v.set("submitted", record.submitted);
  v.set("finished", record.finished);
  return rpc::jsonrpc::serialize_value(v);
}

Record decode(const std::string& id, const std::string& text) {
  rpc::Value v = rpc::jsonrpc::parse_value(text);
  Record record;
  record.id = id;
  record.owner = v.at("owner").as_string();
  record.state = state_from(v.at("state").as_string());
  record.error = v.at("error").as_string();
  record.submitted = v.at("submitted").as_int();
  record.finished = v.at("finished").as_int();
  for (const auto& [key, value] : v.members()) {
    if (!is_common(key)) record.fields.set(key, value);
  }
  return record;
}

bool is_terminal(State state) {
  return state == State::Done || state == State::Failed ||
         state == State::Cancelled;
}

std::string step_key(const std::string& table, const std::string& id) {
  return table + "/" + id;
}

}  // namespace

const char* to_string(State state) {
  switch (state) {
    case State::Queued: return "QUEUED";
    case State::Running: return "RUNNING";
    case State::Done: return "DONE";
    case State::Failed: return "FAILED";
    case State::Cancelled: return "CANCELLED";
  }
  return "?";
}

Engine::Engine(db::Store& store, std::size_t threads)
    : store_(store), pool_(threads) {}

void Engine::save(const std::string& table, const Record& record) {
  store_.put(table, record.id, encode(record));
}

Record Engine::load(const Kind& kind, const std::string& id,
                   const std::string& who) const {
  auto text = store_.get(kind.table, id);
  if (!text) throw NotFoundError("no such " + kind.noun + ": " + id);
  Record record = decode(id, *text);
  if (record.owner != who) {
    throw AccessError(kind.noun + " belongs to a different identity");
  }
  return record;
}

void Engine::enqueue(const std::string& table, const std::string& id,
                     Step step) {
  steps_[step_key(table, id)] = std::move(step);
  pool_.submit([this, table, id] {
    try {
      run(table, id);
    } catch (const std::exception& e) {
      // The store refused a record write (disk full): the task stays in
      // its last stored state and the restart rule settles it.
      CLARENS_LOG(Error) << "task " << table << "/" << id << ": " << e.what();
    }
  });
}

void Engine::declare(const Kind& kind) {
  // lock-order: task.engine -> db.store.shard
  util::LockGuard lock(mutex_);
  for (const auto& id : store_.keys(kind.table)) {
    auto text = store_.get(kind.table, id);
    if (!text) continue;
    Record record = decode(id, *text);
    if (is_terminal(record.state)) continue;
    if (kind.restart == Restart::Requeue) {
      record.state = State::Queued;
      save(kind.table, record);
      enqueue(kind.table, id, kind.resume(record));
    } else {
      record.state = State::Failed;
      record.error = kInterrupted;
      record.finished = util::unix_now();
      save(kind.table, record);
    }
  }
}

std::string Engine::submit(const Kind& kind, Record record, Step step) {
  record.id = crypto::random_token(12);
  record.state = State::Queued;
  record.error.clear();
  record.submitted = util::unix_now();
  record.finished = 0;
  // lock-order: task.engine -> db.store.shard
  util::LockGuard lock(mutex_);
  save(kind.table, record);
  enqueue(kind.table, record.id, std::move(step));
  return record.id;
}

void Engine::run(const std::string& table, const std::string& id) {
  Step step;
  Record record;
  {
    // lock-order: task.engine -> db.store.shard
    util::LockGuard lock(mutex_);
    auto it = steps_.find(step_key(table, id));
    if (it == steps_.end()) return;  // cancelled while queued
    step = std::move(it->second);
    steps_.erase(it);
    auto text = store_.get(table, id);
    if (!text) return;
    record = decode(id, *text);
    record.state = State::Running;
    save(table, record);
  }
  state_changed_.notify_all();

  bool done = false;
  try {
    done = step(record);
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  step = nullptr;  // drop what the step captured before the record lands

  {
    // lock-order: task.engine -> db.store.shard
    util::LockGuard lock(mutex_);
    record.state = done ? State::Done : State::Failed;
    record.finished = util::unix_now();
    save(table, record);
  }
  state_changed_.notify_all();
}

Record Engine::get(const Kind& kind, const std::string& id,
                   const std::string& who) const {
  // lock-order: task.engine -> db.store.shard
  util::LockGuard lock(mutex_);
  return load(kind, id, who);
}

std::vector<Record> Engine::list(const Kind& kind,
                                 const std::string& owner) const {
  std::vector<Record> out;
  {
    // lock-order: task.engine -> db.store.shard
    util::LockGuard lock(mutex_);
    for (const auto& id : store_.keys(kind.table)) {
      if (auto text = store_.get(kind.table, id)) {
        Record record = decode(id, *text);
        if (record.owner == owner) out.push_back(std::move(record));
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.submitted > b.submitted;
  });
  return out;
}

bool Engine::cancel(const Kind& kind, const std::string& id,
                    const std::string& who) {
  {
    // lock-order: task.engine -> db.store.shard
    util::LockGuard lock(mutex_);
    Record record = load(kind, id, who);
    if (record.state != State::Queued) return false;
    record.state = State::Cancelled;
    record.finished = util::unix_now();
    save(kind.table, record);
    steps_.erase(step_key(kind.table, id));
  }
  state_changed_.notify_all();
  return true;
}

void Engine::purge(const Kind& kind, const std::string& id,
                   const std::string& who) {
  // lock-order: task.engine -> db.store.shard
  util::LockGuard lock(mutex_);
  Record record = load(kind, id, who);
  if (!is_terminal(record.state)) {
    throw Error("cannot purge a " + kind.noun + " in state " +
                to_string(record.state));
  }
  store_.erase(kind.table, id);
}

Record Engine::wait(const Kind& kind, const std::string& id,
                    const std::string& who, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  // lock-order: task.engine -> db.store.shard
  util::UniqueLock lock(mutex_);
  Record record = load(kind, id, who);
  while (!is_terminal(record.state)) {
    bool timed_out =
        state_changed_.wait_until(lock, deadline) == std::cv_status::timeout;
    record = load(kind, id, who);
    if (!is_terminal(record.state) && timed_out) {
      throw SystemError(kind.noun + " did not finish in time");
    }
  }
  return record;
}

void Engine::update(const Kind& kind, const std::string& id,
                    const std::string& who,
                    const std::function<void(Record&)>& edit) {
  // lock-order: task.engine -> db.store.shard
  util::LockGuard lock(mutex_);
  Record record = load(kind, id, who);
  edit(record);
  save(kind.table, record);
}

}  // namespace clarens::task
