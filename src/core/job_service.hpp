// Job submission service (paper §3 lists job submission among the portal
// functionality; Clarens hosted the RunJob / Monte-Carlo Processing
// Service workflows).
//
// Jobs are shell-service command lines executed asynchronously in the
// submitter's sandbox, as tasks on the server's task::Engine. Job records
// (state, exit code, captured output) live in the database, so a
// submitter can disconnect and query results later — the same
// survive-restart property sessions have. A job found unfinished after a
// restart runs again: its command is in the record.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/shell_service.hpp"
#include "db/store.hpp"
#include "pki/dn.hpp"
#include "task/engine.hpp"

namespace clarens::core {

using JobState = task::State;

struct Job {
  std::string id;
  std::string owner;  // DN string
  std::string command;
  JobState state = JobState::Queued;
  int exit_code = 0;
  std::string output;        // stdout
  std::string error;         // stderr
  std::int64_t submitted = 0;
  std::int64_t finished = 0;  // 0 while not terminal
};

class JobService {
 public:
  /// Runs jobs on `engine`, whose store keeps the records.
  JobService(task::Engine& engine, ShellService& shell);
  /// Runs jobs on an engine of its own with `workers` threads.
  JobService(db::Store& store, ShellService& shell, int workers = 2);

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Submit a command for `owner`; returns the job id immediately.
  /// Throws AccessError if the owner maps to no system user.
  std::string submit(const pki::DistinguishedName& owner,
                     const std::string& command);

  /// Job record; only the owner may query it (AccessError otherwise).
  Job status(const std::string& job_id,
             const pki::DistinguishedName& who) const;

  /// All job ids of an owner, newest first.
  std::vector<Job> list(const pki::DistinguishedName& owner) const;

  /// Cancel a queued job; returns false when it already started.
  bool cancel(const std::string& job_id, const pki::DistinguishedName& who);

  /// Remove a terminal job record.
  void purge(const std::string& job_id, const pki::DistinguishedName& who);

  /// Block until the job reaches a terminal state (test convenience).
  Job wait(const std::string& job_id, const pki::DistinguishedName& who,
           int timeout_ms = 10000);

 private:
  ShellService& shell_;
  std::unique_ptr<task::Engine> own_engine_;  // standalone constructor only
  task::Engine& engine_;
  const task::Kind kind_;
};

}  // namespace clarens::core
