#include "core/job_service.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace clarens::core {

namespace {

task::Step job_step(ShellService& shell) {
  return [&shell](task::Record& job) {
    job.fields.set("exit_code", std::int64_t{-1});  // stays if the shell throws
    ShellResult result =
        shell.execute(pki::DistinguishedName::parse(job.owner),
                      job.fields.at("command").as_string());
    job.fields.set("exit_code", static_cast<std::int64_t>(result.exit_code));
    job.fields.set("output", result.out);
    job.error = result.err;
    return result.exit_code == 0;
  };
}

// The command is in the record, so a job a restart interrupted runs again.
task::Kind job_kind(ShellService& shell) {
  return {.table = "jobs",
          .noun = "job",
          .restart = task::Restart::Requeue,
          .resume = [&shell](const task::Record&) { return job_step(shell); }};
}

Job to_job(const task::Record& record) {
  Job job;
  job.id = record.id;
  job.owner = record.owner;
  job.command = record.fields.at("command").as_string();
  job.state = record.state;
  job.exit_code = static_cast<int>(record.fields.at("exit_code").as_int());
  job.output = record.fields.at("output").as_string();
  job.error = record.error;
  job.submitted = record.submitted;
  job.finished = record.finished;
  return job;
}

}  // namespace

JobService::JobService(task::Engine& engine, ShellService& shell)
    : shell_(shell), engine_(engine), kind_(job_kind(shell)) {
  engine_.declare(kind_);
}

JobService::JobService(db::Store& store, ShellService& shell, int workers)
    : shell_(shell),
      own_engine_(std::make_unique<task::Engine>(
          store, static_cast<std::size_t>(std::max(workers, 1)))),
      engine_(*own_engine_),
      kind_(job_kind(shell)) {
  engine_.declare(kind_);
}

std::string JobService::submit(const pki::DistinguishedName& owner,
                               const std::string& command) {
  if (!shell_.map_user(owner)) {
    throw AccessError("no system user mapped for " + owner.str());
  }
  task::Record record;
  record.owner = owner.str();
  record.fields.set("command", command);
  record.fields.set("exit_code", std::int64_t{0});
  record.fields.set("output", std::string());
  return engine_.submit(kind_, std::move(record), job_step(shell_));
}

Job JobService::status(const std::string& job_id,
                       const pki::DistinguishedName& who) const {
  return to_job(engine_.get(kind_, job_id, who.str()));
}

std::vector<Job> JobService::list(const pki::DistinguishedName& owner) const {
  std::vector<Job> out;
  for (const auto& record : engine_.list(kind_, owner.str())) {
    out.push_back(to_job(record));
  }
  return out;
}

bool JobService::cancel(const std::string& job_id,
                        const pki::DistinguishedName& who) {
  return engine_.cancel(kind_, job_id, who.str());
}

void JobService::purge(const std::string& job_id,
                       const pki::DistinguishedName& who) {
  engine_.purge(kind_, job_id, who.str());
}

Job JobService::wait(const std::string& job_id,
                     const pki::DistinguishedName& who, int timeout_ms) {
  return to_job(engine_.wait(kind_, job_id, who.str(), timeout_ms));
}

}  // namespace clarens::core
