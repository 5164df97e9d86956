#include "storage/srm.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace clarens::storage {

namespace {

// Requests have no owner: any caller the srm.* ACL admits may use a token.
const std::string kAnyone;

task::Step stage_step(MassStorage& storage) {
  return [&storage](task::Record& request) {
    request.fields.set(
        "cache_file",
        storage.stage_and_pin(request.fields.at("logical_path").as_string()));
    return true;
  };
}

SrmRequest to_request(const task::Record& record) {
  SrmRequest request;
  request.token = record.id;
  request.logical_path = record.fields.at("logical_path").as_string();
  switch (record.state) {
    case task::State::Queued: request.state = SrmState::Queued; break;
    case task::State::Running: request.state = SrmState::Staging; break;
    case task::State::Done:
      request.state = record.fields.at("released").as_bool()
                          ? SrmState::Released
                          : SrmState::Ready;
      break;
    case task::State::Failed:
    case task::State::Cancelled: request.state = SrmState::Failed; break;
  }
  request.cache_file = record.fields.at("cache_file").as_string();
  request.error = record.error;
  request.created = record.submitted;
  return request;
}

}  // namespace

const char* to_string(SrmState state) {
  switch (state) {
    case SrmState::Queued: return "QUEUED";
    case SrmState::Staging: return "STAGING";
    case SrmState::Ready: return "READY";
    case SrmState::Failed: return "FAILED";
    case SrmState::Released: return "RELEASED";
  }
  return "?";
}

SrmService::SrmService(MassStorage& storage, int workers)
    : storage_(storage),
      kind_{.table = "srm", .noun = "SRM request"},
      engine_(requests_, static_cast<std::size_t>(std::max(workers, 1))) {}

std::string SrmService::prepare_to_get(const std::string& logical_path) {
  task::Record record;
  record.fields.set("logical_path", logical_path);
  record.fields.set("cache_file", std::string());
  record.fields.set("released", false);
  return engine_.submit(kind_, std::move(record), stage_step(storage_));
}

SrmRequest SrmService::status(const std::string& token) const {
  return to_request(engine_.get(kind_, token, kAnyone));
}

SrmRequest SrmService::wait(const std::string& token, int timeout_ms) {
  return to_request(engine_.wait(kind_, token, kAnyone, timeout_ms));
}

void SrmService::release(const std::string& token) {
  std::string unpin;
  engine_.update(kind_, token, kAnyone, [&](task::Record& record) {
    SrmState state = to_request(record).state;
    if (state == SrmState::Released) return;
    if (state != SrmState::Ready) {
      throw Error("cannot release a request in state " +
                  std::string(to_string(state)));
    }
    record.fields.set("released", true);
    unpin = record.fields.at("logical_path").as_string();
  });
  if (!unpin.empty()) storage_.unpin(unpin);
}

void SrmService::put(const std::string& logical_path, std::string_view data) {
  storage_.put(logical_path, data);
}

std::vector<std::string> SrmService::ls(const std::string& logical_dir) const {
  return storage_.list(logical_dir);
}

bool SrmService::exists(const std::string& logical_path) const {
  return storage_.exists(logical_path);
}

std::int64_t SrmService::size(const std::string& logical_path) const {
  return storage_.size(logical_path);
}

}  // namespace clarens::storage
