// SRM-like storage resource manager (paper §6 / ref [27]).
//
// The Storage Resource Manager protocol mediates access to mass storage:
// a client *requests* a file, the SRM stages it from tape asynchronously,
// the client polls the request until it is READY, uses the staged copy
// (here: through the Clarens file service, whose cache root maps to the
// SRM's disk cache), and finally *releases* it so the pin is dropped.
//
// This module implements that request lifecycle on top of MassStorage:
//   prepare_to_get -> token          (queued; a task stages it)
//   status(token)  -> QUEUED | STAGING | READY(cache file) | FAILED(why)
//   release(token) -> unpin
// plus write-through put and namespace listing. Requests are tasks on a
// task::Engine of the service's own over an in-memory store, so a restart
// drops them (the pins they held die with the process too).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/store.hpp"
#include "storage/mass_storage.hpp"
#include "task/engine.hpp"

namespace clarens::storage {

enum class SrmState { Queued, Staging, Ready, Failed, Released };

const char* to_string(SrmState state);

struct SrmRequest {
  std::string token;
  std::string logical_path;
  SrmState state = SrmState::Queued;
  std::string cache_file;  // set when Ready
  std::string error;       // set when Failed
  std::int64_t created = 0;
};

class SrmService {
 public:
  /// `workers`: concurrent staging streams (tape drives).
  explicit SrmService(MassStorage& storage, int workers = 2);

  SrmService(const SrmService&) = delete;
  SrmService& operator=(const SrmService&) = delete;

  /// Enqueue a staging request; returns the request token immediately.
  std::string prepare_to_get(const std::string& logical_path);

  /// Current request state; throws NotFoundError for unknown tokens.
  SrmRequest status(const std::string& token) const;

  /// Block until the request leaves the queue/staging states (test and
  /// synchronous-client convenience). Returns the final request.
  SrmRequest wait(const std::string& token, int timeout_ms = 10000);

  /// Drop the pin of a Ready request. Idempotent on released requests.
  void release(const std::string& token);

  // Write-through and namespace operations (synchronous).
  void put(const std::string& logical_path, std::string_view data);
  std::vector<std::string> ls(const std::string& logical_dir) const;
  bool exists(const std::string& logical_path) const;
  std::int64_t size(const std::string& logical_path) const;

  MassStorage& storage() { return storage_; }

 private:
  MassStorage& storage_;
  db::Store requests_;  // in memory: requests do not outlive the process
  const task::Kind kind_;
  task::Engine engine_;  // after the store: its steps finish first
};

}  // namespace clarens::storage
