#include "core/commit_reports.hpp"

namespace clarens::core {

void CommitReports::report(const std::string& path, const Hash& hash,
                           const Send& send) {
  // The caller's write landed before this increment, so a report that
  // hashed before that write either sees the generation move once its
  // send returns, or finished sending before this report starts.
  std::atomic<std::uint64_t>& generation =
      generations_[std::hash<std::string>{}(path) % kBuckets];
  std::uint64_t seen = generation.fetch_add(1) + 1;
  for (;;) {
    send(hash());
    std::uint64_t now = generation.load();
    if (now == seen) return;
    seen = now;
  }
}

}  // namespace clarens::core
