// Ordering of a storage node's replica.committed reports.
//
// After a ticketed write or append lands, a storage node hashes the file
// and reports the checksum to the head. Two writers of one file can
// report out of order: a hash taken before the other writer's bytes
// landed may reach the head last and leave it expecting content no
// replica has. CommitReports closes that gap without re-hashing on the
// common path: each report bumps a write generation for its path, and a
// report re-hashes and reports again only when another write of the
// path began reporting while it ran.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "core/file_service.hpp"

namespace clarens::core {

class CommitReports {
 public:
  using Hash = std::function<FileService::FileChecksum()>;
  using Send = std::function<void(const FileService::FileChecksum&)>;

  /// Report one landed write of `path`: hash it and send the checksum,
  /// then repeat while another report of the same path started in the
  /// meantime. Whichever report the head receives last then matches the
  /// file. Exceptions from `hash` or `send` propagate.
  void report(const std::string& path, const Hash& hash, const Send& send);

 private:
  // Generations live in fixed buckets keyed by a hash of the path. Two
  // paths sharing a bucket cost at most an extra hash and report, never
  // a missed one, and nothing grows with the number of files.
  static constexpr std::size_t kBuckets = 1024;
  std::array<std::atomic<std::uint64_t>, kBuckets> generations_{};
};

}  // namespace clarens::core
