// Remote file access (paper §2.3).
//
// Data in "big science" experiments lives in files; this service exposes
// them under *virtual roots* — logical names mapped to server directories
// via configuration — through both RPC methods (file.read and friends)
// and HTTP GET. Every operation is subject to file ACLs (read/write), and
// path resolution refuses to escape a root.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/acl.hpp"
#include "pki/dn.hpp"

namespace clarens::client {
class ClarensClient;
}

namespace clarens::core {

struct FileStat {
  std::string name;
  bool is_directory = false;
  std::int64_t size = 0;
  std::int64_t mtime = 0;  // unix seconds
};

class FileService {
 public:
  explicit FileService(AclManager& acl);

  /// Map virtual path prefix "/data" to server directory `directory`.
  void add_root(const std::string& virtual_prefix, const std::string& directory);

  /// Largest `length` a single read() accepts. The length arrives from
  /// the wire and sizes a buffer, so it must be bounded server-side;
  /// larger requests are rejected (callers chunk, as transfer.* does).
  void set_max_read_chunk(std::int64_t bytes) { max_read_chunk_ = bytes; }
  std::int64_t max_read_chunk() const { return max_read_chunk_; }

  std::vector<std::string> roots() const;

  /// All virtual paths below are absolute ("/data/run1/events.bin") and
  /// resolved against the matching root. Operations throw:
  ///   NotFoundError  — no root matches or file missing
  ///   AccessError    — ACL denies, or the path escapes the root
  ///   SystemError    — I/O failure

  /// Read `length` bytes at `offset` (paper: file.read(name, offset, n)).
  std::vector<std::uint8_t> read(const std::string& path, std::int64_t offset,
                                 std::int64_t length,
                                 const pki::DistinguishedName& who) const;

  /// A resolved, ACL-checked, clamped byte range — read()'s access and
  /// bounds semantics without materializing the bytes. The transport
  /// streams the range straight from the file (sendfile(2)), so large
  /// file.read responses never pass through a user-space buffer.
  struct ResolvedRegion {
    std::string real_path;
    std::int64_t offset = 0;
    std::int64_t length = 0;  // clamped to what the file can yield
  };
  ResolvedRegion read_region(const std::string& path, std::int64_t offset,
                             std::int64_t length,
                             const pki::DistinguishedName& who) const;

  /// file.read responses of at least this many bytes are offered to the
  /// transport as zero-copy regions; < 0 disables the bypass.
  void set_sendfile_threshold(std::int64_t bytes) {
    sendfile_threshold_ = bytes;
  }
  std::int64_t sendfile_threshold() const { return sendfile_threshold_; }

  /// True for the hidden files overwrites work through (temporaries and
  /// each directory's spare inode). Listings skip them, and no file
  /// operation accepts a path naming one.
  static bool is_write_scratch(std::string_view name);

  /// Directory listing (file.ls).
  std::vector<FileStat> ls(const std::string& path,
                           const pki::DistinguishedName& who) const;

  /// File or directory information (file.stat).
  FileStat stat(const std::string& path,
                const pki::DistinguishedName& who) const;

  /// Hex MD5 of the whole file (file.md5), streamed in bounded memory.
  std::string md5(const std::string& path,
                  const pki::DistinguishedName& who) const;

  /// Hash + size in one pass (file.checksum) — what the fsck scrubber
  /// and the post-write commit notification ask a storage node for.
  struct FileChecksum {
    std::string md5;
    std::int64_t size = 0;
  };
  FileChecksum checksum(const std::string& path,
                        const pki::DistinguishedName& who) const;

  /// Recursive find: paths under `path` whose basename contains `pattern`
  /// ('*' alone matches everything) (file.find).
  std::vector<std::string> find(const std::string& path,
                                const std::string& pattern,
                                const pki::DistinguishedName& who) const;

  std::int64_t size(const std::string& path,
                    const pki::DistinguishedName& who) const;

  /// Write (create/overwrite) a file — used by the shell sandbox upload
  /// flow; requires write ACL. The bytes go to a hidden temporary file in
  /// the same directory, which is renamed over the target once written,
  /// so concurrent readers see the old or the new file whole; an
  /// overwrite keeps the target's mode. The replaced file stays behind,
  /// contents intact, as the directory's hidden spare until the next
  /// overwrite in that directory reuses it (once no reader has it open)
  /// or a remove() in the directory deletes it. Throws SystemError when
  /// the data could not be written.
  void write(const std::string& path, std::span<const std::uint8_t> data,
             const pki::DistinguishedName& who) const;

  /// Append to (creating if needed) a file — the chunked-write primitive
  /// the transfer service streams through; requires write ACL.
  void append(const std::string& path, std::span<const std::uint8_t> data,
              const pki::DistinguishedName& who) const;

  /// Copy `source_path` from another Clarens server into `path`: the
  /// first chunk is written, the rest appended, in chunks of
  /// min(kPullChunk, max_read_chunk) read over `source` until a short
  /// chunk. Throws unless the landed file's md5 equals `expected_md5`.
  /// The one copy loop behind transfer.* and file.pull. `copied` counts
  /// the bytes landed, also when the copy throws.
  void pull(client::ClarensClient& source, const std::string& source_path,
            const std::string& path, const std::string& expected_md5,
            const pki::DistinguishedName& who, std::int64_t& copied) const;
  static constexpr std::int64_t kPullChunk = 1 << 20;

  void mkdir(const std::string& path, const pki::DistinguishedName& who) const;

  void remove(const std::string& path, const pki::DistinguishedName& who) const;

  /// Resolve a virtual path to a real filesystem path *after* the read
  /// ACL check. Used by the HTTP GET handler to hand the region to
  /// sendfile. Throws like read().
  std::string resolve_for_read(const std::string& path,
                               const pki::DistinguishedName& who) const;

 private:
  /// Split into (root-relative real path). Enforces containment.
  std::string resolve(const std::string& path) const;
  void require_read(const std::string& path,
                    const pki::DistinguishedName& who) const;
  void require_write(const std::string& path,
                     const pki::DistinguishedName& who) const;

  AclManager& acl_;
  std::map<std::string, std::string> roots_;  // virtual prefix -> directory
  std::int64_t max_read_chunk_ = 8 * 1024 * 1024;
  std::int64_t sendfile_threshold_ = 64 * 1024;
};

}  // namespace clarens::core
