#include "core/file_service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "client/client.hpp"
#include "crypto/md5.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace clarens::core {

namespace {

// Overwrites go through hidden siblings with this prefix.
constexpr std::string_view kWriteTempPrefix = ".clarens-tmp.";

// The hidden sibling of `real` with the given suffix.
std::string hidden_sibling(const std::string& real, std::string_view suffix) {
  fs::path target(real);
  return (target.parent_path() /
          (std::string(kWriteTempPrefix) + std::string(suffix)))
      .string();
}

// A sibling name no other writer (thread or process) uses.
std::string unique_sibling(const std::string& real) {
  static std::atomic<std::uint64_t> counter{0};
  return hidden_sibling(real, std::to_string(::getpid()) + "." +
                                  std::to_string(counter.fetch_add(1)));
}

// Open `temp` empty for writing: with `reuse`, the directory's spare inode
// moved to that name when it has no other name and no descriptor has it
// open; else a new file. The kernel grants a write lease only while no
// other descriptor has the file open. The spare left its file's name
// before it was parked, so only an open that looked up that name before
// the overwrite and is still in flight could slip past the check. Such
// an open while the lease is held breaks it, which signals this process
// with SIGIO by default, ending it; SIGURG, ignored by default, is asked
// for instead.
net::Fd open_write_temp(const std::string& spare, const std::string& temp,
                        bool reuse) {
  if (reuse && ::rename(spare.c_str(), temp.c_str()) == 0) {
    net::Fd fd(::open(temp.c_str(), O_WRONLY | O_NOFOLLOW | O_CLOEXEC));
    struct stat st{};
    if (fd.valid() && ::fstat(fd.get(), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_nlink == 1 && ::fcntl(fd.get(), F_SETSIG, SIGURG) == 0 &&
        ::fcntl(fd.get(), F_SETLEASE, F_WRLCK) == 0) {
      ::fcntl(fd.get(), F_SETLEASE, F_UNLCK);
      if (::ftruncate(fd.get(), 0) == 0) return fd;
    }
    ::unlink(temp.c_str());
  }
  return net::Fd(
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666));
}

// After an exchange, `temp` names the entry the overwrite replaced. Park
// it as the directory's spare when it is a plain file with no other
// name (a second hard link still shows the old contents, so that inode
// must never be reused); otherwise, or when another writer parked one
// first, drop it. Returns false, leaving `temp` alone, for a directory.
bool park_replaced(const std::string& temp, const std::string& spare) {
  struct stat st{};
  bool found = ::lstat(temp.c_str(), &st) == 0;
  if (found && S_ISDIR(st.st_mode)) return false;
  if (!found || !S_ISREG(st.st_mode) || st.st_nlink != 1 ||
      ::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, spare.c_str(),
                  RENAME_NOREPLACE) != 0) {
    ::unlink(temp.c_str());
  }
  return true;
}

bool write_fully(int fd, std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data = data.subspan(static_cast<std::size_t>(n));
  }
  return true;
}

// Closes `fd` after a write that reported `ok`. Returns 0, or the errno
// of the first failure: the write's, else the close's (a deferred write
// error can surface only there).
int close_after_write(net::Fd fd, bool ok) {
  int error = ok ? 0 : (errno != 0 ? errno : EIO);
  if (::close(fd.release()) != 0 && error == 0) error = errno;
  return error;
}

}  // namespace

FileService::FileService(AclManager& acl) : acl_(acl) {}

bool FileService::is_write_scratch(std::string_view name) {
  return util::starts_with(name, kWriteTempPrefix);
}

void FileService::add_root(const std::string& virtual_prefix,
                           const std::string& directory) {
  if (virtual_prefix.empty() || virtual_prefix.front() != '/') {
    throw ParseError("virtual root must start with '/': " + virtual_prefix);
  }
  fs::path canonical = fs::weakly_canonical(directory);
  roots_[virtual_prefix] = canonical.string();
}

std::vector<std::string> FileService::roots() const {
  std::vector<std::string> out;
  for (const auto& [prefix, _] : roots_) out.push_back(prefix);
  return out;
}

std::string FileService::resolve(const std::string& path) const {
  if (path.empty() || path.front() != '/') {
    throw AccessError("file paths must be absolute: '" + path + "'");
  }
  // Longest matching virtual prefix wins.
  const std::string* best_prefix = nullptr;
  const std::string* best_dir = nullptr;
  for (const auto& [prefix, dir] : roots_) {
    bool matches = path == prefix || util::starts_with(path, prefix + "/") ||
                   prefix == "/";
    if (matches && (!best_prefix || prefix.size() > best_prefix->size())) {
      best_prefix = &prefix;
      best_dir = &dir;
    }
  }
  if (!best_prefix) {
    throw NotFoundError("no virtual root matches '" + path + "'");
  }
  std::string rest = path.substr(best_prefix->size() == 1 && (*best_prefix)[0] == '/'
                                     ? 0
                                     : best_prefix->size());
  for (const fs::path& part : fs::path(rest)) {
    if (is_write_scratch(part.native())) {
      throw AccessError("reserved file name in '" + path + "'");
    }
  }
  // Normalize and enforce containment: the resolved path must stay under
  // the root directory even in the presence of ".." components.
  fs::path real = fs::path(*best_dir) / fs::path(rest).relative_path();
  fs::path normal = real.lexically_normal();
  fs::path root_normal = fs::path(*best_dir).lexically_normal();
  auto rel = normal.lexically_relative(root_normal);
  if (rel.empty() || (!rel.native().empty() && *rel.begin() == "..")) {
    throw AccessError("path escapes virtual root: '" + path + "'");
  }
  return normal.string();
}

void FileService::require_read(const std::string& path,
                               const pki::DistinguishedName& who) const {
  if (!acl_.check_file_read(path, who)) {
    throw AccessError("read access denied: '" + path + "'");
  }
}

void FileService::require_write(const std::string& path,
                                const pki::DistinguishedName& who) const {
  if (!acl_.check_file_write(path, who)) {
    throw AccessError("write access denied: '" + path + "'");
  }
}

std::vector<std::uint8_t> FileService::read(const std::string& path,
                                            std::int64_t offset,
                                            std::int64_t length,
                                            const pki::DistinguishedName& who) const {
  require_read(path, who);
  if (offset < 0 || length < 0) throw ParseError("negative offset or length");
  if (length > max_read_chunk_) {
    throw ParseError("read length " + std::to_string(length) +
                     " exceeds maximum chunk of " +
                     std::to_string(max_read_chunk_) + " bytes");
  }
  std::string real = resolve(path);
  // Only a regular file has bytes to read; O_NONBLOCK keeps a FIFO from
  // stalling the open before fstat turns it away.
  net::Fd fd(::open(real.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC));
  struct stat st{};
  if (!fd.valid() || ::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    throw NotFoundError("cannot open file: '" + path + "'");
  }
  // The length arrives from the wire; size the buffer by what the file
  // can actually yield, never by the request alone.
  std::int64_t remaining = st.st_size > offset ? st.st_size - offset : 0;
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(std::min(length, remaining)));
  std::size_t got = 0;
  while (got < out.size()) {
    off_t at = static_cast<off_t>(offset) + static_cast<off_t>(got);
    ssize_t n = ::pread(fd.get(), out.data() + got, out.size() - got, at);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw SystemError("read failed: '" + path + "': " + std::strerror(errno));
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

FileService::ResolvedRegion FileService::read_region(
    const std::string& path, std::int64_t offset, std::int64_t length,
    const pki::DistinguishedName& who) const {
  require_read(path, who);
  if (offset < 0 || length < 0) throw ParseError("negative offset or length");
  if (length > max_read_chunk_) {
    throw ParseError("read length " + std::to_string(length) +
                     " exceeds maximum chunk of " +
                     std::to_string(max_read_chunk_) + " bytes");
  }
  ResolvedRegion region;
  region.real_path = resolve(path);
  std::error_code ec;
  auto file_size =
      static_cast<std::int64_t>(fs::file_size(region.real_path, ec));
  if (ec) throw NotFoundError("cannot open file: '" + path + "'");
  std::int64_t remaining = file_size > offset ? file_size - offset : 0;
  region.offset = offset;
  region.length = std::min(length, remaining);
  return region;
}

std::vector<FileStat> FileService::ls(const std::string& path,
                                      const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  if (!fs::is_directory(real, ec)) {
    throw NotFoundError("not a directory: '" + path + "'");
  }
  std::vector<FileStat> out;
  for (const auto& entry : fs::directory_iterator(real, ec)) {
    FileStat st;
    st.name = entry.path().filename().string();
    if (is_write_scratch(st.name)) continue;
    st.is_directory = entry.is_directory(ec);
    if (!st.is_directory) {
      st.size = static_cast<std::int64_t>(entry.file_size(ec));
    }
    struct ::stat raw{};
    if (::stat(entry.path().c_str(), &raw) == 0) st.mtime = raw.st_mtime;
    out.push_back(std::move(st));
  }
  std::sort(out.begin(), out.end(),
            [](const FileStat& a, const FileStat& b) { return a.name < b.name; });
  return out;
}

FileStat FileService::stat(const std::string& path,
                           const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  struct ::stat raw{};
  if (::stat(real.c_str(), &raw) != 0) {
    throw NotFoundError("no such file: '" + path + "'");
  }
  FileStat st;
  std::size_t slash = path.rfind('/');
  st.name = slash == std::string::npos ? path : path.substr(slash + 1);
  st.is_directory = S_ISDIR(raw.st_mode);
  st.size = st.is_directory ? 0 : raw.st_size;
  st.mtime = raw.st_mtime;
  return st;
}

std::string FileService::md5(const std::string& path,
                             const pki::DistinguishedName& who) const {
  return checksum(path, who).md5;
}

FileService::FileChecksum FileService::checksum(
    const std::string& path, const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  FileChecksum out;
  std::optional<std::string> hex = crypto::Md5::file_hex(real, &out.size);
  if (!hex) throw NotFoundError("cannot open file: '" + path + "'");
  out.md5 = std::move(*hex);
  return out;
}

std::vector<std::string> FileService::find(const std::string& path,
                                           const std::string& pattern,
                                           const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  std::vector<std::string> out;
  fs::path base(real);
  for (auto it = fs::recursive_directory_iterator(
           base, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    std::string name = it->path().filename().string();
    if (is_write_scratch(name)) continue;
    if (pattern == "*" || name.find(pattern) != std::string::npos) {
      // Report the virtual path: prefix + relative part.
      fs::path rel = it->path().lexically_relative(base);
      std::string virtual_path = path;
      if (virtual_path.back() != '/') virtual_path.push_back('/');
      virtual_path += rel.string();
      out.push_back(std::move(virtual_path));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t FileService::size(const std::string& path,
                               const pki::DistinguishedName& who) const {
  return stat(path, who).size;
}

void FileService::write(const std::string& path,
                        std::span<const std::uint8_t> data,
                        const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  // The detail is the resolved path: in-process cluster tests arm the
  // point against one node's data directory to fail just that node.
  if (CLARENS_FAULT("file.write.eio", real)) {
    throw SystemError("injected I/O error writing '" + path + "'");
  }
  // Readers see the old file or the new one whole, never a truncated one:
  // the bytes go to a hidden temporary file that replaces the target in
  // one rename. Creating and freeing an inode per overwrite costs several
  // times an in-place rewrite on ext4 with concurrent writers, so the
  // rename exchanges the two names, leaving exactly the replaced inode
  // under the temporary name, and that inode becomes the directory's
  // spare for the next overwrite to reuse.
  struct stat target{};
  bool exists = ::stat(real.c_str(), &target) == 0;
  if (exists && S_ISDIR(target.st_mode)) {
    throw SystemError("cannot write file: '" + path + "': is a directory");
  }
  std::string spare = hidden_sibling(real, "spare");
  std::string temp = unique_sibling(real);
  {
    // A new file gets a new inode, so its mode comes from the umask; an
    // overwrite keeps the target's mode, as writing in place did.
    net::Fd fd = open_write_temp(spare, temp, /*reuse=*/exists);
    if (!fd.valid()) throw SystemError("cannot write file: '" + path + "'");
    bool ok = (!exists || ::fchmod(fd.get(), target.st_mode & 07777) == 0) &&
              write_fully(fd.get(), data);
    if (int error = close_after_write(std::move(fd), ok)) {
      ::unlink(temp.c_str());
      throw SystemError("write failed: '" + path + "': " + std::strerror(error));
    }
  }
  if (::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, real.c_str(),
                  RENAME_EXCHANGE) == 0) {
    if (park_replaced(temp, spare)) return;
    // A directory took the target's name after the check above: put it
    // back, as a plain rename onto it would have failed.
    ::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, real.c_str(),
                RENAME_EXCHANGE);
    ::unlink(temp.c_str());
    throw SystemError("cannot write file: '" + path + "': is a directory");
  }
  // No target to exchange with (or no exchange on this filesystem).
  if (::rename(temp.c_str(), real.c_str()) != 0) {
    int error = errno;
    ::unlink(temp.c_str());
    throw SystemError("cannot write file: '" + path + "': " +
                      std::strerror(error));
  }
}

void FileService::append(const std::string& path,
                         std::span<const std::uint8_t> data,
                         const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  if (CLARENS_FAULT("file.write.eio", real)) {
    throw SystemError("injected I/O error appending to '" + path + "'");
  }
  net::Fd fd(
      ::open(real.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0666));
  if (!fd.valid()) throw SystemError("cannot append to file: '" + path + "'");
  bool ok = write_fully(fd.get(), data);
  if (int error = close_after_write(std::move(fd), ok)) {
    throw SystemError("append failed: '" + path + "': " + std::strerror(error));
  }
}

void FileService::pull(client::ClarensClient& source,
                       const std::string& source_path, const std::string& path,
                       const std::string& expected_md5,
                       const pki::DistinguishedName& who,
                       std::int64_t& copied) const {
  const std::int64_t chunk = std::min(kPullChunk, max_read_chunk_);
  copied = 0;
  for (;;) {
    std::vector<std::uint8_t> block =
        source.file_read(source_path, copied, chunk);
    if (copied == 0) {
      write(path, block, who);
    } else if (!block.empty()) {
      append(path, block, who);
    }
    copied += static_cast<std::int64_t>(block.size());
    if (static_cast<std::int64_t>(block.size()) < chunk) break;
  }
  if (md5(path, who) != expected_md5) {
    throw Error("md5 mismatch after transfer");
  }
}

void FileService::mkdir(const std::string& path,
                        const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  fs::create_directories(real, ec);
  if (ec) throw SystemError("mkdir failed: '" + path + "': " + ec.message());
}

void FileService::remove(const std::string& path,
                         const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  if (!fs::remove_all(real, ec) || ec) {
    if (ec) throw SystemError("remove failed: '" + path + "': " + ec.message());
    throw NotFoundError("no such file: '" + path + "'");
  }
  // The directory's spare may hold an old version of what was removed.
  ::unlink(hidden_sibling(real, "spare").c_str());
}

std::string FileService::resolve_for_read(const std::string& path,
                                          const pki::DistinguishedName& who) const {
  require_read(path, who);
  return resolve(path);
}

}  // namespace clarens::core
