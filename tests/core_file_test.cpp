// Unit tests for the file service: virtual roots, containment, every
// file.* operation, ACL gating, and atomic overwrites.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <csignal>
#include <fstream>
#include <set>
#include <vector>

#include "core/bindings/bindings.hpp"
#include "core/file_service.hpp"
#include "core/vo.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "rpc/registry.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;

const char* kAliceStr = "/O=grid/CN=Alice";

pki::DistinguishedName alice() {
  return pki::DistinguishedName::parse(kAliceStr);
}

struct FileFixture : ::testing::Test {
  db::Store store;
  VoManager vo{store, {}};
  AclManager acl{store, vo, /*default_allow=*/false};
  FileService files{acl};
  TempDir tmp;
  std::string dir;

  FileFixture() : dir(tmp.sub("root")) {
    files.add_root("/data", dir);
    FileAcl open;
    open.read.allow_dns = {"*"};
    open.write.allow_dns = {"*"};
    acl.set_file_acl("/data", open);
    write_file("hello.txt", "hello world");
    std::filesystem::create_directories(dir + "/sub");
    write_file("sub/nested.bin", std::string(1000, 'x'));
  }

  void write_file(const std::string& rel, const std::string& content) {
    std::ofstream out(dir + "/" + rel, std::ios::binary);
    out << content;
  }
};

TEST_F(FileFixture, ReadWholeAndPartial) {
  auto all = files.read("/data/hello.txt", 0, 100, alice());
  EXPECT_EQ(std::string(all.begin(), all.end()), "hello world");
  auto mid = files.read("/data/hello.txt", 6, 5, alice());
  EXPECT_EQ(std::string(mid.begin(), mid.end()), "world");
  auto past_end = files.read("/data/hello.txt", 100, 10, alice());
  EXPECT_TRUE(past_end.empty());
  EXPECT_THROW(files.read("/data/hello.txt", -1, 5, alice()), ParseError);
}

TEST_F(FileFixture, ReadLengthIsClamped) {
  // The length arrives from the wire: beyond the configured chunk cap it
  // must be rejected before any allocation happens.
  files.set_max_read_chunk(64);
  EXPECT_THROW(files.read("/data/hello.txt", 0, 65, alice()), ParseError);
  auto ok = files.read("/data/hello.txt", 0, 64, alice());
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "hello world");
  // Within the cap, the buffer is sized by the file, not the request:
  // a 64-byte ask on an 11-byte file returns 11 bytes.
  EXPECT_EQ(ok.size(), 11u);
}

TEST_F(FileFixture, LsSortedWithTypes) {
  auto listing = files.ls("/data", alice());
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].name, "hello.txt");
  EXPECT_FALSE(listing[0].is_directory);
  EXPECT_EQ(listing[0].size, 11);
  EXPECT_EQ(listing[1].name, "sub");
  EXPECT_TRUE(listing[1].is_directory);
  EXPECT_THROW(files.ls("/data/hello.txt", alice()), NotFoundError);
}

TEST_F(FileFixture, StatAndSize) {
  FileStat st = files.stat("/data/hello.txt", alice());
  EXPECT_EQ(st.name, "hello.txt");
  EXPECT_EQ(st.size, 11);
  EXPECT_GT(st.mtime, 0);
  EXPECT_EQ(files.size("/data/sub/nested.bin", alice()), 1000);
  EXPECT_THROW(files.stat("/data/ghost", alice()), NotFoundError);
}

TEST_F(FileFixture, Md5MatchesDirectComputation) {
  EXPECT_EQ(files.md5("/data/hello.txt", alice()),
            crypto::Md5::hex("hello world"));
}

TEST_F(FileFixture, Md5StreamsFilesLargerThanTheReadChunkCap) {
  // Regression: file.md5/file.checksum must hash in fixed-size chunks,
  // not load the file — a file bigger than max_read_chunk (which caps a
  // single file.read) has to hash fine with bounded memory.
  files.set_max_read_chunk(64 * 1024);
  std::string payload;
  payload.reserve(200 * 1024);
  for (int i = 0; i < 200 * 1024; ++i) {
    payload.push_back(static_cast<char>('a' + i % 23));
  }
  write_file("big.bin", payload);
  ASSERT_GT(static_cast<std::int64_t>(payload.size()),
            files.max_read_chunk());
  EXPECT_THROW(files.read("/data/big.bin", 0,
                          static_cast<std::int64_t>(payload.size()), alice()),
               ParseError);  // a single read stays capped...
  EXPECT_EQ(files.md5("/data/big.bin", alice()),
            crypto::Md5::hex(payload));  // ...but hashing streams past it

  FileService::FileChecksum sum = files.checksum("/data/big.bin", alice());
  EXPECT_EQ(sum.md5, crypto::Md5::hex(payload));
  EXPECT_EQ(sum.size, static_cast<std::int64_t>(payload.size()));
}

TEST_F(FileFixture, ChecksumMatchesMd5AndStat) {
  FileService::FileChecksum sum = files.checksum("/data/hello.txt", alice());
  EXPECT_EQ(sum.md5, files.md5("/data/hello.txt", alice()));
  EXPECT_EQ(sum.size, 11);
  EXPECT_THROW(files.checksum("/data/ghost", alice()), NotFoundError);
}

TEST_F(FileFixture, AppendExtendsAndCreates) {
  auto span_of = [](const std::string& s) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  std::string first = "chunk-one|", second = "chunk-two";
  files.append("/data/log.txt", span_of(first), alice());  // creates
  files.append("/data/log.txt", span_of(second), alice());
  auto back = files.read("/data/log.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "chunk-one|chunk-two");
}

TEST_F(FileFixture, FindByPatternAndWildcard) {
  auto hits = files.find("/data", "nested", alice());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], "/data/sub/nested.bin");
  auto all = files.find("/data", "*", alice());
  EXPECT_EQ(all.size(), 3u);  // hello.txt, sub, sub/nested.bin
}

TEST_F(FileFixture, WriteMkdirRemove) {
  files.mkdir("/data/out", alice());
  std::string content = "payload";
  files.write("/data/out/result.txt",
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(content.data()),
                  content.size()),
              alice());
  auto back = files.read("/data/out/result.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "payload");
  files.remove("/data/out", alice());
  EXPECT_THROW(files.stat("/data/out", alice()), NotFoundError);
}

std::span<const std::uint8_t> span_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST_F(FileFixture, ConcurrentReadsSeeWholeOverwrites) {
  // One thread overwrites the file with payloads of two sizes while
  // another reads it: every read returns one payload whole, never a
  // truncated or empty file, and listings never show the temporary.
  const std::string small(3000, 's');
  const std::string large(70000, 'L');
  files.write("/data/race.bin", span_of(small), alice());
  std::atomic<bool> done{false};
  util::Thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      files.write("/data/race.bin", span_of(i % 2 ? small : large), alice());
    }
    done = true;
  });
  int reads = 0, torn = 0, temp_listed = 0;
  while (!done || reads < 50) {
    auto bytes = files.read("/data/race.bin", 0, 1 << 20, alice());
    std::string got(bytes.begin(), bytes.end());
    if (got != small && got != large) ++torn;
    for (const FileStat& st : files.ls("/data", alice())) {
      if (st.name != "race.bin" && st.name != "hello.txt" && st.name != "sub") {
        ++temp_listed;
      }
    }
    ++reads;
  }
  writer.join();
  EXPECT_EQ(torn, 0) << "of " << reads << " reads";
  EXPECT_EQ(temp_listed, 0);
  EXPECT_EQ(files.find("/data", "*", alice()).size(), 4u);
  // On disk only the directory's one spare inode stays beside the files.
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{".clarens-tmp.spare", "hello.txt",
                                          "race.bin", "sub"}));
}

TEST_F(FileFixture, ConcurrentWritersNeverShareAnInode) {
  // Three threads overwrite one file while a fourth overwrites a sibling
  // in the same directory, so replaced inodes pass through the
  // directory's one spare in every order. Each file must only ever read
  // back one of its own payloads, and end as two distinct inodes.
  std::vector<std::string> shared_payloads, sibling_payloads;
  for (int i = 0; i < 3; ++i) {
    shared_payloads.push_back(std::string(2000 + 1500 * i, 'a' + i));
  }
  for (int i = 0; i < 2; ++i) {
    sibling_payloads.push_back(std::string(2500 + 4000 * i, 'x' + i));
  }
  files.write("/data/shared.bin", span_of(shared_payloads[0]), alice());
  files.write("/data/sibling.bin", span_of(sibling_payloads[0]), alice());
  std::atomic<int> running{4};
  std::vector<util::Thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 500; ++i) {
        files.write("/data/shared.bin", span_of(shared_payloads[(w + i) % 3]),
                    alice());
      }
      --running;
    });
  }
  writers.emplace_back([&] {
    for (int i = 0; i < 1000; ++i) {
      files.write("/data/sibling.bin", span_of(sibling_payloads[i % 2]),
                  alice());
    }
    --running;
  });
  auto one_of = [](const std::string& got,
                   const std::vector<std::string>& payloads) {
    return std::find(payloads.begin(), payloads.end(), got) != payloads.end();
  };
  int reads = 0, wrong_shared = 0, wrong_sibling = 0;
  auto check_both = [&] {
    auto a = files.read("/data/shared.bin", 0, 1 << 20, alice());
    auto b = files.read("/data/sibling.bin", 0, 1 << 20, alice());
    if (!one_of(std::string(a.begin(), a.end()), shared_payloads)) {
      ++wrong_shared;
    }
    if (!one_of(std::string(b.begin(), b.end()), sibling_payloads)) {
      ++wrong_sibling;
    }
    ++reads;
  };
  while (running > 0) check_both();
  for (util::Thread& t : writers) t.join();
  // A reused inode shared by both files would show up in later writes.
  for (int i = 0; i < 20; ++i) {
    files.write("/data/shared.bin", span_of(shared_payloads[i % 3]), alice());
    files.write("/data/sibling.bin", span_of(sibling_payloads[i % 2]),
                alice());
    check_both();
  }
  EXPECT_EQ(wrong_shared, 0) << "of " << reads << " reads";
  EXPECT_EQ(wrong_sibling, 0) << "of " << reads << " reads";
  struct stat a{}, b{};
  ASSERT_EQ(::stat((dir + "/shared.bin").c_str(), &a), 0);
  ASSERT_EQ(::stat((dir + "/sibling.bin").c_str(), &b), 0);
  EXPECT_NE(a.st_ino, b.st_ino);
  EXPECT_EQ(a.st_nlink, 1u);
  EXPECT_EQ(b.st_nlink, 1u);
}

TEST_F(FileFixture, OverwriteLeavesOtherHardLinksAndModeAlone) {
  // A second hard link to the target keeps the old contents: that inode
  // is never reused for a later overwrite of any file.
  const std::string old_text(4000, 'o');
  files.write("/data/linked.bin", span_of(old_text), alice());
  ASSERT_EQ(::link((dir + "/linked.bin").c_str(), (dir + "/other.bin").c_str()),
            0);
  files.write("/data/linked.bin", span_of(std::string(100, 'n')), alice());
  for (int i = 0; i < 4; ++i) {
    files.write("/data/hello.txt", span_of(std::string(50 + i, 'h')), alice());
  }
  std::ifstream other(dir + "/other.bin", std::ios::binary);
  std::string held((std::istreambuf_iterator<char>(other)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(held, old_text);

  // An overwrite keeps the target's own mode, even on a reused inode.
  ASSERT_EQ(::chmod((dir + "/hello.txt").c_str(), 0640), 0);
  ASSERT_EQ(::chmod((dir + "/linked.bin").c_str(), 0600), 0);
  for (int i = 0; i < 3; ++i) {
    files.write("/data/hello.txt", span_of("h"), alice());
    files.write("/data/linked.bin", span_of("l"), alice());
  }
  struct stat st{};
  ASSERT_EQ(::stat((dir + "/hello.txt").c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 07777, 0640u);
  ASSERT_EQ(::stat((dir + "/linked.bin").c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 07777, 0600u);
}

TEST_F(FileFixture, RemoveDeletesTheDirectorysSpare) {
  // The spare holds the replaced contents; removing a file in the
  // directory deletes it too, so removed data does not linger.
  files.write("/data/gone.txt", span_of("first"), alice());
  files.write("/data/gone.txt", span_of("second"), alice());
  ASSERT_TRUE(std::filesystem::exists(dir + "/.clarens-tmp.spare"));
  files.remove("/data/gone.txt", alice());
  EXPECT_FALSE(std::filesystem::exists(dir + "/.clarens-tmp.spare"));
}

TEST_F(FileFixture, OpenReaderKeepsTheFileAnOverwriteReplaced) {
  // Overwrites reuse the inode the previous overwrite replaced, but only
  // once nothing has it open: a slow reader of an old version keeps
  // reading that version whole.
  const std::string first(5000, '1'), second(7000, '2'), third(9000, '3');
  files.write("/data/slow.bin", span_of(first), alice());
  std::ifstream reader(dir + "/slow.bin", std::ios::binary);
  ASSERT_TRUE(reader);
  files.write("/data/slow.bin", span_of(second), alice());  // first -> spare
  files.write("/data/slow.bin", span_of(third), alice());   // spare still open
  std::string held((std::istreambuf_iterator<char>(reader)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(held, first);
  auto back = files.read("/data/slow.bin", 0, 1 << 20, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), third);

  // The spare holds an old version: no file operation reaches it.
  EXPECT_THROW(files.read("/data/.clarens-tmp.spare", 0, 10, alice()),
               AccessError);
  EXPECT_THROW(files.write("/data/.clarens-tmp.spare", span_of("x"), alice()),
               AccessError);
  EXPECT_THROW(files.mkdir("/data/.clarens-tmp.x/y", alice()), AccessError);
}

TEST_F(FileFixture, FailedWriteThrowsAndKeepsTheOldFile) {
  // A directory in the way: the rename fails, the caller hears of it and
  // no temporary file stays behind.
  std::filesystem::create_directories(dir + "/blocked");
  EXPECT_THROW(files.write("/data/blocked", span_of("x"), alice()),
               SystemError);
  EXPECT_THROW(files.write("/data/missing/dir/f", span_of("x"), alice()),
               SystemError);

  // A full disk: the child caps its file size with RLIMIT_FSIZE (writes
  // past it fail with EFBIG once SIGXFSZ is ignored). The write must
  // throw and leave the old contents in place.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit{4096, 4096};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(10);
    try {
      files.write("/data/hello.txt", span_of(std::string(65536, 'z')), alice());
      _exit(11);  // reported success for a write that did not happen
    } catch (const SystemError&) {
    } catch (...) {
      _exit(12);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  auto back = files.read("/data/hello.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "hello world");
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind(".clarens-tmp.", 0),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(FileFixture, ReadRefusesNonFilesAndStopsAtEndOfFile) {
  // A directory has no bytes to give: the read fails as a missing file
  // does, rather than answering with an empty buffer.
  EXPECT_THROW(files.read("/data/sub", 0, 4096, alice()), NotFoundError);
  EXPECT_THROW(files.read("/data", 0, 4096, alice()), NotFoundError);
  EXPECT_THROW(files.read("/data/ghost", 0, 10, alice()), NotFoundError);
  // At and past the end of the file: no bytes, no error.
  EXPECT_TRUE(files.read("/data/hello.txt", 11, 10, alice()).empty());
  EXPECT_TRUE(files.read("/data/hello.txt", 1 << 30, 10, alice()).empty());
  EXPECT_TRUE(
      files.read("/data/hello.txt", INT64_MAX, 10, alice()).empty());
  // A range in the middle, and one cut short by the end of the file.
  auto mid = files.read("/data/hello.txt", 2, 3, alice());
  EXPECT_EQ(std::string(mid.begin(), mid.end()), "llo");
  auto tail = files.read("/data/sub/nested.bin", 990, 4096, alice());
  EXPECT_EQ(std::string(tail.begin(), tail.end()), std::string(10, 'x'));
}

TEST_F(FileFixture, AppendToAFullDiskThrows) {
  // /dev/full fails every write with ENOSPC; a symlink puts it under
  // the root.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::filesystem::create_symlink("/dev/full", dir + "/full");
  EXPECT_THROW(files.append("/data/full", span_of("lost"), alice()),
               SystemError);

  // The same through the file.append method binding.
  rpc::Registry registry;
  bindings::register_file_methods(files, registry);
  rpc::CallContext context;
  context.identity = kAliceStr;
  EXPECT_THROW(registry.dispatch("file.append", context,
                                 {rpc::Value("/data/full"), rpc::Value("lost")}),
               SystemError);
  EXPECT_TRUE(registry
                  .dispatch("file.append", context,
                            {rpc::Value("/data/log.txt"), rpc::Value("kept")})
                  .as_bool());
  auto back = files.read("/data/log.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "kept");
}

TEST_F(FileFixture, PathEscapeRefused) {
  EXPECT_THROW(files.read("/data/../../../etc/passwd", 0, 10, alice()),
               AccessError);
  EXPECT_THROW(files.read("/data/sub/../../escape", 0, 10, alice()),
               AccessError);
  // Normalized inner dotdots that stay inside the root are fine.
  auto ok = files.read("/data/sub/../hello.txt", 0, 5, alice());
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "hello");
}

TEST_F(FileFixture, RelativePathsRefused) {
  EXPECT_THROW(files.read("data/hello.txt", 0, 5, alice()), AccessError);
}

TEST_F(FileFixture, UnknownRootRefused) {
  // With read access granted, a path under no configured root is NotFound.
  FileAcl open;
  open.read.allow_dns = {"*"};
  acl.set_file_acl("/other", open);
  EXPECT_THROW(files.read("/other/x", 0, 5, alice()), NotFoundError);
  // Without any grant the ACL check fires first.
  EXPECT_THROW(files.read("/elsewhere/x", 0, 5, alice()), AccessError);
}

TEST_F(FileFixture, MultipleRootsLongestPrefixWins) {
  TempDir tmp2;
  std::string special = tmp2.sub("special");
  std::ofstream(special + "/only-here.txt") << "special";
  files.add_root("/data/special", special);
  FileAcl open;
  open.read.allow_dns = {"*"};
  acl.set_file_acl("/data/special", open);
  auto got = files.read("/data/special/only-here.txt", 0, 100, alice());
  EXPECT_EQ(std::string(got.begin(), got.end()), "special");
}

TEST_F(FileFixture, AclDeniesListedIdentityAtLowerLevel) {
  // A lower-level ACL that does not match falls through to the /data
  // grant (paper: grants at higher levels apply "unless specifically
  // denied at the lower level") — so an unmatched allow-list alone does
  // not lock Alice out...
  FileAcl unmatched;
  unmatched.read.allow_dns = {"/O=grid/CN=Someone Else"};
  acl.set_file_acl("/data/sub", unmatched);
  EXPECT_NO_THROW(files.read("/data/sub/nested.bin", 0, 5, alice()));
  // ...but a specific deny does.
  FileAcl denied;
  denied.read.deny_dns = {kAliceStr};
  acl.set_file_acl("/data/sub", denied);
  EXPECT_THROW(files.read("/data/sub/nested.bin", 0, 5, alice()), AccessError);
  // The sibling file is still covered by the /data wildcard grant.
  EXPECT_NO_THROW(files.read("/data/hello.txt", 0, 5, alice()));
}

TEST_F(FileFixture, WriteRequiresWriteAcl) {
  // Specifically deny writes below /data/sub; reads stay open.
  FileAcl read_only;
  read_only.read.allow_dns = {"*"};
  read_only.write.deny_dns = {"*"};
  acl.set_file_acl("/data/sub", read_only);
  std::string content = "x";
  EXPECT_THROW(
      files.write("/data/sub/new.txt",
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(content.data()), 1),
                  alice()),
      AccessError);
  EXPECT_NO_THROW(files.read("/data/sub/nested.bin", 0, 1, alice()));
}

TEST_F(FileFixture, ResolveForReadChecksAclFirst) {
  FileAcl closed;
  closed.read.deny_dns = {"*"};
  acl.set_file_acl("/data/sub", closed);
  EXPECT_THROW(files.resolve_for_read("/data/sub/nested.bin", alice()),
               AccessError);
  std::string real = files.resolve_for_read("/data/hello.txt", alice());
  EXPECT_TRUE(std::filesystem::exists(real));
}

}  // namespace
}  // namespace clarens::core
