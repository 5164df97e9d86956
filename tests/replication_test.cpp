// Unit tests for the self-healing replication layer (ISSUE 10):
// FileLayout encode/decode, the LayoutTable over db::Store, the
// FaultInjector switchboard, the client RetryPolicy schedule, and the
// Replicator's event intake / suspect tracking without its worker
// thread, and the ordering of a storage node's commit reports (cluster
// behavior is covered by federation_cluster_test).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "client/routed.hpp"
#include "core/commit_reports.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "federation/layout.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "util/fault.hpp"

namespace clarens {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// FileLayout value format

TEST(FileLayout, EncodeDecodeRoundtrip) {
  federation::FileLayout layout;
  layout.path = "/data/run1/evt.bin";
  layout.replica_count = 3;
  layout.checksum = "d41d8cd98f00b204e9800998ecf8427e";
  layout.confirmed = true;
  layout.size = 4096;
  layout.updated_at = 1754700000;
  layout.dn = "/O=testgrid.org/OU=People/CN=Alice Able";  // embedded spaces
  layout.via_proxy = true;
  layout.proxy_serial = "0123ABCD";
  layout.replicas = {{"fedfarm/fst1", federation::ReplicaState::Healthy},
                     {"fedfarm/fst two", federation::ReplicaState::Pending},
                     {"fedfarm/fst3", federation::ReplicaState::Stale},
                     {"fedfarm/fst4", federation::ReplicaState::Missing}};

  auto decoded =
      federation::FileLayout::decode(layout.path, layout.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->path, layout.path);
  EXPECT_EQ(decoded->replica_count, 3);
  EXPECT_EQ(decoded->checksum, layout.checksum);
  EXPECT_TRUE(decoded->confirmed);
  EXPECT_EQ(decoded->size, 4096);
  EXPECT_EQ(decoded->updated_at, 1754700000);
  EXPECT_EQ(decoded->dn, layout.dn);
  EXPECT_TRUE(decoded->via_proxy);
  EXPECT_EQ(decoded->proxy_serial, "0123ABCD");
  ASSERT_EQ(decoded->replicas.size(), 4u);
  EXPECT_EQ(decoded->replicas[1].node_id, "fedfarm/fst two");
  EXPECT_EQ(decoded->replicas[1].state, federation::ReplicaState::Pending);
  EXPECT_EQ(decoded->replicas[3].state, federation::ReplicaState::Missing);
}

TEST(FileLayout, AdoptedChecksumRoundtripsAsUnconfirmed) {
  federation::FileLayout layout;
  layout.path = "/d/f";
  layout.checksum = "abc123";
  layout.confirmed = false;
  auto decoded = federation::FileLayout::decode("/d/f", layout.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->checksum, "abc123");
  EXPECT_FALSE(decoded->confirmed);
}

TEST(FileLayout, DecodeSkipsUnknownLinesAndBadReplicas) {
  // Forward compatibility: a layout written by a newer build with extra
  // keys must still load; malformed replica lines are dropped, not fatal.
  std::string value =
      "v1\n"
      "replica_count 2\n"
      "erasure_profile rs-6-3\n"  // future key
      "size 10\n"
      "replica healthy fedfarm/fst1\n"
      "replica warp-speed fedfarm/fst2\n"  // unknown state
      "replica healthy\n";                 // no node id
  auto decoded = federation::FileLayout::decode("/d/f", value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->replica_count, 2);
  EXPECT_EQ(decoded->size, 10);
  ASSERT_EQ(decoded->replicas.size(), 1u);
  EXPECT_EQ(decoded->replicas[0].node_id, "fedfarm/fst1");
}

TEST(FileLayout, DecodeRejectsUnknownVersion) {
  EXPECT_FALSE(federation::FileLayout::decode("/d/f", "v999\nsize 1\n"));
  EXPECT_FALSE(federation::FileLayout::decode("/d/f", ""));
}

TEST(FileLayout, MarkAndCount) {
  federation::FileLayout layout;
  layout.mark("a", federation::ReplicaState::Pending);
  layout.mark("b", federation::ReplicaState::Healthy);
  layout.mark("a", federation::ReplicaState::Healthy);  // update, not append
  ASSERT_EQ(layout.replicas.size(), 2u);
  EXPECT_EQ(layout.count(federation::ReplicaState::Healthy), 2);
  EXPECT_EQ(layout.count(federation::ReplicaState::Pending), 0);
  ASSERT_NE(layout.find("b"), nullptr);
  EXPECT_EQ(layout.find("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// LayoutTable persistence

TEST(LayoutTable, PutGetUpdateEraseAndPrefixScan) {
  db::Store store;
  federation::LayoutTable table(store);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.get("/data/run1/a").has_value());

  federation::FileLayout layout;
  layout.path = "/data/run1/a";
  layout.replica_count = 2;
  layout.mark("fedfarm/fst1", federation::ReplicaState::Pending);
  table.put(layout);
  layout.path = "/data/run2/b";
  table.put(layout);
  layout.path = "/other/c";
  table.put(layout);
  EXPECT_EQ(table.size(), 3u);

  auto loaded = table.get("/data/run1/a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->replica_count, 2);
  EXPECT_GT(loaded->updated_at, 0);  // put() stamps the write time
  ASSERT_EQ(loaded->replicas.size(), 1u);
  EXPECT_EQ(loaded->replicas[0].state, federation::ReplicaState::Pending);

  // Atomic read-modify-write: fn sees the stored copy, its edit persists.
  table.update("/data/run1/a", [](federation::FileLayout& l) {
    l.mark("fedfarm/fst1", federation::ReplicaState::Healthy);
    l.checksum = "feed";
    l.confirmed = true;
    return true;
  });
  loaded = table.get("/data/run1/a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->confirmed);
  EXPECT_EQ(loaded->replicas[0].state, federation::ReplicaState::Healthy);

  // Returning false leaves the row untouched.
  table.update("/data/run1/a", [](federation::FileLayout& l) {
    l.checksum = "discarded";
    return false;
  });
  EXPECT_EQ(table.get("/data/run1/a")->checksum, "feed");

  // update() on an absent path hands fn a fresh layout with path set.
  table.update("/new/file", [](federation::FileLayout& l) {
    EXPECT_EQ(l.path, "/new/file");
    EXPECT_TRUE(l.replicas.empty());
    return true;
  });
  EXPECT_TRUE(table.get("/new/file").has_value());

  std::vector<std::string> under_data = table.paths("/data");
  ASSERT_EQ(under_data.size(), 2u);
  EXPECT_EQ(under_data[0], "/data/run1/a");  // sorted
  EXPECT_EQ(under_data[1], "/data/run2/b");
  EXPECT_EQ(table.paths("").size(), 4u);

  table.erase("/other/c");
  EXPECT_FALSE(table.get("/other/c").has_value());
  EXPECT_EQ(table.size(), 3u);
}

// ---------------------------------------------------------------------------
// FaultInjector

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, UnarmedNeverFires) {
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/any"));
  EXPECT_EQ(util::FaultInjector::instance().fired("file.write.eio"), 0u);
}

TEST_F(FaultInjectorTest, DetailSubstringGatesTheFault) {
  auto& faults = util::FaultInjector::instance();
  faults.arm("file.write.eio", /*times=*/-1, "/fst2");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/data/fst1/x"));
  EXPECT_TRUE(util::FaultInjector::fire("file.write.eio", "/data/fst2/x"));
  EXPECT_FALSE(util::FaultInjector::fire("net.connect", "/data/fst2/x"));
  EXPECT_EQ(faults.fired("file.write.eio"), 1u);
  faults.disarm("file.write.eio");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/data/fst2/x"));
}

TEST_F(FaultInjectorTest, CountedArmExhaustsItsBudget) {
  auto& faults = util::FaultInjector::instance();
  faults.arm("net.connect", /*times=*/2);
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "a:1"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "b:2"));
  EXPECT_FALSE(util::FaultInjector::fire("net.connect", "c:3"));
  EXPECT_EQ(faults.fired("net.connect"), 2u);
}

TEST_F(FaultInjectorTest, ArmFromSpecParsesEntries) {
  auto& faults = util::FaultInjector::instance();
  faults.arm_from_spec("file.write.eio@/fst2=1;net.connect");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/fst1/x"));
  EXPECT_TRUE(util::FaultInjector::fire("file.write.eio", "/fst2/x"));
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/fst2/x"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "anything"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", ""));
}

TEST_F(FaultInjectorTest, BitFlipCorruptsOneBitAndPreservesMtime) {
  fs::path dir = fs::temp_directory_path() / "clarens_fault_test";
  fs::create_directories(dir);
  fs::path file = dir / "replica.bin";
  {
    std::ofstream out(file, std::ios::binary);
    out << "hello replica";
  }
  fs::file_time_type before = fs::last_write_time(file);
  // A rotted sector does not update timestamps; bit_flip must not either.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(util::FaultInjector::bit_flip(file.string(), 1, 0x40));
  EXPECT_EQ(fs::last_write_time(file), before);
  std::ifstream in(file, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "h%llo replica");  // 'e' ^ 0x40 == '%'
  EXPECT_EQ(content.size(), 13u);

  EXPECT_FALSE(util::FaultInjector::bit_flip(file.string(), 9999));
  EXPECT_FALSE(util::FaultInjector::bit_flip((dir / "absent").string(), 0));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RetryPolicy (client-side backoff schedule)

TEST(RetryPolicy, JitterlessScheduleIsExactCappedExponential) {
  client::RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 5000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  std::uint64_t state = policy.seed;
  std::vector<int> schedule;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    schedule.push_back(policy.delay_ms(attempt, state));
  }
  EXPECT_EQ(schedule, (std::vector<int>{100, 200, 400, 800, 1600, 3200, 5000,
                                        5000}));
  EXPECT_EQ(policy.delay_ms(0, state), 0);  // first attempt never waits
}

TEST(RetryPolicy, SameSeedSameSchedule) {
  client::RetryPolicy policy;  // defaults: jitter 0.25, seeded PRNG
  std::uint64_t a = policy.seed;
  std::uint64_t b = policy.seed;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_EQ(policy.delay_ms(attempt, a), policy.delay_ms(attempt, b))
        << "attempt " << attempt;
  }
  EXPECT_EQ(a, b);
}

TEST(RetryPolicy, JitterStaysWithinTheConfiguredBand) {
  client::RetryPolicy policy;
  policy.base_ms = 1000;
  policy.max_ms = 1000;  // flat, so the band is easy to state
  policy.jitter = 0.25;
  std::uint64_t state = policy.seed;
  bool saw_spread = false;
  for (int attempt = 1; attempt <= 50; ++attempt) {
    int delay = policy.delay_ms(attempt, state);
    EXPECT_GE(delay, 750);
    EXPECT_LE(delay, 1250);
    if (delay != 1000) saw_spread = true;
  }
  EXPECT_TRUE(saw_spread);  // jitter actually does something
}

TEST(RetryPolicy, TogglingJitterDoesNotShiftLaterDelays) {
  // The PRNG advances even at jitter=0, so two policies differing only
  // in jitter consume randomness identically.
  client::RetryPolicy flat;
  flat.jitter = 0.0;
  client::RetryPolicy jittered = flat;
  jittered.jitter = 0.25;
  std::uint64_t a = flat.seed;
  std::uint64_t b = jittered.seed;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    flat.delay_ms(attempt, a);
    jittered.delay_ms(attempt, b);
  }
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Replicator event intake (no worker thread, empty ring)

class ReplicatorTest : public ::testing::Test {
 protected:
  ReplicatorTest()
      : discovery_(store_, /*record_ttl=*/60),
        router_(discovery_, make_router_options()),
        layouts_(store_) {}

  static federation::RouterOptions make_router_options() {
    federation::RouterOptions options;
    options.secret = "replication-test-secret";
    options.refresh_ms = 0;
    return options;
  }

  federation::Replicator make_replicator(int replicas = 2) {
    federation::ReplicatorOptions options;
    options.replicas = replicas;
    options.suspect_ttl_ms = 60000;
    return federation::Replicator(router_, layouts_, std::move(options));
  }

  db::Store store_;
  discovery::DiscoveryServer discovery_;
  federation::Router router_;
  federation::LayoutTable layouts_;
  federation::WriterIdentity alice_{"/O=testgrid.org/CN=Alice", false, ""};
};

TEST_F(ReplicatorTest, NoteWriteRecordsPendingPrimaryAndWriter) {
  federation::Replicator replicator = make_replicator(/*replicas=*/2);
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);

  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->replica_count, 2);  // stamped from options
  EXPECT_TRUE(layout->checksum.empty());
  EXPECT_FALSE(layout->confirmed);
  EXPECT_EQ(layout->dn, alice_.dn);
  ASSERT_EQ(layout->replicas.size(), 1u);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst1");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
  EXPECT_EQ(replicator.stats().enqueued, 1u);
  EXPECT_EQ(replicator.stats().queue_depth, 1u);  // worker never started
}

TEST_F(ReplicatorTest, CommitConfirmsChecksumAndPromotesThePrimary) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", "cafe1234", 42,
                         alice_);

  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->checksum, "cafe1234");
  EXPECT_TRUE(layout->confirmed);
  EXPECT_EQ(layout->size, 42);
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Healthy);
  EXPECT_EQ(replicator.stats().commits, 1u);
}

TEST_F(ReplicatorTest, RewriteDemotesSurvivingHealthyReplicas) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", "v1hash", 10, alice_);
  // Second replica caught up, then the file is overwritten via fst2.
  layouts_.update("/data/run1/a", [](federation::FileLayout& l) {
    l.mark("fedfarm/fst2", federation::ReplicaState::Healthy);
    return true;
  });
  replicator.note_write("/data/run1/a", "fedfarm/fst2", alice_);

  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_TRUE(layout->checksum.empty());  // unknown until the next commit
  EXPECT_FALSE(layout->confirmed);
  // New primary first and pending; the old copy is stale, never served.
  ASSERT_EQ(layout->replicas.size(), 2u);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst2");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
  ASSERT_NE(layout->find("fedfarm/fst1"), nullptr);
  EXPECT_EQ(layout->find("fedfarm/fst1")->state,
            federation::ReplicaState::Stale);
}

TEST_F(ReplicatorTest, CommitWithoutRedirectAdoptsTheFile) {
  // A client that wrote straight to a storage node with a ticket: the
  // head only learns of the file from the commit notification.
  federation::Replicator replicator = make_replicator();
  replicator.note_commit("/data/direct", "fedfarm/fst3", "beef", 7, alice_);
  auto layout = layouts_.get("/data/direct");
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->replica_count, 2);
  EXPECT_EQ(layout->dn, alice_.dn);
  EXPECT_TRUE(layout->confirmed);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst3");
}

TEST_F(ReplicatorTest, OutOfOrderCommitReportsConvergeOnTheFinalFile) {
  // Two writers of one file on a storage node. Writer 1 hashed version 1,
  // but its report reaches the head only after writer 2 wrote version 2
  // and reported it. The head must still end up expecting version 2.
  federation::Replicator replicator = make_replicator();
  core::CommitReports reports;
  const std::string path = "/data/run1/raced";
  std::string on_disk = "version-1";
  int hashes = 0;
  auto hash = [&] {
    ++hashes;
    return core::FileService::FileChecksum{
        "md5-of-" + on_disk, static_cast<std::int64_t>(on_disk.size())};
  };
  auto to_head = [&](const core::FileService::FileChecksum& sum) {
    replicator.note_commit(path, "fedfarm/fst1", sum.md5, sum.size, alice_);
  };
  bool delayed = false;
  reports.report(path, hash, [&](const core::FileService::FileChecksum& sum) {
    if (!delayed) {
      delayed = true;
      on_disk = "version-2";               // writer 2's bytes land
      reports.report(path, hash, to_head);  // and its report overtakes
      EXPECT_EQ(layouts_.get(path)->checksum, "md5-of-version-2");
    }
    to_head(sum);  // writer 1's stale report arrives last
  });
  auto layout = layouts_.get(path);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->checksum, "md5-of-version-2");
  EXPECT_EQ(layout->size, 9);
  // Writer 1 re-hashed once after seeing writer 2's report; writer 2 did
  // not re-hash.
  EXPECT_EQ(hashes, 3);

  // A lone writer hashes its file once.
  hashes = 0;
  on_disk = "version-3";
  reports.report(path, hash, to_head);
  EXPECT_EQ(hashes, 1);
  EXPECT_EQ(layouts_.get(path)->checksum, "md5-of-version-3");
}

TEST_F(ReplicatorTest, NoteRemoveHonorsComponentBoundaries) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run10/b", "fedfarm/fst1", alice_);
  std::uint64_t before = replicator.stats().enqueued;
  // Tree remove of /data/run1 must purge itself and its child, but NOT
  // /data/run10/b (prefix string match would).
  replicator.note_remove("/data/run1");
  EXPECT_EQ(replicator.stats().enqueued - before, 2u);
}

TEST_F(ReplicatorTest, PickReadNodeIsEmptyOnAnEmptyRing) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  EXPECT_FALSE(replicator.pick_read_node("/data/run1/a").has_value());
  EXPECT_FALSE(replicator.pick_read_node("/unmanaged").has_value());
}

TEST_F(ReplicatorTest, ReportedFailuresMarkSuspectsByUrl) {
  federation::Replicator replicator = make_replicator();
  federation::NodeInfo node;
  node.id = "fedfarm/fst1";
  node.url = "http://127.0.0.1:9001/clarens";
  EXPECT_FALSE(replicator.is_suspect(node));
  replicator.report_failure(node.url);
  EXPECT_TRUE(replicator.is_suspect(node));
  EXPECT_EQ(replicator.stats().read_failures_reported, 1u);

  federation::NodeInfo other;
  other.id = "fedfarm/fst2";
  other.url = "http://127.0.0.1:9002/clarens";
  EXPECT_FALSE(replicator.is_suspect(other));
}

TEST_F(ReplicatorTest, DrainEnqueuesEveryFileTouchingTheNode) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run2/b", "fedfarm/fst2", alice_);
  replicator.note_write("/data/run3/c", "fedfarm/fst1", alice_);
  EXPECT_EQ(replicator.drain("fedfarm/fst1"), 2u);
  EXPECT_EQ(replicator.stats().draining, 1u);
  EXPECT_EQ(replicator.drain("fedfarm/absent"), 0u);
}

TEST_F(ReplicatorTest, StartStopIdempotentAndStopWithoutStartIsSafe) {
  {
    federation::Replicator replicator = make_replicator();
    replicator.stop();  // never started
  }
  {
    federation::Replicator replicator = make_replicator();
    replicator.start();
    replicator.start();  // second start is a no-op
    replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
    replicator.stop();
    replicator.stop();
  }  // destructor after stop must not hang
}

}  // namespace
}  // namespace clarens
