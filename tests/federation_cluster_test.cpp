// Three-node federation cluster, end-to-end (ISSUE 8 acceptance):
// one head + two storage nodes wired through a discovery fabric.
//
//   * files written through the head land on BOTH storage nodes
//     (consistent-hash placement over namespace prefixes);
//   * reading back through redirect envelopes returns the exact bytes;
//   * the HTTP GET path answers 307 with a ticket-bearing Location that
//     a plain client can follow to the owning node;
//   * killing and restarting one storage node mid-run causes ZERO failed
//     client calls — RoutedClient retries through the head until the
//     node is back.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "client/client.hpp"
#include "client/peer_pool.hpp"
#include "client/routed.hpp"
#include "core/server.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/node_ticket.hpp"
#include "federation/router.hpp"
#include "rpc/fault.hpp"
#include "test_fixtures.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/sync.hpp"

namespace clarens {
namespace {

using testing::TempDir;
using testing::TestPki;

constexpr const char* kSecret = "federation-cluster-secret";

/// Poll until `predicate` holds or ~5 s elapse (sanitizer headroom).
template <typename F>
bool eventually(F predicate) {
  for (int i = 0; i < 250; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

core::AclSpec allow_anyone() {
  core::AclSpec spec;
  spec.allow_dns = {core::AclSpec::kAnyone};
  return spec;
}

core::ClarensConfig node_config(const TestPki& pki, const std::string& node,
                                core::NodeRole role,
                                const std::string& data_dir,
                                const std::string& head_url,
                                std::uint16_t station_port) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  config.admins = {"/O=testgrid.org/OU=People/CN=Alice Able"};
  core::AclSpec anyone = allow_anyone();
  config.initial_method_acls = {{"system", anyone},
                                {"echo", anyone},
                                {"file", anyone},
                                {"replica", anyone}};
  core::FileAcl facl;
  facl.read = anyone;
  facl.write = anyone;
  config.initial_file_acls = {{"/data", facl}};
  config.farm = "fedfarm";
  config.node = node;
  config.node_role = role;
  config.node_ticket_secret = kSecret;
  config.head_url = head_url;
  config.station = {{"127.0.0.1", station_port}};
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (!data_dir.empty()) config.file_roots = {{"/data", data_dir}};
  return config;
}

std::size_t files_under(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

std::string as_string(const rpc::Value& value) {
  auto bytes = value.as_binary();
  return std::string(bytes.begin(), bytes.end());
}

TEST(FederationCluster, RedirectedIoAcrossNodesSurvivesNodeRestart) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;

  // Discovery fabric: one station, one aggregating discovery server.
  // Generous TTL: a node's liveness is decided by connect attempts in
  // this test, not by heartbeat lapses under sanitizer load.
  discovery::StationServer station;
  db::Store store;
  discovery::DiscoveryServer discovery(store, /*record_ttl=*/5);
  discovery.subscribe("127.0.0.1", station.port());

  // Head: owns sessions + namespace, serves no file bytes itself.
  core::ClarensServer head(node_config(pki, "head", core::NodeRole::Head,
                                       /*data_dir=*/"", /*head_url=*/"",
                                       station.port()));
  head.attach_discovery(discovery);
  head.start();
  const std::string head_url = head.url();

  // Two storage nodes, each exporting "/data" from its own directory.
  std::string dir1 = tmp.sub("fst1");
  std::string dir2 = tmp.sub("fst2");
  auto storage1 = std::make_unique<core::ClarensServer>(node_config(
      pki, "fst1", core::NodeRole::Storage, dir1, head_url, station.port()));
  storage1->start();
  auto storage2 = std::make_unique<core::ClarensServer>(node_config(
      pki, "fst2", core::NodeRole::Storage, dir2, head_url, station.port()));
  storage2->start();
  const std::uint16_t storage2_port = storage2->port();

  ASSERT_NE(head.router(), nullptr);
  ASSERT_TRUE(eventually(
      [&] { return head.router()->storage_nodes().size() == 2; }))
      << "head never saw both storage nodes via discovery";

  // Generous retry budget: a restarting node under TSan can take a
  // couple of seconds to come back.
  client::ClientOptions base;
  base.credential = pki.alice;
  base.trust = &pki.trust;
  client::RoutedClient client(head_url, base, /*max_attempts=*/40,
                              /*retry_backoff_ms=*/100);
  client.authenticate();

  // Spread files over many placement prefixes. The ring is
  // deterministic, so with 12 prefixes on 2 nodes both get a share.
  std::map<std::string, std::string> written;
  for (int i = 0; i < 12; ++i) {
    std::string run = "/data/run" + std::to_string(i);
    std::string path = run + "/evt.bin";
    std::string payload =
        "payload-" + std::to_string(i) + "-" + std::string(64, 'x');
    client.call("file.mkdir", {rpc::Value(run)});
    EXPECT_TRUE(
        client.call("file.write", {rpc::Value(path), rpc::Value(payload)})
            .as_bool());
    written[path] = payload;
  }
  EXPECT_GT(client.redirects_followed(), 0u)
      << "calls never bounced through a storage node";
  EXPECT_GT(files_under(dir1), 0u) << "placement starved node fst1";
  EXPECT_GT(files_under(dir2), 0u) << "placement starved node fst2";

  // Redirected read == written bytes, for every file.
  for (const auto& [path, payload] : written) {
    rpc::Value bytes = client.call(
        "file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                      rpc::Value(std::int64_t{1 << 20})});
    EXPECT_EQ(as_string(bytes), payload) << path;
  }

  // Fan-out listing merges both nodes' views of the one namespace.
  rpc::Value listing = client.call("file.ls", {rpc::Value("/data")});
  EXPECT_EQ(listing.as_array().size(), 12u);

  // file.find fans out likewise and merges full paths.
  rpc::Value hits = client.call(
      "file.find", {rpc::Value("/data"), rpc::Value("evt")});
  EXPECT_EQ(hits.as_array().size(), 12u);

  // Placement introspection names a live owner for each prefix.
  rpc::Value located =
      client.call("file.locate", {rpc::Value("/data/run0/evt.bin")});
  EXPECT_EQ(located.at("prefix").as_string(), "/data/run0");
  ASSERT_FALSE(located.at("owners").as_array().empty());

  // The GET path: the head answers 307 with a ticket-bearing Location;
  // following it manually on a fresh plain client yields the bytes.
  http::Response redirect = client.head().get("/data/run0/evt.bin");
  ASSERT_EQ(redirect.status, 307);
  const std::string* location = redirect.headers.find("Location");
  ASSERT_NE(location, nullptr);
  client::PeerEndpoint target = client::PeerEndpoint::parse(*location);
  std::size_t path_pos = location->find('/', location->find("://") + 3);
  ASSERT_NE(path_pos, std::string::npos);
  client::ClientOptions direct_options;
  direct_options.host = target.host;
  direct_options.port = target.port;
  client::ClarensClient direct(direct_options);
  direct.connect();
  http::Response got = direct.get(location->substr(path_pos));
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, written.at("/data/run0/evt.bin"));
  // Tickets are scoped to one placement prefix: presenting run0's
  // ticket for a run1 path is refused outright.
  std::size_t query_pos = location->find("?ticket=");
  ASSERT_NE(query_pos, std::string::npos);
  // GET-minted tickets are read-only capabilities carrying the session
  // identity: the query string is loggable, so a leaked token must
  // never authorize a mutation.
  {
    std::string token = location->substr(query_pos + 8);
    if (auto amp = token.find('&'); amp != std::string::npos) {
      token.resize(amp);
    }
    auto minted = federation::NodeTicket::verify(kSecret, token,
                                                 util::unix_now());
    ASSERT_TRUE(minted.has_value());
    EXPECT_EQ(minted->dn, "/O=testgrid.org/OU=People/CN=Alice Able");
    EXPECT_EQ(minted->scope, "/data/run0");
    EXPECT_FALSE(minted->write);
  }
  EXPECT_EQ(
      direct.get("/data/run1/evt.bin" + location->substr(query_pos)).status,
      403);

  // The Location percent-encodes the path: a file name with a space
  // survives the redirect hop as a well-formed URL and decodes back to
  // the same file on the owning node.
  std::string odd_path = "/data/run0/evt copy.bin";
  EXPECT_TRUE(client
                  .call("file.write", {rpc::Value(odd_path),
                                       rpc::Value(std::string("spacey"))})
                  .as_bool());
  http::Response odd_redirect = client.head().get("/data/run0/evt%20copy.bin");
  ASSERT_EQ(odd_redirect.status, 307);
  const std::string* odd_location = odd_redirect.headers.find("Location");
  ASSERT_NE(odd_location, nullptr);
  EXPECT_NE(odd_location->find("/data/run0/evt%20copy.bin"),
            std::string::npos)
      << *odd_location;
  std::size_t odd_path_pos =
      odd_location->find('/', odd_location->find("://") + 3);
  ASSERT_NE(odd_path_pos, std::string::npos);
  // Same placement prefix as run0's evt.bin, so `direct` already points
  // at the owning node.
  http::Response odd_got = direct.get(odd_location->substr(odd_path_pos));
  EXPECT_EQ(odd_got.status, 200);
  EXPECT_EQ(odd_got.body, "spacey");

  // Kill storage node 2 and restart it on the same port in the
  // background while the client keeps reading every file: the retry-
  // through-head loop must ride out the restart with zero failures.
  storage2->stop();
  storage2.reset();
  util::Thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    core::ClarensConfig config = node_config(
        pki, "fst2", core::NodeRole::Storage, dir2, head_url, station.port());
    config.port = storage2_port;
    storage2 = std::make_unique<core::ClarensServer>(std::move(config));
    storage2->start();
  });
  std::size_t failed = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [path, payload] : written) {
      try {
        rpc::Value bytes = client.call(
            "file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                          rpc::Value(std::int64_t{1 << 20})});
        EXPECT_EQ(as_string(bytes), payload) << path;
      } catch (const Error& e) {
        ADD_FAILURE() << "client call failed during restart: " << path
                      << ": " << e.what();
        ++failed;
      } catch (const rpc::Fault& e) {
        ADD_FAILURE() << "client call faulted during restart: " << path
                      << ": " << e.what();
        ++failed;
      }
    }
  }
  restarter.join();
  EXPECT_EQ(failed, 0u);

  // The restarted node serves its files again, first try.
  for (const auto& [path, payload] : written) {
    EXPECT_EQ(as_string(client.call(
                  "file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                                rpc::Value(std::int64_t{1 << 20})})),
              payload);
  }

  storage2->stop();
  storage1->stop();
  head.stop();
}

/// Poll with an explicit budget — re-replication after a node death has
/// to wait out the discovery TTL plus the grace period, which does not
/// fit eventually()'s 5 s under sanitizers.
template <typename F>
bool eventually_for(int seconds, F predicate) {
  for (int i = 0; i < seconds * 50; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

std::string disk_bytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Self-healing replication, end to end (ISSUE 10 acceptance): with
// placement_replicas=2 over three storage nodes,
//   * every write is re-replicated to a second node and its checksum is
//     confirmed by the commit notification;
//   * SIGKILLing a replica-holding node mid-workload costs ZERO failed
//     client reads (suspect tracking + layout-aware read routing), and
//     the repair engine restores full replication on the survivors;
//   * flipping a bit in one replica on disk is caught by replica.fsck,
//     which repairs the copy byte-identical from the healthy replica.
TEST(FederationCluster, SelfHealingReplicationSurvivesNodeDeathAndBitRot) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;

  discovery::StationServer station;
  db::Store store;
  // Short record TTL: a dead node must drop out of the ring quickly so
  // the grace period — not discovery lag — dominates repair latency.
  discovery::DiscoveryServer discovery(store, /*record_ttl=*/2);
  discovery.subscribe("127.0.0.1", station.port());

  core::ClarensConfig head_config =
      node_config(pki, "head", core::NodeRole::Head, /*data_dir=*/"",
                  /*head_url=*/"", station.port());
  head_config.placement_replicas = 2;
  head_config.replication_grace_ms = 500;
  head_config.replica_suspect_ttl_ms = 2000;
  core::ClarensServer head(std::move(head_config));
  head.attach_discovery(discovery);
  head.start();
  const std::string head_url = head.url();

  const std::array<const char*, 3> names = {"fst1", "fst2", "fst3"};
  std::array<std::string, 3> dirs;
  std::array<std::unique_ptr<core::ClarensServer>, 3> storages;
  for (std::size_t i = 0; i < storages.size(); ++i) {
    dirs[i] = tmp.sub(names[i]);
    storages[i] = std::make_unique<core::ClarensServer>(
        node_config(pki, names[i], core::NodeRole::Storage, dirs[i], head_url,
                    station.port()));
    storages[i]->start();
  }
  ASSERT_NE(head.router(), nullptr);
  ASSERT_NE(head.replicator(), nullptr);
  ASSERT_TRUE(eventually(
      [&] { return head.router()->storage_nodes().size() == 3; }))
      << "head never saw all three storage nodes via discovery";

  client::ClientOptions base;
  base.credential = pki.alice;
  base.trust = &pki.trust;
  client::RoutedClient client(head_url, base, /*max_attempts=*/40,
                              /*retry_backoff_ms=*/100);
  client.authenticate();

  // A workload across many placement prefixes, including one file large
  // enough that its replica pull needs several 1 MiB chunks, the last one
  // partial.
  std::map<std::string, std::string> written;
  for (int i = 0; i < 10; ++i) {
    std::string run = "/data/rep" + std::to_string(i);
    std::string path = run + "/evt.bin";
    std::string payload =
        i == 0 ? std::string(2 * 1024 * 1024 + 150 * 1024,
                             static_cast<char>('a' + i))
               : "payload-" + std::to_string(i) + "-" + std::string(64, 'y');
    client.call("file.mkdir", {rpc::Value(run)});
    ASSERT_TRUE(
        client.call("file.write", {rpc::Value(path), rpc::Value(payload)})
            .as_bool());
    written[path] = payload;
  }

  // Every layout converges to 2 healthy replicas with a checksum the
  // writing node itself confirmed.
  auto healthy_replicas = [&](const std::string& path) {
    std::vector<std::string> nodes;
    try {
      rpc::Value layout = client.call("file.layout", {rpc::Value(path)});
      if (!layout.at("confirmed").as_bool()) return nodes;
      for (const rpc::Value& replica : layout.at("replicas").as_array()) {
        if (replica.at("state").as_string() == "healthy") {
          nodes.push_back(replica.at("node").as_string());
        }
      }
    } catch (const std::exception&) {
    }
    return nodes;
  };
  auto fully_replicated = [&] {
    for (const auto& [path, payload] : written) {
      if (healthy_replicas(path).size() < 2) return false;
    }
    return true;
  };
  ASSERT_TRUE(eventually_for(15, fully_replicated))
      << "initial replication never converged";

  // The table and the disks agree: each file sits on exactly the two
  // nodes its layout names, byte-identical to what the client wrote.
  for (const auto& [path, payload] : written) {
    std::vector<std::string> nodes = healthy_replicas(path);
    ASSERT_EQ(nodes.size(), 2u) << path;
    std::string rel = path.substr(std::string("/data").size());
    int copies_on_disk = 0;
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      bool listed = std::find(nodes.begin(), nodes.end(),
                              std::string("fedfarm/") + names[i]) !=
                    nodes.end();
      bool on_disk = std::filesystem::exists(dirs[i] + rel);
      EXPECT_EQ(listed, on_disk) << path << " on " << names[i];
      if (on_disk) {
        ++copies_on_disk;
        EXPECT_EQ(disk_bytes(dirs[i] + rel), payload) << path;
      }
    }
    EXPECT_EQ(copies_on_disk, 2) << path;
  }

  // Control plane: the layout reports its placement, the engine its work.
  rpc::Value layout =
      client.call("file.layout", {rpc::Value("/data/rep0/evt.bin")});
  EXPECT_EQ(layout.at("replica_count").as_int(), 2);
  EXPECT_EQ(layout.at("checksum").as_string().size(), 32u);
  EXPECT_FALSE(layout.at("ring_owners").as_array().empty());
  rpc::Value listing = client.call("replica.list", {rpc::Value("/data")});
  EXPECT_EQ(listing.as_array().size(), written.size());
  rpc::Value status = client.call("replica.status", {});
  EXPECT_GE(status.at("commits").as_int(),
            static_cast<std::int64_t>(written.size()));
  EXPECT_GE(status.at("copies").as_int(),
            static_cast<std::int64_t>(written.size()));

#ifdef CLARENS_FAULT_INJECTION
  // A storage node whose disk refuses a write must surface the error to
  // the writer — and recover on the next attempt once the (one-shot)
  // fault is spent.
  util::FaultInjector::instance().arm("file.write.eio", /*times=*/1);
  EXPECT_THROW(client.call("file.write", {rpc::Value("/data/rep1/eio.bin"),
                                          rpc::Value(std::string("doomed"))}),
               std::exception);
  EXPECT_EQ(util::FaultInjector::instance().fired("file.write.eio"), 1u);
  util::FaultInjector::instance().reset();
  ASSERT_TRUE(client
                  .call("file.write", {rpc::Value("/data/rep1/eio.bin"),
                                       rpc::Value(std::string("recovered"))})
                  .as_bool());
  written["/data/rep1/eio.bin"] = "recovered";
  ASSERT_TRUE(eventually_for(15, fully_replicated));
#endif

  // Kill a replica-holding node for good. The client keeps reading the
  // whole workload: reads may bounce once to the dead node, but the
  // retry-through-head loop plus suspect tracking must deliver every
  // byte with zero caller-visible failures.
  std::size_t victim = 2;
  while (victim > 0 && files_under(dirs[victim]) == 0) --victim;
  ASSERT_GT(files_under(dirs[victim]), 0u);
  std::string victim_id = std::string("fedfarm/") + names[victim];
  storages[victim]->stop();
  storages[victim].reset();

  std::size_t failed = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [path, payload] : written) {
      try {
        rpc::Value bytes = client.call(
            "file.read", {rpc::Value(path), rpc::Value(std::int64_t{0}),
                          rpc::Value(std::int64_t{4 << 20})});
        EXPECT_EQ(as_string(bytes), payload) << path;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "read failed while " << victim_id
                      << " was dead: " << path << ": " << e.what();
        ++failed;
      }
    }
  }
  EXPECT_EQ(failed, 0u);

  // The repair engine re-replicates everything onto the survivors once
  // the node is past discovery TTL + grace.
  auto survivors_hold_everything = [&] {
    for (const auto& [path, payload] : written) {
      std::vector<std::string> nodes = healthy_replicas(path);
      if (nodes.size() < 2) return false;
      for (const std::string& node : nodes) {
        if (node == victim_id) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(eventually_for(30, survivors_hold_everything))
      << "re-replication after node death never converged";
  for (const auto& [path, payload] : written) {
    std::string rel = path.substr(std::string("/data").size());
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      if (i == victim) continue;
      EXPECT_EQ(disk_bytes(dirs[i] + rel), payload)
          << path << " on survivor " << names[i];
    }
  }

  // Bit rot: flip one bit in one replica on disk (mtime preserved — a
  // rotted sector announces nothing). The scrub must catch the replica
  // whose hash diverges from the confirmed layout checksum and repair it
  // from the healthy copy, byte-identical.
  const std::string rot_path = "/data/rep3/evt.bin";
  const std::string rot_rel = rot_path.substr(std::string("/data").size());
  std::size_t rotten = victim == 0 ? 1 : 0;
  ASSERT_TRUE(std::filesystem::exists(dirs[rotten] + rot_rel));
  ASSERT_TRUE(
      util::FaultInjector::bit_flip(dirs[rotten] + rot_rel, 4, 0x10));
  ASSERT_NE(disk_bytes(dirs[rotten] + rot_rel), written.at(rot_path));

  rpc::Value fsck = client.call("replica.fsck", {rpc::Value("/data")});
  EXPECT_GE(fsck.at("mismatched").as_int(), 1);
  EXPECT_GE(fsck.at("repaired").as_int(), 1);
  EXPECT_EQ(fsck.at("failed").as_int(), 0);
  EXPECT_EQ(fsck.at("under_replicated").as_int(), 0);
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    if (i == victim) continue;
    EXPECT_EQ(disk_bytes(dirs[i] + rot_rel), written.at(rot_path))
        << "replica on " << names[i] << " not repaired byte-identical";
  }
  EXPECT_EQ(as_string(client.call(
                "file.read", {rpc::Value(rot_path), rpc::Value(std::int64_t{0}),
                              rpc::Value(std::int64_t{4 << 20})})),
            written.at(rot_path));

  for (auto& storage : storages) {
    if (storage) storage->stop();
  }
  head.stop();
}

// A node ticket is a scoped file *capability*, not a blanket identity:
// the storage node must refuse anything the ticket does not literally
// cover — wrong subtree, mutation on a read-only ticket, or a non-file
// method (the REVIEW finding: a read ticket for /data/run1 must not
// authorize file.rm anywhere as the embedded DN).
TEST(FederationCluster, StorageEnforcesTicketScopeAndVerb) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  discovery::StationServer station;
  std::string dir = tmp.sub("fst");
  core::ClarensServer storage(
      node_config(pki, "fst", core::NodeRole::Storage, dir,
                  "http://127.0.0.1:1/clarens", station.port()));
  storage.start();
  std::filesystem::create_directories(dir + "/run1");
  { std::ofstream(dir + "/run1/evt.bin") << "payload"; }

  auto ticket_for = [&](const std::string& scope, bool write) {
    federation::NodeTicket ticket;
    ticket.dn = "/O=testgrid.org/OU=People/CN=Alice Able";
    ticket.scope = scope;
    ticket.write = write;
    ticket.expires = util::unix_now() + 60;
    return ticket.mint(kSecret);
  };
  auto read_call = [](const std::string& path) {
    return std::vector<rpc::Value>{rpc::Value(path),
                                   rpc::Value(std::int64_t{0}),
                                   rpc::Value(std::int64_t{1 << 20})};
  };

  client::ClientOptions options;
  options.port = storage.port();
  client::ClarensClient client(options);
  client.connect();

  // Read ticket scoped to /data/run1: reads inside the scope work...
  client.set_header("X-Clarens-Node-Ticket",
                    ticket_for("/data/run1", /*write=*/false));
  EXPECT_EQ(as_string(client.call("file.read", read_call("/data/run1/evt.bin"))),
            "payload");
  EXPECT_FALSE(
      client.call("file.stat", {rpc::Value("/data/run1/evt.bin")})
          .at("is_directory")
          .as_bool());
  // ...but no mutations (read-only verb), nothing outside the scope
  // (read or write), and no non-file methods at all.
  EXPECT_THROW(client.call("file.write", {rpc::Value("/data/run1/new.bin"),
                                          rpc::Value(std::string("x"))}),
               rpc::Fault);
  EXPECT_THROW(client.call("file.read", read_call("/data/run2/evt.bin")),
               rpc::Fault);
  EXPECT_THROW(client.call("file.rm", {rpc::Value("/data/run2/evt.bin")}),
               rpc::Fault);
  EXPECT_THROW(client.call("file.mkdir", {rpc::Value("/data/run2")}),
               rpc::Fault);
  EXPECT_THROW(client.call("echo.echo", {rpc::Value(std::int64_t{1})}),
               rpc::Fault);

  // Write ticket: mutations inside the scope only.
  client.set_header("X-Clarens-Node-Ticket",
                    ticket_for("/data/run1", /*write=*/true));
  EXPECT_TRUE(client
                  .call("file.write", {rpc::Value("/data/run1/new.bin"),
                                       rpc::Value(std::string("fresh"))})
                  .as_bool());
  EXPECT_EQ(as_string(client.call("file.read", read_call("/data/run1/new.bin"))),
            "fresh");
  EXPECT_THROW(client.call("file.rm", {rpc::Value("/data/run2/evt.bin")}),
               rpc::Fault);

  storage.stop();
}

// file.pull, the replica copy primitive: the target node fetches a file
// from a source storage node itself. It needs a write ticket covering the
// path, forwards only a read ticket for the same caller and path (checked
// before any connection to the source), and lands the bytes only when
// they hash to the expected md5.
TEST(FederationCluster, StoragePullsReplicaUnderScopedTickets) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  discovery::StationServer station;
  std::string source_dir = tmp.sub("src");
  std::string target_dir = tmp.sub("dst");
  core::ClarensServer source(
      node_config(pki, "src", core::NodeRole::Storage, source_dir,
                  "http://127.0.0.1:1/clarens", station.port()));
  core::ClarensServer target(
      node_config(pki, "dst", core::NodeRole::Storage, target_dir,
                  "http://127.0.0.1:1/clarens", station.port()));
  source.start();
  target.start();

  // Two full 1 MiB chunks and a partial third.
  std::string payload(2 * 1024 * 1024 + 12345, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131 + i / 7) & 0xff);
  }
  std::filesystem::create_directories(source_dir + "/run1");
  {
    std::ofstream out(source_dir + "/run1/big.bin", std::ios::binary);
    out << payload;
  }
  const std::string md5 = crypto::Md5::hex(payload);
  const std::string alice = "/O=testgrid.org/OU=People/CN=Alice Able";

  auto ticket_for = [&](const std::string& scope, bool write,
                        const std::string& dn) {
    federation::NodeTicket ticket;
    ticket.dn = dn;
    ticket.scope = scope;
    ticket.write = write;
    ticket.expires = util::unix_now() + 60;
    return ticket.mint(kSecret);
  };
  const std::string read_ticket = ticket_for("/data/run1", false, alice);
  auto pull = [&](const std::string& source_ticket, const std::string& path,
                  const std::string& expected) {
    return std::vector<rpc::Value>{rpc::Value(source.url()),
                                   rpc::Value(source_ticket), rpc::Value(path),
                                   rpc::Value(expected)};
  };

  client::ClientOptions options;
  options.port = target.port();
  client::ClarensClient client(options);
  client.connect();

  // A session is not enough; the caller's ticket must be a write ticket
  // covering the path.
  client.set_session(target.direct_login(alice).id);
  EXPECT_THROW(client.call("file.pull",
                           pull(read_ticket, "/data/run1/big.bin", md5)),
               rpc::Fault);
  client.set_session("");
  client.set_header("X-Clarens-Node-Ticket",
                    ticket_for("/data/run1", false, alice));
  EXPECT_THROW(client.call("file.pull",
                           pull(read_ticket, "/data/run1/big.bin", md5)),
               rpc::Fault);
  client.set_header("X-Clarens-Node-Ticket",
                    ticket_for("/data/run2", true, alice));
  EXPECT_THROW(client.call("file.pull",
                           pull(read_ticket, "/data/run1/big.bin", md5)),
               rpc::Fault);

  // The source ticket: a forgery, a write-capable ticket, one for another
  // subtree or another identity never reaches the source.
  client.set_header("X-Clarens-Node-Ticket",
                    ticket_for("/data/run1", true, alice));
  federation::NodeTicket forged;
  forged.dn = alice;
  forged.scope = "/data/run1";
  forged.expires = util::unix_now() + 60;
  std::uint64_t served = source.requests_served();
  for (const std::string& bad :
       {forged.mint("some-other-cluster-secret"), std::string("not-a-ticket"),
        ticket_for("/data/run1", true, alice),
        ticket_for("/data/run2", false, alice),
        ticket_for("/data/run1", false,
                   "/O=testgrid.org/OU=People/CN=Bob Baker")}) {
    EXPECT_THROW(
        client.call("file.pull", pull(bad, "/data/run1/big.bin", md5)),
        rpc::Fault)
        << bad;
  }
  EXPECT_EQ(source.requests_served(), served);
  EXPECT_FALSE(std::filesystem::exists(target_dir + "/run1/big.bin"));

  // A wrong md5 fails the pull.
  EXPECT_THROW(client.call("file.pull",
                           pull(read_ticket, "/data/run1/big.bin",
                                std::string(32, '0'))),
               rpc::Fault);

  // The real thing lands byte-identical, parent directory created.
  EXPECT_EQ(client.call("file.pull",
                        pull(read_ticket, "/data/run1/big.bin", md5))
                .as_int(),
            static_cast<std::int64_t>(payload.size()));
  EXPECT_EQ(disk_bytes(target_dir + "/run1/big.bin"), payload);

  // Only storage nodes copy replicas.
  core::ClarensServer standalone(
      node_config(pki, "solo", core::NodeRole::Standalone, tmp.sub("solo"),
                  "", station.port()));
  EXPECT_EQ(standalone.registry().find("file.pull"), nullptr);
  EXPECT_NE(target.registry().find("file.pull"), nullptr);

  target.stop();
  source.stop();
}

}  // namespace
}  // namespace clarens
