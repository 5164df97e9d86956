// Unit tests for the federation layer (ISSUE 8): consistent-hash
// placement, node tickets, the discovery-fed router, the redirect
// envelope, and the per-node client pool.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "client/peer_pool.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/publisher.hpp"
#include "discovery/station.hpp"
#include "federation/node_ticket.hpp"
#include "federation/placement.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::federation {
namespace {

NodeInfo make_node(const std::string& id, double capacity = 1.0) {
  NodeInfo node;
  node.id = id;
  node.url = "http://" + id + ":8080/clarens";
  node.capacity = capacity;
  return node;
}

TEST(Placement, PrefixOfNormalizesDepth) {
  EXPECT_EQ(Placement::prefix_of("/data/run1/evt.bin", 2), "/data/run1");
  EXPECT_EQ(Placement::prefix_of("/data/run1", 2), "/data/run1");
  EXPECT_EQ(Placement::prefix_of("/data", 2), "/data");
  EXPECT_EQ(Placement::prefix_of("//data///run1//x", 2), "/data/run1");
  EXPECT_EQ(Placement::prefix_of("/data/run1/evt.bin", 1), "/data");
  EXPECT_EQ(Placement::prefix_of("/", 2), "/");
  EXPECT_EQ(Placement::prefix_of("", 2), "/");
}

TEST(Placement, EmptyRingOwnsNothing) {
  Placement placement;
  EXPECT_TRUE(placement.empty());
  EXPECT_FALSE(placement.owner("/data/run1").has_value());
  EXPECT_TRUE(placement.owners("/data/run1", 3).empty());
}

TEST(Placement, DeterministicAndStableAcrossRebuilds) {
  Placement a, b;
  std::vector<NodeInfo> nodes = {make_node("farm/n1"), make_node("farm/n2"),
                                 make_node("farm/n3")};
  a.set_nodes(nodes);
  b.set_nodes(nodes);  // independent instance, same membership
  for (const char* prefix : {"/data/run1", "/data/run2", "/sandbox/u1"}) {
    ASSERT_TRUE(a.owner(prefix).has_value());
    EXPECT_EQ(a.owner(prefix)->id, b.owner(prefix)->id) << prefix;
  }
}

TEST(Placement, SpreadsPrefixesAcrossNodes) {
  Placement placement;
  placement.set_nodes({make_node("farm/n1"), make_node("farm/n2")});
  std::map<std::string, int> per_node;
  for (int i = 0; i < 200; ++i) {
    auto owner = placement.owner("/data/run" + std::to_string(i));
    ASSERT_TRUE(owner.has_value());
    ++per_node[owner->id];
  }
  // Both nodes get a meaningful share (64 vnodes each; a 90/10 split
  // would indicate a broken ring walk).
  EXPECT_GE(per_node["farm/n1"], 40);
  EXPECT_GE(per_node["farm/n2"], 40);
}

TEST(Placement, CapacityWeightsTheRing) {
  Placement placement;
  placement.set_nodes({make_node("farm/big", 4.0), make_node("farm/small", 1.0)});
  std::map<std::string, int> per_node;
  for (int i = 0; i < 400; ++i) {
    ++per_node[placement.owner("/data/run" + std::to_string(i))->id];
  }
  EXPECT_GT(per_node["farm/big"], per_node["farm/small"] * 2);
}

TEST(Placement, RemovingANodeOnlyMovesItsPrefixes) {
  Placement before, after;
  before.set_nodes(
      {make_node("farm/n1"), make_node("farm/n2"), make_node("farm/n3")});
  after.set_nodes({make_node("farm/n1"), make_node("farm/n2")});
  int moved = 0, total = 300;
  for (int i = 0; i < total; ++i) {
    std::string prefix = "/data/run" + std::to_string(i);
    std::string owner_before = before.owner(prefix)->id;
    std::string owner_after = after.owner(prefix)->id;
    if (owner_before == "farm/n3") {
      // Orphaned prefixes must land on a surviving node.
      EXPECT_NE(owner_after, "farm/n3");
    } else if (owner_before != owner_after) {
      ++moved;  // consistent hashing: this should be rare
    }
  }
  EXPECT_LT(moved, total / 10);
}

TEST(Placement, ReplicasAreDistinctAndOrdered) {
  Placement placement;
  placement.set_nodes(
      {make_node("farm/n1"), make_node("farm/n2"), make_node("farm/n3")});
  std::vector<NodeInfo> owners = placement.owners("/data/run1", 3);
  ASSERT_EQ(owners.size(), 3u);
  std::set<std::string> distinct;
  for (const auto& node : owners) distinct.insert(node.id);
  EXPECT_EQ(distinct.size(), 3u);
  // The primary is the single-owner answer.
  EXPECT_EQ(owners[0].id, placement.owner("/data/run1")->id);
  // Asking for more replicas than nodes caps at the node count.
  EXPECT_EQ(placement.owners("/data/run1", 9).size(), 3u);
}

TEST(Placement, AdvertisedPrefixesRestrictOwnership) {
  NodeInfo data_only = make_node("farm/data");
  data_only.prefixes = {"/data"};
  NodeInfo sandbox_only = make_node("farm/sandbox");
  sandbox_only.prefixes = {"/sandbox"};
  Placement placement;
  placement.set_nodes({data_only, sandbox_only});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(placement.owner("/data/run" + std::to_string(i))->id,
              "farm/data");
    EXPECT_EQ(placement.owner("/sandbox/u" + std::to_string(i))->id,
              "farm/sandbox");
  }
  // "/database" must not match the "/data" root (component boundary).
  EXPECT_FALSE(placement.owner("/database").has_value());
}

TEST(Placement, OwnerChurnMovesFewReplicaSets) {
  // The replicator places each file by its full owners() chain; a node
  // joining must disturb few existing replica sets, or every membership
  // change would trigger a cluster-wide re-replication storm.
  Placement before, after;
  std::vector<NodeInfo> nodes = {make_node("farm/n1"), make_node("farm/n2"),
                                 make_node("farm/n3"), make_node("farm/n4")};
  before.set_nodes(nodes);
  nodes.push_back(make_node("farm/n5"));
  after.set_nodes(nodes);
  int disturbed = 0, total = 300;
  for (int i = 0; i < total; ++i) {
    std::string prefix = "/data/run" + std::to_string(i);
    std::vector<NodeInfo> a = before.owners(prefix, 2);
    std::vector<NodeInfo> b = after.owners(prefix, 2);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    std::set<std::string> set_a, set_b;
    for (const auto& n : a) set_a.insert(n.id);
    for (const auto& n : b) set_b.insert(n.id);
    // Any change to a set means a copy-in and (eventually) a purge; a
    // set only changes when the new node inserted into its ring walk.
    if (set_a != set_b) {
      ++disturbed;
      EXPECT_TRUE(set_b.count("farm/n5"))
          << prefix << ": set changed without involving the joiner";
    }
  }
  // The joiner holds ~1/5 of the ring; with 2 ranks per set, expect
  // roughly 2/5 of sets touched — well under a full reshuffle.
  EXPECT_LT(disturbed, total * 6 / 10);
  EXPECT_GT(disturbed, 0);  // it must take SOME load
}

TEST(Placement, AdvertisedPrefixesGateEveryReplicaRank) {
  // Prefix gating is not a primary-only rule: a node that does not
  // export /data must never appear at ANY rank of a /data replica set,
  // or the repair engine would copy bytes to a node that refuses them.
  NodeInfo sandbox_only = make_node("farm/sandbox");
  sandbox_only.prefixes = {"/sandbox"};
  Placement placement;
  placement.set_nodes({make_node("farm/n1"), make_node("farm/n2"),
                       sandbox_only});
  for (int i = 0; i < 100; ++i) {
    std::string prefix = "/data/run" + std::to_string(i);
    std::vector<NodeInfo> owners = placement.owners(prefix, 3);
    // Only the two exporters qualify, even though 3 ranks were asked.
    ASSERT_EQ(owners.size(), 2u) << prefix;
    for (const auto& node : owners) {
      EXPECT_NE(node.id, "farm/sandbox") << prefix;
    }
  }
  // The restricted node still serves its own namespace at depth > 0.
  bool sandbox_seen = false;
  for (int i = 0; i < 100; ++i) {
    for (const auto& node :
         placement.owners("/sandbox/u" + std::to_string(i), 3)) {
      if (node.id == "farm/sandbox") sandbox_seen = true;
    }
  }
  EXPECT_TRUE(sandbox_seen);
}

TEST(NodeTicket, MintVerifyRoundTrip) {
  NodeTicket ticket;
  ticket.dn = "/O=testgrid.org/OU=People/CN=Alice Able";
  ticket.via_proxy = true;
  ticket.proxy_serial = "serial-42";
  ticket.scope = "/data/run1";
  ticket.write = true;
  ticket.expires = util::unix_now() + 60;
  std::string token = ticket.mint("super-secret-cluster-key");
  auto back = NodeTicket::verify("super-secret-cluster-key", token,
                                 util::unix_now());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dn, ticket.dn);
  EXPECT_TRUE(back->via_proxy);
  EXPECT_EQ(back->proxy_serial, "serial-42");
  EXPECT_EQ(back->scope, "/data/run1");
  EXPECT_TRUE(back->write);
  EXPECT_EQ(back->expires, ticket.expires);

  // The write bit is covered by the MAC and defaults to read-only.
  ticket.write = false;
  auto readonly = NodeTicket::verify("super-secret-cluster-key",
                                     ticket.mint("super-secret-cluster-key"),
                                     util::unix_now());
  ASSERT_TRUE(readonly.has_value());
  EXPECT_FALSE(readonly->write);
  // Tokens must be header/URL-safe: version dot hex dot hex.
  EXPECT_EQ(token.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz0123456789."),
            std::string::npos);
}

TEST(NodeTicket, RejectsTamperWrongSecretAndExpiry) {
  NodeTicket ticket;
  ticket.dn = "/O=testgrid.org/CN=Alice";
  ticket.scope = "/data";
  ticket.expires = util::unix_now() + 60;
  std::string token = ticket.mint("super-secret-cluster-key");

  EXPECT_FALSE(NodeTicket::verify("wrong-secret", token, util::unix_now()));
  // Flip one payload nibble: MAC mismatch.
  std::string tampered = token;
  std::size_t payload_pos = tampered.find('.') + 1;
  tampered[payload_pos] = tampered[payload_pos] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(NodeTicket::verify("super-secret-cluster-key", tampered,
                                  util::unix_now()));
  // Expired.
  EXPECT_FALSE(NodeTicket::verify("super-secret-cluster-key", token,
                                  ticket.expires + 1));
  // Garbage shapes never throw.
  EXPECT_FALSE(NodeTicket::verify("s", "", 0));
  EXPECT_FALSE(NodeTicket::verify("s", "cnt1", 0));
  EXPECT_FALSE(NodeTicket::verify("s", "cnt1.zz.zz", 0));
  EXPECT_FALSE(NodeTicket::verify("s", "cnt2.00.00", 0));
}

TEST(NodeTicket, ScopeCoversSubtreeOnly) {
  NodeTicket ticket;
  ticket.scope = "/data/run1";
  EXPECT_TRUE(ticket.covers("/data/run1"));
  EXPECT_TRUE(ticket.covers("/data/run1/evt.bin"));
  EXPECT_FALSE(ticket.covers("/data/run2"));
  EXPECT_FALSE(ticket.covers("/data/run10"));  // component boundary
  ticket.scope = "/";
  EXPECT_TRUE(ticket.covers("/anything"));
}

TEST(RedirectResult, EnvelopeRoundTripsAndDiscriminates) {
  rpc::RedirectResult redirect;
  redirect.url = "http://node1:8080/clarens";
  redirect.ticket = "cnt1.aa.bb";
  redirect.scope = "/data/run1";
  rpc::Value v = redirect.to_value();
  ASSERT_TRUE(rpc::RedirectResult::is_redirect(v));
  rpc::RedirectResult back = rpc::RedirectResult::from_value(v);
  EXPECT_EQ(back.url, redirect.url);
  EXPECT_EQ(back.ticket, redirect.ticket);
  EXPECT_EQ(back.scope, redirect.scope);

  // Ordinary structs — even ones with the key at a non-307 value — are
  // not redirects.
  rpc::Value plain = rpc::Value::struct_();
  plain.set("url", std::string("x"));
  EXPECT_FALSE(rpc::RedirectResult::is_redirect(plain));
  plain.set(rpc::RedirectResult::kMarker, std::int64_t{200});
  EXPECT_FALSE(rpc::RedirectResult::is_redirect(plain));
  EXPECT_FALSE(rpc::RedirectResult::is_redirect(rpc::Value(std::int64_t{307})));
  EXPECT_THROW(rpc::RedirectResult::from_value(plain), rpc::Fault);
}

TEST(PeerEndpoint, ParsesAndRejects) {
  client::PeerEndpoint http = client::PeerEndpoint::parse(
      "http://127.0.0.1:8080/clarens");
  EXPECT_EQ(http.host, "127.0.0.1");
  EXPECT_EQ(http.port, 8080);
  EXPECT_FALSE(http.tls);
  client::PeerEndpoint https = client::PeerEndpoint::parse(
      "https://node.example.org:443");
  EXPECT_TRUE(https.tls);
  EXPECT_EQ(https.host, "node.example.org");
  EXPECT_EQ(https.port, 443);
  client::PeerEndpoint stripped = client::PeerEndpoint::parse(
      "https://grid.example.org:8443/clarens");
  EXPECT_EQ(stripped.host, "grid.example.org");
  EXPECT_EQ(stripped.port, 8443);
  EXPECT_EQ(client::PeerEndpoint::parse("http://h:1").port, 1);
  EXPECT_EQ(client::PeerEndpoint::parse("http://h:65535").port, 65535);
  EXPECT_THROW(client::PeerEndpoint::parse("ftp://x:1"), ParseError);
  EXPECT_THROW(client::PeerEndpoint::parse("http://nohost"), ParseError);
  EXPECT_THROW(client::PeerEndpoint::parse("http://:8080"), ParseError);
  // Out-of-range ports are refused, not wrapped (70000 would be 4464).
  EXPECT_THROW(client::PeerEndpoint::parse("http://h:0"), ParseError);
  EXPECT_THROW(client::PeerEndpoint::parse("http://h:65536"), ParseError);
  EXPECT_THROW(client::PeerEndpoint::parse("http://h:70000"), ParseError);
}

TEST(PeerPool, LeaseReturnsAndDiscards) {
  client::PeerPool pool{client::ClientOptions{}};
  const std::string url = "http://127.0.0.1:19999/clarens";
  {
    auto lease = pool.lease(url);
    EXPECT_EQ(pool.idle_count(url), 0u);
  }
  EXPECT_EQ(pool.idle_count(url), 1u);  // returned on destruction
  {
    auto lease = pool.lease(url);  // reuses the pooled client
    EXPECT_EQ(pool.idle_count(url), 0u);
    lease.discard();
  }
  EXPECT_EQ(pool.idle_count(url), 0u);  // discarded, not re-pooled
}

// Router refresh against a live discovery fabric: publisher -> station ->
// discovery server -> placement ring.
TEST(Router, BuildsRingFromStorageRecordsOnly) {
  discovery::StationServer station;
  db::Store store;
  discovery::DiscoveryServer discovery(store, /*record_ttl=*/60);
  discovery.subscribe("127.0.0.1", station.port());

  discovery::Publisher publisher("127.0.0.1", station.port());
  auto record = [](const std::string& node, const std::string& role) {
    discovery::ServiceRecord r;
    r.farm = "farm";
    r.node = node;
    r.service = "file";
    r.url = "http://" + node + ":8080/clarens";
    r.protocol = "xmlrpc";
    r.version = "1.0";
    r.heartbeat = util::unix_now();
    r.role = role;
    r.metrics["capacity"] = 1.0;
    return r;
  };
  publisher.set_records({record("head1", "head"), record("node1", "storage"),
                         record("node2", "storage")});
  publisher.publish_once();

  RouterOptions options;
  options.secret = "super-secret-cluster-key";
  options.refresh_ms = 0;  // rebuild on every query
  Router router(discovery, options);
  for (int i = 0; i < 100 && router.storage_nodes().size() != 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::vector<NodeInfo> nodes = router.storage_nodes();
  ASSERT_EQ(nodes.size(), 2u);  // the head record never joins the ring
  for (const auto& node : nodes) {
    EXPECT_NE(node.id, "farm/head1");
  }
  auto owner = router.route("/data/run1/evt.bin");
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(router.prefix_of("/data/run1/evt.bin"), "/data/run1");
  std::string ticket = router.mint_ticket("/O=t/CN=A", false, "",
                                          "/data/run1", /*write=*/true);
  auto verified = NodeTicket::verify("super-secret-cluster-key", ticket,
                                     util::unix_now());
  ASSERT_TRUE(verified.has_value());
  EXPECT_TRUE(verified->write);
}

}  // namespace
}  // namespace clarens::federation
