// Tests for the configuration loader: every key, file references, and a
// daemon-style boot from a generated config.
#include <gtest/gtest.h>

#include <fstream>

#include "client/client.hpp"
#include "core/config_loader.hpp"
#include "core/server.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;
using clarens::testing::TestPki;

TEST(ConfigLoader, ParsesScalarsAndLists) {
  util::Config config = util::Config::parse(
      "host 0.0.0.0\n"
      "port 8443\n"
      "data_dir /var/lib/clarens\n"
      "admin /O=a/CN=one\n"
      "admin /O=a/CN=two\n"
      "default_allow false\n"
      "session_ttl 3600\n"
      "sandbox_base /tmp/sb\n"
      "farm caltech\n"
      "node c01\n"
      "max_connections 64\n");
  ClarensConfig out = config_from(config);
  EXPECT_EQ(out.host, "0.0.0.0");
  EXPECT_EQ(out.port, 8443);
  EXPECT_EQ(out.data_dir, "/var/lib/clarens");
  EXPECT_EQ(out.admins.size(), 2u);
  EXPECT_EQ(out.session_ttl, 3600);
  EXPECT_EQ(out.sandbox_base, "/tmp/sb");
  EXPECT_EQ(out.farm, "caltech");
  EXPECT_EQ(out.max_connections, 64u);
}

TEST(ConfigLoader, FileRootsAndAcls) {
  util::Config config = util::Config::parse(
      "file_root /data /srv/data\n"
      "file_root /scratch /srv/scratch\n"
      "allow system *\n"
      "allow system group:ops\n"
      "allow file /O=grid/OU=People\n"
      "file_allow /data *\n"
      "file_allow_read /scratch /O=grid\n"
      "file_allow_write /scratch group:writers\n");
  ClarensConfig out = config_from(config);
  EXPECT_EQ(out.file_roots.size(), 2u);
  EXPECT_EQ(out.file_roots.at("/data"), "/srv/data");

  ASSERT_EQ(out.initial_method_acls.size(), 2u);  // "file" and "system"
  const auto& system_acl = out.initial_method_acls[1];
  EXPECT_EQ(system_acl.first, "system");
  EXPECT_EQ(system_acl.second.allow_dns, (std::vector<std::string>{"*"}));
  EXPECT_EQ(system_acl.second.allow_groups, (std::vector<std::string>{"ops"}));

  ASSERT_EQ(out.initial_file_acls.size(), 2u);
  const auto& scratch = out.initial_file_acls[1];
  EXPECT_EQ(scratch.first, "/scratch");
  EXPECT_EQ(scratch.second.read.allow_dns, (std::vector<std::string>{"/O=grid"}));
  EXPECT_EQ(scratch.second.write.allow_groups,
            (std::vector<std::string>{"writers"}));
}

TEST(ConfigLoader, StationEndpoint) {
  ClarensConfig out = config_from(util::Config::parse("station 10.0.0.1:9999\n"));
  ASSERT_TRUE(out.station.has_value());
  EXPECT_EQ(out.station->first, "10.0.0.1");
  EXPECT_EQ(out.station->second, 9999);
}

TEST(ConfigLoader, MalformedEntriesThrow) {
  EXPECT_THROW(config_from(util::Config::parse("file_root /only-one\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("allow justpath\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("station nocolon\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("use_tls true\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("credential_file /no/file\n")),
               SystemError);
  // The binary blob framing length is a u32: chunk limits past 4 GiB - 1
  // (or non-positive) would desynchronize sendfile frames.
  EXPECT_THROW(config_from(util::Config::parse("max_read_chunk 4294967296\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("max_read_chunk 0\n")),
               ParseError);
  EXPECT_NO_THROW(config_from(util::Config::parse("max_read_chunk 4294967295\n")));
}

TEST(ConfigLoader, StorageEngineKnobs) {
  ClarensConfig out = config_from(util::Config::parse(
      "store_shards 64\n"
      "store_group_commit false\n"
      "store_commit_interval_us 500\n"
      "store_commit_batch_max 1024\n"
      "store_compact_threshold 1048576\n"
      "session_durable_writes true\n"));
  EXPECT_EQ(out.store_shards, 64u);
  EXPECT_FALSE(out.store_group_commit);
  EXPECT_EQ(out.store_commit_interval_us, 500);
  EXPECT_EQ(out.store_commit_batch_max, 1024u);
  EXPECT_EQ(out.store_compact_threshold, 1048576);
  EXPECT_TRUE(out.session_durable_writes);

  // Defaults when unset.
  ClarensConfig defaults = config_from(util::Config::parse("host x\n"));
  EXPECT_EQ(defaults.store_shards, 16u);
  EXPECT_TRUE(defaults.store_group_commit);
  EXPECT_FALSE(defaults.session_durable_writes);
}

TEST(ConfigLoader, StorageEngineKnobValidation) {
  EXPECT_THROW(config_from(util::Config::parse("store_shards 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("store_shards 2048\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("store_commit_interval_us -1\n")),
      ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("store_commit_interval_us 2000000\n")),
      ParseError);
  EXPECT_THROW(config_from(util::Config::parse("store_commit_batch_max 0\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("store_commit_batch_max 100000\n")),
      ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("store_compact_threshold 1024\n")),
      ParseError);
}

TEST(ConfigLoader, FederationKnobs) {
  ClarensConfig head = config_from(util::Config::parse(
      "node_role head\n"
      "node_ticket_secret 0123456789abcdef\n"
      "placement_replicas 2\n"
      "node_capacity 2.5\n"
      "federation_refresh_ms 250\n"
      "node_ticket_ttl_s 60\n"
      "placement_prefix_depth 3\n"));
  EXPECT_EQ(head.node_role, NodeRole::Head);
  EXPECT_EQ(head.node_ticket_secret, "0123456789abcdef");
  EXPECT_EQ(head.placement_replicas, 2);
  EXPECT_DOUBLE_EQ(head.node_capacity, 2.5);
  EXPECT_EQ(head.federation_refresh_ms, 250);
  EXPECT_EQ(head.node_ticket_ttl_s, 60);
  EXPECT_EQ(head.placement_prefix_depth, 3);

  ClarensConfig storage = config_from(util::Config::parse(
      "node_role storage\n"
      "head_url http://head.example.org:8080/clarens\n"
      "node_ticket_secret 0123456789abcdef\n"));
  EXPECT_EQ(storage.node_role, NodeRole::Storage);
  EXPECT_EQ(storage.head_url, "http://head.example.org:8080/clarens");

  // Defaults: standalone, no secret required, single replica.
  ClarensConfig defaults = config_from(util::Config::parse("host x\n"));
  EXPECT_EQ(defaults.node_role, NodeRole::Standalone);
  EXPECT_TRUE(defaults.node_ticket_secret.empty());
  EXPECT_EQ(defaults.placement_replicas, 1);
  EXPECT_DOUBLE_EQ(defaults.node_capacity, 1.0);
  EXPECT_EQ(defaults.placement_prefix_depth, 2);
}

TEST(ConfigLoader, FederationKnobValidation) {
  // Unknown role.
  EXPECT_THROW(config_from(util::Config::parse("node_role primary\n")),
               ParseError);
  // head/storage roles demand a meaningful shared secret…
  EXPECT_THROW(config_from(util::Config::parse(
                   "node_role head\nnode_ticket_secret short\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_role head\n")),
               ParseError);
  // …and a storage node must know its head.
  EXPECT_THROW(config_from(util::Config::parse(
                   "node_role storage\nnode_ticket_secret 0123456789abcdef\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("head_url gopher://x:1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_replicas 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_replicas 9\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity nan-ish\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity -1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("federation_refresh_ms -1\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("federation_refresh_ms 60001\n")),
      ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_ticket_ttl_s 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_ticket_ttl_s 86401\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_prefix_depth 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_prefix_depth 9\n")),
               ParseError);
}

TEST(ConfigLoader, ReplicationKnobs) {
  ClarensConfig head = config_from(util::Config::parse(
      "node_role head\n"
      "node_ticket_secret 0123456789abcdef\n"
      "replication_grace_ms 1500\n"
      "replication_retry_max 4\n"
      "replication_retry_base_ms 50\n"
      "replication_retry_max_ms 2000\n"
      "fsck_interval_ms 30000\n"
      "replica_suspect_ttl_ms 1000\n"));
  EXPECT_EQ(head.replication_grace_ms, 1500);
  EXPECT_EQ(head.replication_retry_max, 4);
  EXPECT_EQ(head.replication_retry_base_ms, 50);
  EXPECT_EQ(head.replication_retry_max_ms, 2000);
  EXPECT_EQ(head.fsck_interval_ms, 30000);
  EXPECT_EQ(head.replica_suspect_ttl_ms, 1000);

  ClarensConfig defaults = config_from(util::Config::parse("host x\n"));
  EXPECT_EQ(defaults.replication_grace_ms, 5000);
  EXPECT_EQ(defaults.replication_retry_max, 8);
  EXPECT_EQ(defaults.fsck_interval_ms, 0);  // scrub on demand only
}

// A read cap below the 1 MiB copy chunk is a valid config: copies clamp
// their chunk to it rather than refusing to load.
TEST(ConfigLoader, SmallMaxReadChunkLoads) {
  ClarensConfig config = config_from(util::Config::parse(
      "host 127.0.0.1\n"
      "port 0\n"
      "max_read_chunk 65536\n"));
  EXPECT_EQ(config.max_read_chunk, 65536);
}

TEST(ConfigLoader, ReplicationKnobValidation) {
  EXPECT_THROW(config_from(util::Config::parse("replication_grace_ms 99\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replication_grace_ms 600001\n")),
      ParseError);
  EXPECT_THROW(config_from(util::Config::parse("replication_retry_max 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("replication_retry_max 65\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replication_retry_base_ms 0\n")),
      ParseError);
  // The cap may not undercut the base.
  EXPECT_THROW(config_from(util::Config::parse(
                   "replication_retry_base_ms 500\n"
                   "replication_retry_max_ms 100\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("fsck_interval_ms -1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("fsck_interval_ms 86400001\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replica_suspect_ttl_ms -1\n")),
      ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replica_suspect_ttl_ms 600001\n")),
      ParseError);
}

TEST(ConfigLoader, LoadsCredentialTrustAndUserMapFiles) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string cred_path = tmp.path() + "/server.cred";
  std::string ca_path = tmp.path() + "/ca.cert";
  std::string map_path = tmp.path() + "/user_map";
  std::ofstream(cred_path) << pki.server.encode();
  std::ofstream(ca_path) << pki.ca.certificate().encode();
  std::ofstream(map_path) << "joe ; /O=testgrid.org/OU=People ; ;\n";

  util::Config config = util::Config::parse(
      "use_tls true\n"
      "credential_file " + cred_path + "\n" +
      "trust_file " + ca_path + "\n" +
      "user_map_file " + map_path + "\n");
  ClarensConfig out = config_from(config);
  ASSERT_TRUE(out.credential.has_value());
  EXPECT_EQ(out.credential->certificate.subject(),
            pki.server.certificate.subject());
  EXPECT_EQ(out.trust.size(), 1u);
  ASSERT_EQ(out.user_map.size(), 1u);
  EXPECT_EQ(out.user_map[0].system_user, "joe");
}

// Boot a full server from a config file and make one authenticated call.
TEST(ConfigLoader, BootsAServer) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string ca_path = tmp.path() + "/ca.cert";
  std::ofstream(ca_path) << pki.ca.certificate().encode();
  std::string conf_path = tmp.path() + "/clarens.conf";
  std::ofstream(conf_path) << "port 0\n"
                           << "trust_file " << ca_path << "\n"
                           << "allow system *\n"
                           << "allow echo *\n";

  ClarensServer server(load_config_file(conf_path));
  server.start();

  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.alice;
  options.trust = &pki.trust;
  client::ClarensClient client(options);
  client.connect();
  client.authenticate();
  EXPECT_EQ(client.call("echo.echo", {rpc::Value("booted")}).as_string(),
            "booted");
  server.stop();
}

}  // namespace
}  // namespace clarens::core
