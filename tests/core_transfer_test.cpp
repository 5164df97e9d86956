// Tests for third-party transfers: the full delegated pull between two
// live servers (source read ACL + destination write ACL both enforced
// against the user), MD5 verification, failure modes, and the restart
// rule. Source URL parsing is client::PeerEndpoint's (federation_test).
#include <gtest/gtest.h>

#include <fstream>

#include "client/client.hpp"
#include "core/server.hpp"
#include "core/transfer_service.hpp"
#include "crypto/md5.hpp"
#include "pki/authority.hpp"
#include "rpc/fault.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;
using clarens::testing::TestPki;

struct TwoSites {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::unique_ptr<ClarensServer> source;
  std::unique_ptr<ClarensServer> dest;
  std::string source_data;
  std::string dest_data;
  std::string bob_dn;

  explicit TwoSites(bool restrict_source_read = false) {
    bob_dn = pki.bob.certificate.subject().str();
    AclSpec anyone;
    anyone.allow_dns = {AclSpec::kAnyone};

    // Source site holds the dataset.
    source_data = tmp.sub("source-data");
    {
      std::ofstream out(source_data + "/events.dat", std::ios::binary);
      for (int i = 0; i < 300000; ++i) out.put(static_cast<char>(i * 31));
    }
    ClarensConfig source_config;
    source_config.trust = pki.trust;
    source_config.file_roots = {{"/data", source_data}};
    FileAcl source_acl;
    if (restrict_source_read) {
      source_acl.read.allow_dns = {
          pki.alice.certificate.subject().str()};  // bob locked out
    } else {
      source_acl.read = anyone;
    }
    source_config.initial_file_acls = {{"/data", source_acl}};
    source_config.initial_method_acls = {{"system", anyone}, {"file", anyone}};
    source = std::make_unique<ClarensServer>(std::move(source_config));
    source->start();

    // Destination site accepts the pull.
    dest_data = tmp.sub("dest-data");
    ClarensConfig dest_config;
    dest_config.trust = pki.trust;
    dest_config.file_roots = {{"/replica", dest_data}};
    FileAcl dest_acl;
    dest_acl.read = anyone;
    dest_acl.write = anyone;
    dest_config.initial_file_acls = {{"/replica", dest_acl}};
    dest_config.initial_method_acls = {{"system", anyone}, {"file", anyone},
                                       {"proxy", anyone}, {"transfer", anyone}};
    dest = std::make_unique<ClarensServer>(std::move(dest_config));
    dest->start();
  }

  ~TwoSites() {
    dest->stop();
    source->stop();
  }

  std::unique_ptr<client::ClarensClient> connect_bob(ClarensServer& server) {
    client::ClientOptions options;
    options.port = server.port();
    options.credential = pki.bob;
    options.trust = &pki.trust;
    auto client = std::make_unique<client::ClarensClient>(options);
    client->connect();
    client->authenticate();
    return client;
  }

  /// Bob stores a proxy on the destination (enabling delegation).
  void store_proxy(const std::string& password) {
    pki::Credential proxy = pki::issue_proxy(pki.bob);
    auto client = connect_bob(*dest);
    client->call("proxy.store", {rpc::Value(proxy.encode()),
                                rpc::Value(pki.bob.certificate.encode()),
                                rpc::Value(password)});
  }
};

TEST(Transfer, DelegatedPullBetweenServers) {
  TwoSites sites;
  sites.store_proxy("tr4nsfer");
  auto bob = sites.connect_bob(*sites.dest);

  std::string id =
      bob->call("transfer.start",
               {rpc::Value("http://127.0.0.1:" +
                           std::to_string(sites.source->port())),
                rpc::Value("/data/events.dat"),
                rpc::Value("/replica/events.dat"), rpc::Value("tr4nsfer")})
          .as_string();

  Transfer done = sites.dest->transfers().wait(
      id, pki::DistinguishedName::parse(sites.bob_dn));
  EXPECT_EQ(done.state, TransferState::Done) << done.error;
  EXPECT_EQ(done.bytes, 300000);
  EXPECT_TRUE(done.verified);

  // The replica is byte-identical (verify locally).
  std::ifstream a(sites.source_data + "/events.dat", std::ios::binary);
  std::ifstream b(sites.dest_data + "/events.dat", std::ios::binary);
  std::string content_a((std::istreambuf_iterator<char>(a)),
                        std::istreambuf_iterator<char>());
  std::string content_b((std::istreambuf_iterator<char>(b)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(crypto::Md5::hex(content_a), crypto::Md5::hex(content_b));

  // RPC status view agrees.
  rpc::Value status = bob->call("transfer.status", {rpc::Value(id)});
  EXPECT_EQ(status.at("state").as_string(), "DONE");
  EXPECT_TRUE(status.at("verified").as_bool());
  EXPECT_EQ(bob->call("transfer.list").as_array().size(), 1u);
}

// The copy loop stops at the first short chunk: an empty file is one
// empty read, and a file of exactly one chunk ends on a second, empty one.
TEST(Transfer, EmptyAndExactlyOneChunkFilesArriveWhole) {
  TwoSites sites;
  {
    std::ofstream empty(sites.source_data + "/empty.dat", std::ios::binary);
    std::ofstream chunk(sites.source_data + "/chunk.dat", std::ios::binary);
    for (std::int64_t i = 0; i < FileService::kPullChunk; ++i) {
      chunk.put(static_cast<char>(i * 7 + 3));
    }
  }
  sites.store_proxy("tr4nsfer");
  auto bob = sites.connect_bob(*sites.dest);
  pki::DistinguishedName who = pki::DistinguishedName::parse(sites.bob_dn);
  auto read_all = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  for (const std::string name : {"empty.dat", "chunk.dat"}) {
    std::string id =
        bob->call("transfer.start",
                  {rpc::Value("http://127.0.0.1:" +
                              std::to_string(sites.source->port())),
                   rpc::Value("/data/" + name), rpc::Value("/replica/" + name),
                   rpc::Value("tr4nsfer")})
            .as_string();
    Transfer done = sites.dest->transfers().wait(id, who);
    EXPECT_EQ(done.state, TransferState::Done) << name << ": " << done.error;
    EXPECT_TRUE(done.verified) << name;
    std::string sent = read_all(sites.source_data + "/" + name);
    EXPECT_EQ(done.bytes, static_cast<std::int64_t>(sent.size())) << name;
    EXPECT_EQ(read_all(sites.dest_data + "/" + name), sent) << name;
  }
}

TEST(Transfer, SourceAclEnforcedAgainstDelegatedIdentity) {
  TwoSites sites(/*restrict_source_read=*/true);
  sites.store_proxy("pw");
  auto bob = sites.connect_bob(*sites.dest);
  std::string id =
      bob->call("transfer.start",
               {rpc::Value("http://127.0.0.1:" +
                           std::to_string(sites.source->port())),
                rpc::Value("/data/events.dat"),
                rpc::Value("/replica/events.dat"), rpc::Value("pw")})
          .as_string();
  Transfer done = sites.dest->transfers().wait(
      id, pki::DistinguishedName::parse(sites.bob_dn));
  // The source denies bob, so the delegated pull fails — the destination
  // cannot launder access through its own identity.
  EXPECT_EQ(done.state, TransferState::Failed);
  EXPECT_NE(done.error.find("denied"), std::string::npos);
}

TEST(Transfer, WrongProxyPasswordRefusedAtStart) {
  TwoSites sites;
  sites.store_proxy("right");
  auto bob = sites.connect_bob(*sites.dest);
  EXPECT_THROW(
      bob->call("transfer.start",
               {rpc::Value("http://127.0.0.1:1"), rpc::Value("/data/x"),
                rpc::Value("/replica/x"), rpc::Value("wrong")}),
      rpc::Fault);
}

TEST(Transfer, MissingSourceFileFails) {
  TwoSites sites;
  sites.store_proxy("pw");
  auto bob = sites.connect_bob(*sites.dest);
  std::string id =
      bob->call("transfer.start",
               {rpc::Value("http://127.0.0.1:" +
                           std::to_string(sites.source->port())),
                rpc::Value("/data/ghost.dat"),
                rpc::Value("/replica/ghost.dat"), rpc::Value("pw")})
          .as_string();
  Transfer done = sites.dest->transfers().wait(
      id, pki::DistinguishedName::parse(sites.bob_dn));
  EXPECT_EQ(done.state, TransferState::Failed);
  EXPECT_FALSE(done.error.empty());
}

TEST(Transfer, OwnershipIsolation) {
  TwoSites sites;
  sites.store_proxy("pw");
  auto bob = sites.connect_bob(*sites.dest);
  std::string id =
      bob->call("transfer.start",
               {rpc::Value("http://127.0.0.1:" +
                           std::to_string(sites.source->port())),
                rpc::Value("/data/events.dat"),
                rpc::Value("/replica/events.dat"), rpc::Value("pw")})
          .as_string();
  EXPECT_THROW(
      sites.dest->transfers().status(
          id, sites.pki.alice.certificate.subject()),
      AccessError);
  sites.dest->transfers().wait(id, pki::DistinguishedName::parse(sites.bob_dn));
}

TEST(TransferRecovery, OrphanedTransfersFailOnRestart) {
  TempDir tmp;
  const std::string data_dir = tmp.sub("db");
  {
    // Forge a transfer record stuck in RUNNING (as if the server crashed).
    db::Store store(data_dir);
    store.put("transfers", "orphan1",
              R"({"owner":"/O=g/OU=People/CN=Joe","source_host":"127.0.0.1",)"
              R"("source_port":1,"source_tls":false,"source_path":"/data/x",)"
              R"("dest_path":"/replica/x","state":"RUNNING","bytes":0,)"
              R"("verified":false,"error":"","submitted":1,"finished":0})");
    store.sync();
  }

  ClarensConfig config;
  config.trust = TestPki::instance().trust;
  config.data_dir = data_dir;
  ClarensServer server(std::move(config));
  // The delegated proxy died with the old server: no resume, a clear error.
  Transfer t = server.transfers().wait(
      "orphan1", pki::DistinguishedName::parse("/O=g/OU=People/CN=Joe"), 1000);
  EXPECT_EQ(t.state, TransferState::Failed);
  EXPECT_EQ(t.error, "interrupted by server restart; resubmit");
  EXPECT_GT(t.finished, 0);
}

}  // namespace
}  // namespace clarens::core
