// End-to-end tests: full server + client over real sockets, covering
// authentication (challenge and TLS paths), the per-request session/ACL
// checks, all four wire protocols, file service over RPC and GET,
// session persistence across restart, and the shell/proxy flows.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>

#include "client/client.hpp"
#include "core/server.hpp"
#include "http/parser.hpp"
#include "net/socket.hpp"
#include "rpc/fault.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens {
namespace {

using testing::TempDir;
using testing::TestPki;

core::AclSpec allow_anyone() {
  core::AclSpec spec;
  spec.allow_dns = {core::AclSpec::kAnyone};
  return spec;
}

core::ClarensConfig base_config(const TestPki& pki) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  config.admins = {"/O=testgrid.org/OU=People/CN=Alice Able"};
  config.initial_method_acls = {{"system", allow_anyone()},
                                {"echo", allow_anyone()}};
  return config;
}

client::ClientOptions client_options(const TestPki& pki,
                                     const pki::Credential& who,
                                     std::uint16_t port) {
  client::ClientOptions options;
  options.port = port;
  options.credential = who;
  options.trust = &pki.trust;
  return options;
}

TEST(ServerIntegration, ChallengeAuthAndBasicCalls) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(base_config(pki));
  server.start();

  client::ClarensClient client(client_options(pki, pki.bob, server.port()));
  client.connect();
  std::string session = client.authenticate();
  EXPECT_FALSE(session.empty());

  // system.list_methods returns the >30-method array of the paper's bench.
  rpc::Value methods = client.call("system.list_methods");
  EXPECT_GT(methods.as_array().size(), 30u);

  rpc::Value who = client.call("system.whoami");
  EXPECT_EQ(who.at("dn").as_string(), "/O=testgrid.org/OU=People/CN=Bob Baker");
  EXPECT_FALSE(who.at("via_proxy").as_bool());

  rpc::Value echoed = client.call("echo.echo", {rpc::Value("hello grid")});
  EXPECT_EQ(echoed.as_string(), "hello grid");
  server.stop();
}

TEST(ServerIntegration, UnauthenticatedCallsAreRejected) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(base_config(pki));
  server.start();

  client::ClientOptions options = client_options(pki, pki.bob, server.port());
  client::ClarensClient client(options);
  client.connect();
  // No session: non-public method must fault with the auth code.
  try {
    client.call("system.list_methods");
    FAIL() << "expected fault";
  } catch (const rpc::Fault& fault) {
    EXPECT_EQ(fault.code(), rpc::kFaultAuth);
  }
  // Public ping works without a session.
  EXPECT_EQ(client.call("system.ping").as_string(), "pong");
  server.stop();
}

TEST(ServerIntegration, BogusSessionTokenRejected) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(base_config(pki));
  server.start();

  client::ClarensClient client(client_options(pki, pki.bob, server.port()));
  client.connect();
  client.set_session("deadbeefdeadbeefdeadbeefdeadbeef");
  EXPECT_THROW(client.call("system.list_methods"), rpc::Fault);
  server.stop();
}

TEST(ServerIntegration, MethodAclDeniesUnlistedIdentity) {
  const TestPki& pki = TestPki::instance();
  core::ClarensConfig config = base_config(pki);
  // Only DOE-grid people may use echo; Carol is from another O=.
  core::AclSpec spec;
  spec.allow_dns = {"/O=testgrid.org/OU=People"};
  config.initial_method_acls = {{"system", allow_anyone()}, {"echo", spec}};
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClarensClient carol(client_options(pki, pki.carol, server.port()));
  carol.connect();
  carol.authenticate();
  try {
    carol.call("echo.echo", {rpc::Value(1)});
    FAIL() << "expected access fault";
  } catch (const rpc::Fault& fault) {
    EXPECT_EQ(fault.code(), rpc::kFaultAccess);
  }

  client::ClarensClient bob(client_options(pki, pki.bob, server.port()));
  bob.connect();
  bob.authenticate();
  EXPECT_EQ(bob.call("echo.echo", {rpc::Value(7)}).as_int(), 7);
  server.stop();
}

TEST(ServerIntegration, AllFourProtocolsServeTheSameMethod) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(base_config(pki));
  server.start();

  for (rpc::Protocol protocol :
       {rpc::Protocol::XmlRpc, rpc::Protocol::JsonRpc, rpc::Protocol::Soap,
        rpc::Protocol::Binary}) {
    client::ClientOptions options = client_options(pki, pki.bob, server.port());
    options.protocol = protocol;
    client::ClarensClient client(options);
    client.connect();
    client.authenticate();
    rpc::Value result = client.call("echo.echo", {rpc::Value("proto")});
    EXPECT_EQ(result.as_string(), "proto") << rpc::to_string(protocol);
    rpc::Value who = client.call("system.whoami");
    EXPECT_EQ(who.at("protocol").as_string(), rpc::to_string(protocol));
  }
  server.stop();
}

TEST(ServerIntegration, TlsAuthUsesChannelIdentity) {
  const TestPki& pki = TestPki::instance();
  core::ClarensConfig config = base_config(pki);
  config.use_tls = true;
  config.credential = pki.server;
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClientOptions options = client_options(pki, pki.alice, server.port());
  options.use_tls = true;
  client::ClarensClient client(options);
  client.connect();
  std::string session = client.authenticate();
  EXPECT_FALSE(session.empty());
  rpc::Value who = client.call("system.whoami");
  EXPECT_EQ(who.at("dn").as_string(),
            "/O=testgrid.org/OU=People/CN=Alice Able");
  server.stop();
}

TEST(ServerIntegration, FileServiceOverRpcAndGet) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string data_dir = tmp.sub("files");
  {
    std::ofstream out(data_dir + "/events.dat", std::ios::binary);
    for (int i = 0; i < 1000; ++i) out << "event-" << i << "\n";
  }

  core::ClarensConfig config = base_config(pki);
  config.file_roots = {{"/data", data_dir}};
  core::AclSpec anyone = allow_anyone();
  core::FileAcl facl;
  facl.read = anyone;
  facl.write = anyone;
  config.initial_file_acls = {{"/data", facl}};
  config.initial_method_acls.push_back({"file", anyone});
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClarensClient client(client_options(pki, pki.bob, server.port()));
  client.connect();
  client.authenticate();

  // file.ls / file.stat
  auto names = client.file_ls_names("/data");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "events.dat");

  // file.read with offset
  auto bytes = client.file_read("/data/events.dat", 0, 8);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "event-0\n");
  auto tail = client.file_read("/data/events.dat", 8, 8);
  EXPECT_EQ(std::string(tail.begin(), tail.end()), "event-1\n");

  // file.md5 matches a local computation.
  std::string md5 = client.file_md5("/data/events.dat");
  EXPECT_EQ(md5.size(), 32u);

  // HTTP GET with sendfile path; whole file, then a range.
  auto response = client.get("/data/events.dat");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.substr(0, 8), "event-0\n");
  auto range = client.get("/data/events.dat", 8, 8);
  EXPECT_EQ(range.body, "event-1\n");

  // file.write then read it back.
  client.call("file.write",
              {rpc::Value("/data/note.txt"), rpc::Value("hello")});
  auto note = client.file_read("/data/note.txt", 0, 100);
  EXPECT_EQ(std::string(note.begin(), note.end()), "hello");

  // file.find locates it.
  auto found = client.call("file.find",
                           {rpc::Value("/data"), rpc::Value("note")});
  ASSERT_EQ(found.as_array().size(), 1u);
  EXPECT_EQ(found.as_array()[0].as_string(), "/data/note.txt");
  server.stop();
}

TEST(ServerIntegration, FileGetRefusesBadRangesAndKeepsTheConnection) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string data_dir = tmp.sub("files");
  const std::string content = "0123456789abcdef";
  std::ofstream(data_dir + "/range.bin", std::ios::binary) << content;

  core::ClarensConfig config = base_config(pki);
  config.file_roots = {{"/data", data_dir}};
  core::FileAcl facl;
  facl.read = allow_anyone();
  config.initial_file_acls = {{"/data", facl}};
  core::ClarensServer server(std::move(config));
  server.start();
  std::string session =
      server.direct_login(pki.alice.certificate.subject().str()).id;

  // Every request rides one keep-alive connection.
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  http::ResponseParser parser;
  auto get = [&](const std::string& query) {
    conn.write_all("GET /data/range.bin" + query +
                   " HTTP/1.1\r\nX-Clarens-Session: " + session + "\r\n\r\n");
    std::array<std::uint8_t, 4096> buf;
    for (;;) {
      if (std::optional<http::Response> response = parser.next()) {
        return *response;
      }
      std::size_t n = conn.read(buf);
      if (n == 0) throw SystemError("connection closed");
      parser.feed(std::span<const std::uint8_t>(buf.data(), n));
    }
  };

  struct Case {
    std::string query;
    int status;
    std::string body;
  };
  const Case cases[] = {
      {"?offset=-100", 400, ""},
      // offset + length overflows int64; the clamp must not.
      {"?offset=1&length=9223372036854775807", 200, content.substr(1)},
      {"?offset=abc", 400, ""},
      {"?offset=2&length=-1", 400, ""},
  };
  for (const Case& c : cases) {
    http::Response response = get(c.query);
    EXPECT_EQ(response.status, c.status) << c.query;
    if (c.status == 200) {
      EXPECT_EQ(response.body, c.body) << c.query;
    }
    http::Response valid = get("?offset=4&length=8");
    EXPECT_EQ(valid.status, 200) << "after " << c.query;
    EXPECT_EQ(valid.body, "456789ab") << "after " << c.query;
  }
  server.stop();
}

TEST(ServerIntegration, FileAclDenied) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string data_dir = tmp.sub("files");
  std::ofstream(data_dir + "/secret.txt") << "classified";

  core::ClarensConfig config = base_config(pki);
  config.file_roots = {{"/data", data_dir}};
  core::AclSpec alice_only;
  alice_only.allow_dns = {"/O=testgrid.org/OU=People/CN=Alice Able"};
  core::FileAcl facl;
  facl.read = alice_only;
  facl.write = alice_only;
  config.initial_file_acls = {{"/data", facl}};
  config.initial_method_acls.push_back({"file", allow_anyone()});
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClarensClient bob(client_options(pki, pki.bob, server.port()));
  bob.connect();
  bob.authenticate();
  try {
    bob.file_read("/data/secret.txt", 0, 10);
    FAIL() << "expected access fault";
  } catch (const rpc::Fault& fault) {
    EXPECT_EQ(fault.code(), rpc::kFaultAccess);
  }
  // GET path returns 403 for the same identity-less anonymous request.
  auto anon = bob.get("/data/secret.txt");
  EXPECT_EQ(anon.status, 403);
  server.stop();
}

TEST(ServerIntegration, SessionsSurviveServerRestart) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string state = tmp.sub("state");

  std::string session;
  std::uint16_t port;
  {
    core::ClarensConfig config = base_config(pki);
    config.data_dir = state;
    core::ClarensServer server(std::move(config));
    server.start();
    port = server.port();
    client::ClarensClient client(client_options(pki, pki.bob, port));
    client.connect();
    session = client.authenticate();
    EXPECT_EQ(client.call("system.ping").as_string(), "pong");
    server.stop();
  }
  {
    core::ClarensConfig config = base_config(pki);
    config.data_dir = state;
    config.port = port;  // reuse the port so the client can reconnect
    core::ClarensServer server(std::move(config));
    server.start();
    client::ClarensClient client(client_options(pki, pki.bob, port));
    client.connect();
    client.set_session(session);  // no re-authentication
    rpc::Value who = client.call("system.whoami");
    EXPECT_EQ(who.at("dn").as_string(),
              "/O=testgrid.org/OU=People/CN=Bob Baker");
    server.stop();
  }
}

TEST(ServerIntegration, VoManagementOverRpc) {
  const TestPki& pki = TestPki::instance();
  core::ClarensConfig config = base_config(pki);
  config.initial_method_acls.push_back({"vo", allow_anyone()});
  core::ClarensServer server(std::move(config));
  server.start();

  // Alice is a root admin (config), so she may create top-level groups.
  client::ClarensClient alice(client_options(pki, pki.alice, server.port()));
  alice.connect();
  alice.authenticate();
  alice.call("vo.create_group", {rpc::Value("cms")});
  alice.call("vo.create_group", {rpc::Value("cms.analysis")});
  alice.call("vo.add_member",
             {rpc::Value("cms"), rpc::Value("/O=testgrid.org/OU=People")});

  // Hierarchical membership: members of cms are members of cms.analysis.
  rpc::Value direct = alice.call(
      "vo.is_member", {rpc::Value("cms"),
                       rpc::Value("/O=testgrid.org/OU=People/CN=Bob Baker")});
  EXPECT_TRUE(direct.as_bool());
  rpc::Value inherited = alice.call(
      "vo.is_member", {rpc::Value("cms.analysis"),
                       rpc::Value("/O=testgrid.org/OU=People/CN=Bob Baker")});
  EXPECT_TRUE(inherited.as_bool());

  // Bob (not an admin) cannot create groups.
  client::ClarensClient bob(client_options(pki, pki.bob, server.port()));
  bob.connect();
  bob.authenticate();
  EXPECT_THROW(bob.call("vo.create_group", {rpc::Value("rogue")}), rpc::Fault);
  server.stop();
}

TEST(ServerIntegration, ShellSandboxFlow) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  core::ClarensConfig config = base_config(pki);
  config.sandbox_base = tmp.sub("sandbox");
  core::UserMapEntry entry;
  entry.system_user = "bob";
  entry.dns = {"/O=testgrid.org/OU=People/CN=Bob Baker"};
  config.user_map = {entry};
  config.initial_method_acls.push_back({"shell", allow_anyone()});
  config.initial_method_acls.push_back({"file", allow_anyone()});
  core::FileAcl facl;
  facl.read = allow_anyone();
  facl.write = allow_anyone();
  config.initial_file_acls = {{"/sandbox", facl}};
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClarensClient bob(client_options(pki, pki.bob, server.port()));
  bob.connect();
  bob.authenticate();

  rpc::Value info = bob.call("shell.cmd_info");
  EXPECT_EQ(info.at("sandbox").as_string(), "/sandbox/bob");
  EXPECT_EQ(info.at("user").as_string(), "bob");

  // Upload a file through the file service, then inspect via the shell.
  bob.call("file.write", {rpc::Value("/sandbox/bob/input.txt"),
                          rpc::Value("alpha\nbeta\ngamma\n")});
  rpc::Value wc = bob.call("shell.cmd", {rpc::Value("wc input.txt")});
  EXPECT_EQ(wc.at("exit_code").as_int(), 0);
  EXPECT_EQ(wc.at("stdout").as_string(), "3 3 17 input.txt\n");

  rpc::Value grep = bob.call("shell.cmd", {rpc::Value("grep beta input.txt")});
  EXPECT_EQ(grep.at("stdout").as_string(), "beta\n");

  // Unmapped identity is refused.
  client::ClarensClient carol(client_options(pki, pki.carol, server.port()));
  carol.connect();
  carol.authenticate();
  EXPECT_THROW(carol.call("shell.cmd", {rpc::Value("ls")}), rpc::Fault);
  server.stop();
}

TEST(ServerIntegration, ProxyStoreLogonAndAttach) {
  const TestPki& pki = TestPki::instance();
  core::ClarensConfig config = base_config(pki);
  config.initial_method_acls.push_back({"proxy", allow_anyone()});
  core::ClarensServer server(std::move(config));
  server.start();

  pki::Credential proxy = pki::issue_proxy(pki.alice);

  client::ClarensClient alice(client_options(pki, pki.alice, server.port()));
  alice.connect();
  alice.authenticate();
  alice.call("proxy.store",
             {rpc::Value(proxy.encode()),
              rpc::Value(pki.alice.certificate.encode()),
              rpc::Value("s3cret")});

  // Fresh client logs in with DN + password only.
  client::ClientOptions options;
  options.port = server.port();
  options.trust = &pki.trust;
  client::ClarensClient fresh(options);
  fresh.connect();
  std::string session = fresh.proxy_logon(
      "/O=testgrid.org/OU=People/CN=Alice Able", "s3cret");
  EXPECT_FALSE(session.empty());
  rpc::Value who = fresh.call("system.whoami");
  EXPECT_EQ(who.at("dn").as_string(),
            "/O=testgrid.org/OU=People/CN=Alice Able");
  EXPECT_TRUE(who.at("via_proxy").as_bool());

  // Wrong password is rejected.
  EXPECT_THROW(fresh.call("proxy.logon",
                          {rpc::Value("/O=testgrid.org/OU=People/CN=Alice Able"),
                           rpc::Value("wrong")}),
               rpc::Fault);

  // Attach to alice's own session renews it.
  EXPECT_EQ(alice.call("proxy.attach", {rpc::Value("/O=testgrid.org/OU=People/CN=Alice Able"),
                                        rpc::Value("s3cret")})
                .as_bool(),
            true);
  server.stop();
}

}  // namespace
}  // namespace clarens
