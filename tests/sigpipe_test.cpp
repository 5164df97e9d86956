// A client that closes its socket while the server is still sending must
// not take the server down. Writing to a socket whose peer has gone
// raises SIGPIPE, whose default action kills the process, and this test
// binary installs no handler for it: the server's socket writes (send,
// sendmsg) and its sendfile/splice path must each keep the signal from
// being delivered. Covered: a multi-MiB file GET (sendfile) and a
// multi-MiB XML-RPC reply (sendmsg), each abandoned before and after the
// first response bytes arrive.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "core/server.hpp"
#include "net/socket.hpp"
#include "rpc/xmlrpc.hpp"
#include "test_fixtures.hpp"

namespace clarens {
namespace {

using testing::TempDir;
using testing::TestPki;

constexpr std::size_t kFileSize = 8 * 1024 * 1024;  // the file.read cap

core::ClarensConfig file_config(const TestPki& pki, const std::string& dir) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  core::AclSpec anyone;
  anyone.allow_dns = {core::AclSpec::kAnyone};
  config.initial_method_acls = {{"system", anyone}, {"file", anyone}};
  core::FileAcl facl;
  facl.read.allow_dns = {core::AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", facl}};
  config.file_roots = {{"/data", dir}};
  return config;
}

// Send `wire` and close with the response unread. Closing at once sends
// FIN: the server's first write draws an RST and its next write fails
// with EPIPE, the case that raises SIGPIPE. Closing after the first
// response bytes, with more unread, sends RST while the server is
// still writing.
void send_and_abandon(std::uint16_t port, const std::string& wire,
                      bool read_first) {
  net::TcpConnection conn = net::TcpConnection::connect("127.0.0.1", port);
  conn.write_all(wire);
  if (read_first) {
    std::array<std::uint8_t, 4096> buf;
    EXPECT_GT(conn.read(buf), 0u);
  }
  conn.close();
}

std::string get_ping(std::uint16_t port) {
  net::TcpConnection conn = net::TcpConnection::connect("127.0.0.1", port);
  conn.write_all(std::string("GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string out;
  std::array<std::uint8_t, 4096> buf;
  while (std::size_t n = conn.read(buf)) {
    out.append(reinterpret_cast<const char*>(buf.data()), n);
  }
  return out;
}

TEST(Sigpipe, ServerSurvivesClientsClosingMidResponse) {
  struct sigaction current{};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  ASSERT_EQ(current.sa_handler, SIG_DFL) << "the test needs SIGPIPE fatal";

  TempDir tmp;
  {
    std::ofstream out(tmp.sub("files") + "/big.bin", std::ios::binary);
    out << std::string(kFileSize, 'b');
  }
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(file_config(pki, tmp.path() + "/files"));
  server.start();
  std::string session =
      server.direct_login(pki.alice.certificate.subject().str()).id;

  const std::string get = "GET /data/big.bin HTTP/1.1\r\nX-Clarens-Session: " +
                          session + "\r\n\r\n";
  rpc::Request read;
  read.method = "file.read";
  read.params = {rpc::Value(std::string("/data/big.bin")),
                 rpc::Value(std::int64_t{0}),
                 rpc::Value(static_cast<std::int64_t>(kFileSize))};
  std::string body = rpc::xmlrpc::serialize_request(read);
  const std::string post =
      "POST /clarens HTTP/1.1\r\nContent-Type: text/xml\r\n"
      "X-Clarens-Session: " + session + "\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;

  for (int round = 0; round < 4; ++round) {
    bool read_first = round % 2 == 1;
    send_and_abandon(server.port(), get, read_first);
    send_and_abandon(server.port(), post, read_first);
    // Give the workers time to hit the closed sockets, then check the
    // server still answers a client that stays.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_NE(get_ping(server.port()).find("pong"), std::string::npos)
        << "round " << round;
  }
  server.stop();
}

}  // namespace
}  // namespace clarens
