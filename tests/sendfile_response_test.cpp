// Zero-copy file responses: a binary-protocol file.read whose length is
// at or above the sendfile threshold bypasses the response arena and is
// spliced straight from the file. That path must be invisible on the
// wire — the HTTP response body must be byte-identical to the arena
// (buffered) serialization — over plaintext, over TLS (where the region
// is read and encrypted in bounded chunks), to a client that reads slowly,
// at offsets, across the beyond-EOF clamp, and with the bypass disabled
// entirely.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "core/server.hpp"
#include "http/parser.hpp"
#include "net/socket.hpp"
#include "rpc/binrpc.hpp"
#include "test_fixtures.hpp"
#include "tls/channel.hpp"

namespace clarens {
namespace {

using testing::TempDir;
using testing::TestPki;

constexpr std::size_t kFileSize = 256 * 1024;

std::string patterned_bytes(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 31 + i / 251) & 0xff);
  }
  return out;
}

core::ClarensConfig file_config(const TestPki& pki, const std::string& dir,
                                std::int64_t sendfile_threshold) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  core::AclSpec anyone;
  anyone.allow_dns = {core::AclSpec::kAnyone};
  config.initial_method_acls = {
      {"system", anyone}, {"echo", anyone}, {"file", anyone}};
  core::FileAcl facl;
  facl.read.allow_dns = {core::AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", facl}};
  config.file_roots = {{"/data", dir}};
  config.sendfile_threshold = sendfile_threshold;
  return config;
}

/// Raw binrpc POST over `stream`; returns the HTTP response body bytes
/// exactly as they arrived.
std::string binrpc_body(net::Stream& stream, const std::string& session,
                        const rpc::Request& rpc_request) {
  std::string body = rpc::binrpc::serialize_request(rpc_request);
  std::string wire = "POST /clarens HTTP/1.1\r\nX-Clarens-Session: " +
                     session +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\n\r\n" + body;
  stream.write_all(wire);
  http::ResponseParser parser;
  std::array<std::uint8_t, 16384> buf;
  for (;;) {
    if (auto response = parser.next()) return std::move(response->body);
    std::size_t n = stream.read(buf);
    if (n == 0) break;
    parser.feed(std::span<const std::uint8_t>(buf.data(), n));
  }
  ADD_FAILURE() << "no complete HTTP response";
  return {};
}

/// The same over a fresh plaintext socket.
std::string raw_binrpc_body(std::uint16_t port, const std::string& session,
                            const rpc::Request& rpc_request) {
  net::TcpConnection conn = net::TcpConnection::connect("127.0.0.1", port);
  return binrpc_body(conn, session, rpc_request);
}

/// A transport with a small receive buffer that sleeps before every small
/// read, so the server's socket buffer fills and its file pump must wait
/// for EPOLLOUT.
class SlowReader final : public net::Stream {
 public:
  explicit SlowReader(net::TcpConnection tcp) : tcp_(std::move(tcp)) {
    int bytes = 64 * 1024;
    ::setsockopt(tcp_.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }

  std::size_t read(std::span<std::uint8_t> out) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return tcp_.read(out.first(std::min<std::size_t>(out.size(), 32 * 1024)));
  }
  using net::Stream::write_all;
  void write_all(std::span<const std::uint8_t> data) override {
    tcp_.write_all(data);
  }
  void close() override { tcp_.close(); }

 private:
  net::TcpConnection tcp_;
};

rpc::Request read_request(const std::string& path, std::int64_t offset,
                          std::int64_t length) {
  rpc::Request request;
  request.method = "file.read";
  request.params = {rpc::Value(path), rpc::Value(offset), rpc::Value(length)};
  request.id = rpc::Value(std::int64_t{7});
  return request;
}

class SendfileResponse : public ::testing::Test {
 protected:
  SendfileResponse() : content_(patterned_bytes(kFileSize)) {
    std::ofstream out(tmp_.sub("files") + "/blob.bin", std::ios::binary);
    out << content_;
  }

  std::string dir() const { return tmp_.path() + "/files"; }

  TempDir tmp_;
  std::string content_;
};

TEST_F(SendfileResponse, WireBytesIdenticalToArenaSerialization) {
  const TestPki& pki = TestPki::instance();
  // Threshold 0: every file.read is spliced. Threshold -1: bypass off,
  // every response goes through the arena. Same file, same request id.
  core::ClarensServer spliced(file_config(pki, dir(), 0));
  core::ClarensServer buffered(file_config(pki, dir(), -1));
  spliced.start();
  buffered.start();
  std::string spliced_session = spliced.direct_login(
      pki.alice.certificate.subject().str()).id;
  std::string buffered_session = buffered.direct_login(
      pki.alice.certificate.subject().str()).id;

  struct Range {
    std::int64_t offset;
    std::int64_t length;
  };
  const Range ranges[] = {
      {0, static_cast<std::int64_t>(kFileSize)},  // whole file
      {4096, 100 * 1024},                         // interior slice
      {static_cast<std::int64_t>(kFileSize) - 17, 4096},  // clamped at EOF
      {0, 1},                                     // tiny but >= threshold 0
  };
  for (const Range& range : ranges) {
    rpc::Request request =
        read_request("/data/blob.bin", range.offset, range.length);
    std::string fast =
        raw_binrpc_body(spliced.port(), spliced_session, request);
    std::string slow =
        raw_binrpc_body(buffered.port(), buffered_session, request);
    ASSERT_EQ(fast, slow) << "offset=" << range.offset
                          << " length=" << range.length;

    rpc::Response parsed = rpc::binrpc::parse_response(fast);
    ASSERT_FALSE(parsed.is_fault);
    std::int64_t want =
        std::min(range.length,
                 static_cast<std::int64_t>(kFileSize) - range.offset);
    const auto& bytes = parsed.result.as_binary();
    ASSERT_EQ(bytes.size(), static_cast<std::size_t>(want));
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
              content_.substr(static_cast<std::size_t>(range.offset),
                              static_cast<std::size_t>(want)));
  }
  spliced.stop();
  buffered.stop();
}

TEST_F(SendfileResponse, ClientReadsMatchOverPlaintextAndTls) {
  const TestPki& pki = TestPki::instance();
  const std::string big = patterned_bytes(8 * 1024 * 1024);
  std::ofstream(dir() + "/big.bin", std::ios::binary) << big;
  for (bool use_tls : {false, true}) {
    core::ClarensConfig config = file_config(pki, dir(), 1);
    config.use_tls = use_tls;
    config.credential = pki.server;
    core::ClarensServer server(std::move(config));
    server.start();

    client::ClientOptions options;
    options.port = server.port();
    options.credential = pki.alice;
    options.trust = &pki.trust;
    options.use_tls = use_tls;
    options.protocol = rpc::Protocol::Binary;
    client::ClarensClient client(options);
    client.connect();
    client.authenticate();

    auto bytes = client.file_read("/data/blob.bin", 8192, 128 * 1024);
    ASSERT_EQ(bytes.size(), 128u * 1024);
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
              content_.substr(8192, 128 * 1024));

    // An 8 MiB region (the file.read cap) to a client that sleeps between
    // reads.
    std::unique_ptr<net::Stream> stream = std::make_unique<SlowReader>(
        net::TcpConnection::connect("127.0.0.1", server.port()));
    if (use_tls) {
      tls::TlsConfig tls;
      tls.credential = pki.alice;
      tls.trust = &pki.trust;
      stream = tls::SecureChannel::connect(std::move(stream), tls);
    }
    std::string session =
        server.direct_login(pki.alice.certificate.subject().str()).id;
    std::string body = binrpc_body(
        *stream, session,
        read_request("/data/big.bin", 0, static_cast<std::int64_t>(big.size())));
    rpc::Response parsed = rpc::binrpc::parse_response(body);
    ASSERT_FALSE(parsed.is_fault) << "tls=" << use_tls;
    const auto& slow = parsed.result.as_binary();
    EXPECT_TRUE(std::string(slow.begin(), slow.end()) == big)
        << "tls=" << use_tls;
    server.stop();
  }
}

TEST_F(SendfileResponse, NonBinaryProtocolsNeverTakeTheBypass) {
  const TestPki& pki = TestPki::instance();
  // Threshold 0 would splice every binary read; XML-RPC must still get a
  // correct base64 response because the offer is binary-protocol only.
  core::ClarensServer server(file_config(pki, dir(), 0));
  server.start();

  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.alice;
  options.trust = &pki.trust;
  options.protocol = rpc::Protocol::XmlRpc;
  client::ClarensClient client(options);
  client.connect();
  client.authenticate();

  auto bytes = client.file_read("/data/blob.bin", 0, 70 * 1024);
  ASSERT_EQ(bytes.size(), 70u * 1024);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
            content_.substr(0, 70 * 1024));
  server.stop();
}

}  // namespace
}  // namespace clarens
