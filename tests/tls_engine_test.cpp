// Unit tests for the sans-IO TLS engine: the handshake and record layer
// as a pure state machine, driven under arbitrary wire fragmentation —
// one byte at a time and whole flights coalesced — plus record
// coalescing for vectored writes and tamper detection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "test_fixtures.hpp"
#include "tls/channel.hpp"
#include "tls/engine.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"

namespace clarens::tls {
namespace {

using clarens::testing::TestPki;

/// The engine keeps a reference to its TlsConfig, so the pair fixture
/// owns both configs for the lifetime of both engines.
struct EnginePair {
  EnginePair() {
    const TestPki& pki = TestPki::instance();
    client_config.credential = pki.alice;
    client_config.trust = &pki.trust;
    server_config.credential = pki.server;
    server_config.trust = &pki.trust;
    client = std::make_unique<Engine>(Engine::Role::Client, client_config);
    server = std::make_unique<Engine>(Engine::Role::Server, server_config);
  }

  TlsConfig client_config;
  TlsConfig server_config;
  std::unique_ptr<Engine> client;
  std::unique_ptr<Engine> server;
};

/// Move every byte queued in `wire` into `to`, `step` bytes per feed()
/// call; responses accumulate into `reply`.
void deliver(util::Buffer& wire, Engine& to, util::Buffer& reply,
             std::size_t step) {
  while (!wire.empty()) {
    auto view = wire.peek();
    std::size_t n = std::min(step, view.size());
    to.feed(view.subspan(0, n), reply);
    wire.consume(n);
  }
}

/// Run the full handshake, delivering client->server bytes in chunks of
/// `client_step` and server->client bytes in chunks of `server_step`.
void run_handshake(Engine& client, Engine& server, std::size_t client_step,
                   std::size_t server_step) {
  util::Buffer to_server;
  util::Buffer to_client;
  client.start(to_server);
  int rounds = 0;
  while (!(client.handshake_done() && server.handshake_done())) {
    ASSERT_LT(++rounds, 16) << "handshake did not converge";
    deliver(to_server, server, to_client, client_step);
    deliver(to_client, client, to_server, server_step);
  }
}

/// Number of complete records (u8 type | u32 len | payload) in `wire`.
int count_records(const util::Buffer& wire) {
  auto bytes = wire.peek();
  int records = 0;
  std::size_t pos = 0;
  while (pos + 5 <= bytes.size()) {
    std::uint32_t len = (std::uint32_t{bytes[pos + 1]} << 24) |
                        (std::uint32_t{bytes[pos + 2]} << 16) |
                        (std::uint32_t{bytes[pos + 3]} << 8) |
                        std::uint32_t{bytes[pos + 4]};
    pos += 5 + len;
    ++records;
  }
  EXPECT_EQ(pos, bytes.size()) << "trailing partial record";
  return records;
}

std::string drain_plain(Engine& engine) {
  std::string out;
  std::vector<std::uint8_t> buf(4096);
  while (engine.plain_available() > 0) {
    std::size_t n = engine.read_plain(buf);
    out.append(reinterpret_cast<const char*>(buf.data()), n);
  }
  return out;
}

TEST(TlsEngine, HandshakeConvergesWithCoalescedFlights) {
  const TestPki& pki = TestPki::instance();
  EnginePair pair;
  run_handshake(*pair.client, *pair.server, 1 << 20, 1 << 20);

  ASSERT_TRUE(pair.client->peer().has_value());
  EXPECT_EQ(pair.client->peer()->identity, pki.server.certificate.subject());
  ASSERT_TRUE(pair.server->peer().has_value());
  EXPECT_EQ(pair.server->peer()->identity, pki.alice.certificate.subject());
}

TEST(TlsEngine, HandshakeConvergesOneByteAtATime) {
  const TestPki& pki = TestPki::instance();
  EnginePair pair;
  run_handshake(*pair.client, *pair.server, 1, 1);

  EXPECT_TRUE(pair.client->handshake_done());
  EXPECT_TRUE(pair.server->handshake_done());
  ASSERT_TRUE(pair.server->peer().has_value());
  EXPECT_EQ(pair.server->peer()->identity, pki.alice.certificate.subject());
}

TEST(TlsEngine, DataSurvivesArbitraryFragmentation) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  std::string message = "GET /portal HTTP/1.1\r\n\r\n";
  util::Buffer wire;
  client.encrypt(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(message.data()),
          message.size()),
      wire);
  util::Buffer reply;
  deliver(wire, server, reply, 3);  // awkward stride across record edges
  EXPECT_TRUE(reply.empty()) << "data records must not provoke responses";
  EXPECT_EQ(drain_plain(server), message);
}

TEST(TlsEngine, EncryptCoalescesChunksIntoOneRecord) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  // A vectored HTTP response: status/header chunk plus body chunk. The
  // engine must pack both into a single shared record, not one each.
  std::string head = "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n";
  std::string body = "hello world";
  std::vector<std::string_view> chunks = {head, body};
  util::Buffer wire;
  client.encrypt(chunks, wire);
  EXPECT_EQ(count_records(wire), 1);

  util::Buffer reply;
  deliver(wire, server, reply, 1 << 20);
  EXPECT_EQ(drain_plain(server), head + body);
}

TEST(TlsEngine, LargeWriteSplitsIntoBoundedRecords) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  std::string big(40 * 1024, 'x');  // > 2 full 16 KiB records
  std::vector<std::string_view> chunks = {big};
  util::Buffer wire;
  client.encrypt(chunks, wire);
  EXPECT_GE(count_records(wire), 3);

  util::Buffer reply;
  deliver(wire, server, reply, 4096);
  EXPECT_EQ(drain_plain(server), big);
}

TEST(TlsEngine, RecordsSpanChunkBoundariesAndSkipEmptyChunks) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  // 16 KiB + 2 bytes across five chunks, two of them empty: the first
  // record ends inside the middle chunk, the second holds the rest.
  std::string a(10000, 'a'), b(6000, 'b'), c(386, 'c');
  std::vector<std::string_view> chunks = {"", a, b, "", c};
  util::Buffer wire;
  client.encrypt(chunks, wire);
  EXPECT_EQ(count_records(wire), 2);

  // No bytes at all still make one (empty) record.
  std::vector<std::string_view> none = {"", ""};
  client.encrypt(none, wire);
  EXPECT_EQ(count_records(wire), 3);

  util::Buffer reply;
  deliver(wire, server, reply, 1000);
  EXPECT_EQ(drain_plain(server), a + b + c);
}

TEST(TlsEngine, TamperedRecordReleasesNoPlaintext) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  std::string first = "verified", second = "forged";
  std::vector<std::string_view> chunks = {first};
  util::Buffer wire;
  client.encrypt(chunks, wire);
  chunks = {second};
  client.encrypt(chunks, wire);
  std::vector<std::uint8_t> bytes(wire.peek().begin(), wire.peek().end());
  bytes[bytes.size() - 33] ^= 0x01;  // flip the last data byte of "forged"

  util::Buffer reply;
  EXPECT_THROW(server.feed(bytes, reply), AuthError);
  // The first record was verified and stays readable; no byte of the
  // failed one is.
  EXPECT_EQ(drain_plain(server), first);
}

TEST(TlsEngine, TamperedRecordRaisesAuthErrorAndEmitsAlert) {
  EnginePair pair;
  Engine& client = *pair.client;
  Engine& server = *pair.server;
  run_handshake(client, server, 1 << 20, 1 << 20);

  std::string message = "payload";
  util::Buffer wire;
  client.encrypt(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(message.data()),
          message.size()),
      wire);
  std::vector<std::uint8_t> bytes(wire.peek().begin(), wire.peek().end());
  bytes[bytes.size() - 1] ^= 0x01;  // flip a MAC byte

  util::Buffer reply;
  EXPECT_THROW(server.feed(bytes, reply), AuthError);
  // The alert owed to the peer was appended before the throw, so the
  // caller can flush it best-effort and close.
  EXPECT_FALSE(reply.empty());
}

}  // namespace
}  // namespace clarens::tls
