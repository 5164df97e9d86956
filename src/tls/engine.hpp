// Sans-IO TLS-like protocol engine.
//
// The handshake and record layer of tls::SecureChannel, recast as a pure
// state machine with no sockets: callers feed ciphertext bytes in as they
// arrive off the wire (in any fragmentation — one byte at a time or whole
// flights coalesced) and the engine emits outgoing handshake/alert bytes
// into a caller-owned buffer. This is what lets TLS connections live on
// the epoll reactor next to plaintext ones: the reactor pumps readable
// bytes through feed() and writes whatever the engine produced, never
// blocking for a peer's next flight.
//
// Wire format and handshake flow are identical to the blocking channel
// (see channel.hpp): records are u8 type | u32 length | payload; the
// handshake is ClientHello / ServerHello / KeyExchange / client Finished /
// server Finished with RSA key transport; the record layer is ChaCha20 +
// HMAC-SHA256 with per-direction keys.
//
// Threading: the engine is not synchronized. The HTTP server touches each
// connection's engine from its reactor thread only (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/hmac.hpp"
#include "pki/certificate.hpp"
#include "pki/verify.hpp"
#include "util/buffer.hpp"

namespace clarens::tls {

struct TlsConfig;  // channel.hpp

class Engine {
 public:
  enum class Role { Client, Server };

  /// `config` must outlive the engine (it holds the trust-store pointer
  /// and credential by reference).
  Engine(Role role, const TlsConfig& config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Client only: emit the ClientHello into `out`. Call once, before any
  /// feed(). Servers produce their first flight from feed().
  void start(util::Buffer& out);

  /// Feed ciphertext received from the wire, in any fragmentation.
  /// Complete records are consumed as they form: handshake flights append
  /// their responses to `out` (to be written to the peer), application
  /// records decrypt into the internal plaintext queue (read_plain).
  /// Throws AuthError / ParseError on protocol violations; any alert owed
  /// to the peer is appended to `out` before the throw, so callers can
  /// flush best-effort and close.
  void feed(std::span<const std::uint8_t> data, util::Buffer& out);

  bool handshake_done() const { return state_ == State::Established; }

  /// Decrypted application bytes waiting to be read.
  std::size_t plain_available() const { return plain_in_.readable(); }
  std::size_t read_plain(std::span<std::uint8_t> out);

  /// Encrypt application data into `out` as data records. Adjacent chunks
  /// are coalesced into shared records of up to 16 KiB, so a vectored
  /// response (header + body) costs one record, not one per chunk.
  void encrypt(std::span<const std::string_view> chunks, util::Buffer& out);
  void encrypt(std::span<const std::uint8_t> data, util::Buffer& out);

  /// Verified peer identity / chain; set once the peer's certificate
  /// flight has been validated (before handshake_done()).
  const std::optional<pki::TrustStore::Result>& peer() const { return peer_; }
  const std::vector<pki::Certificate>& peer_chain() const {
    return peer_chain_;
  }

 private:
  enum class State {
    // Server states (in order).
    ExpectClientHello,
    ExpectKeyExchange,
    ExpectClientFinished,
    // Client states.
    StartPending,  // before start()
    ExpectServerHello,
    ExpectServerFinished,
    Established,
    Failed,
  };

  struct Keys {
    std::vector<std::uint8_t> cipher_key;
    crypto::HmacSha256 mac;  // keyed once per connection and direction
  };

  void handle_record(std::uint8_t type, std::span<const std::uint8_t> payload,
                     util::Buffer& out);
  void on_client_hello(std::span<const std::uint8_t> payload, util::Buffer& out);
  void on_key_exchange(std::span<const std::uint8_t> payload);
  void on_client_finished(std::span<const std::uint8_t> payload,
                          util::Buffer& out);
  void on_server_hello(std::span<const std::uint8_t> payload, util::Buffer& out);
  void on_server_finished(std::span<const std::uint8_t> payload);
  void derive_keys(std::span<const std::uint8_t> master);
  void send_alert(std::string_view reason, util::Buffer& out);
  void decrypt_record(std::span<const std::uint8_t> payload);

  Role role_;
  const TlsConfig& config_;
  State state_;

  // Handshake transcript state.
  std::vector<std::uint8_t> client_random_;
  std::vector<std::uint8_t> server_random_;
  std::vector<std::uint8_t> master_;

  // Record layer. Post-handshake, recv_* and in_/plain_in_ belong to the
  // read side; send_* to the write side.
  Keys send_keys_;
  Keys recv_keys_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  util::Buffer in_;        // raw wire bytes not yet forming a full record
  util::Buffer plain_in_;  // decrypted bytes not yet read by the caller

  std::optional<pki::TrustStore::Result> peer_;
  std::vector<pki::Certificate> peer_chain_;
  bool alert_sent_ = false;  // one alert per connection, ever
};

}  // namespace clarens::tls
