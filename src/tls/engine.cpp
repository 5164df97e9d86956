#include "tls/engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/random.hpp"
#include "tls/channel.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::tls {

namespace {

constexpr std::uint8_t kRecordHandshake = 1;
constexpr std::uint8_t kRecordData = 2;
constexpr std::uint8_t kRecordAlert = 3;

constexpr std::size_t kRecordHeader = 5;  // u8 type | u32 length
constexpr std::size_t kRandomSize = 32;
constexpr std::size_t kPreMasterSize = 48;
constexpr std::size_t kMaxRecord = 1 << 24;
constexpr std::size_t kMaxPlainChunk = 16 * 1024;  // like real TLS records

void put_blob(util::Buffer& buf, std::span<const std::uint8_t> data) {
  buf.write_u32(static_cast<std::uint32_t>(data.size()));
  buf.write(data);
}

void put_blob(util::Buffer& buf, const std::string& s) {
  buf.write_u32(static_cast<std::uint32_t>(s.size()));
  buf.write(s);
}

std::vector<std::uint8_t> get_blob(util::Buffer& buf) {
  std::uint32_t len = buf.read_u32();
  if (len > kMaxRecord) throw ParseError("handshake blob too large");
  return buf.read(len);
}

std::string get_blob_string(util::Buffer& buf) {
  std::uint32_t len = buf.read_u32();
  if (len > kMaxRecord) throw ParseError("handshake blob too large");
  return buf.read_string(len);
}

void put_chain(util::Buffer& buf, const std::optional<pki::Credential>& cred,
               const std::vector<pki::Certificate>& extra) {
  std::vector<std::string> encoded;
  if (cred) {
    encoded.push_back(cred->certificate.encode());
    for (const auto& cert : extra) encoded.push_back(cert.encode());
  }
  buf.write_u32(static_cast<std::uint32_t>(encoded.size()));
  for (const auto& e : encoded) put_blob(buf, e);
}

std::vector<pki::Certificate> get_chain(util::Buffer& buf) {
  std::uint32_t count = buf.read_u32();
  if (count > 8) throw ParseError("certificate chain too long");
  std::vector<pki::Certificate> chain;
  chain.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    chain.push_back(pki::Certificate::decode(get_blob_string(buf)));
  }
  return chain;
}

std::vector<std::uint8_t> concat(std::span<const std::uint8_t> a,
                                 std::span<const std::uint8_t> b) {
  std::vector<std::uint8_t> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

crypto::Sha256::Digest finished_mac(std::span<const std::uint8_t> master,
                                    std::span<const std::uint8_t> transcript,
                                    std::string_view label) {
  const crypto::HmacSha256 key(master);
  crypto::Sha256 mac = key.begin();
  mac.update(transcript);
  mac.update(label);
  return key.finish(mac);
}

std::array<std::uint8_t, 8> sequence_bytes(std::uint64_t seq) {
  std::array<std::uint8_t, 8> out;
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(seq >> (8 * (7 - i)));
  }
  return out;
}

// HMAC(seq | type | data): the record MAC, streamed from its pieces.
crypto::Sha256::Digest record_mac(const crypto::HmacSha256& key,
                                  std::span<const std::uint8_t> seq,
                                  std::span<const std::uint8_t> data) {
  crypto::Sha256 mac = key.begin();
  mac.update(seq);
  const std::uint8_t type = kRecordData;
  mac.update(std::span<const std::uint8_t>(&type, 1));
  mac.update(data);
  return key.finish(mac);
}

// The record's ChaCha20 key stream: the nonce is the first 12 bytes of
// HMAC(seq).
crypto::ChaCha20 record_cipher(const std::vector<std::uint8_t>& cipher_key,
                               const crypto::HmacSha256& mac_key,
                               std::span<const std::uint8_t> seq) {
  crypto::Sha256::Digest nonce = mac_key.mac(seq);
  return crypto::ChaCha20(cipher_key, std::span<const std::uint8_t>(
                                          nonce.data(), crypto::ChaCha20::kNonceSize));
}

void write_record_header(util::Buffer& out, std::uint8_t type,
                         std::size_t length) {
  out.write_u8(type);
  out.write_u32(static_cast<std::uint32_t>(length));
}

}  // namespace

Engine::Engine(Role role, const TlsConfig& config)
    : role_(role),
      config_(config),
      state_(role == Role::Server ? State::ExpectClientHello
                                  : State::StartPending) {
  if (!config.trust) throw Error("TLS config requires a trust store");
  if (role == Role::Server && !config.credential) {
    throw Error("TLS server requires a credential");
  }
}

void Engine::start(util::Buffer& out) {
  if (role_ != Role::Client || state_ != State::StartPending) {
    throw Error("Engine::start: not a fresh client engine");
  }
  client_random_ = crypto::random_bytes(kRandomSize);
  util::Buffer hello;
  put_blob(hello, client_random_);
  put_chain(hello, config_.credential, config_.chain);
  write_record_header(out, kRecordHandshake, hello.readable());
  out.write(hello.peek());
  state_ = State::ExpectServerHello;
}

void Engine::send_alert(std::string_view reason, util::Buffer& out) {
  alert_sent_ = true;
  write_record_header(out, kRecordAlert, reason.size());
  out.write(reason);
}

void Engine::feed(std::span<const std::uint8_t> data, util::Buffer& out) {
  if (state_ == State::Failed) throw ParseError("TLS engine already failed");
  in_.write(data);
  // Remembered across the loop so the failure path knows whether the
  // record that killed us was itself an alert (never answer an alert
  // with an alert — that would ping-pong).
  std::uint8_t current_type = kRecordHandshake;
  try {
    // Consume every complete record buffered so far; partial records wait
    // for the next feed (this is what makes byte-at-a-time delivery work).
    for (;;) {
      if (in_.readable() < kRecordHeader) break;
      std::span<const std::uint8_t> raw = in_.peek();
      std::uint8_t type = raw[0];
      current_type = type;
      std::uint32_t len = (static_cast<std::uint32_t>(raw[1]) << 24) |
                          (static_cast<std::uint32_t>(raw[2]) << 16) |
                          (static_cast<std::uint32_t>(raw[3]) << 8) | raw[4];
      if (len > kMaxRecord) throw ParseError("TLS record too large");
      if (in_.readable() < kRecordHeader + len) break;
      // The payload view stays valid until the next in_ mutation; consume
      // happens after handle_record returns.
      std::span<const std::uint8_t> payload = raw.subspan(kRecordHeader, len);
      handle_record(type, payload, out);
      in_.consume(kRecordHeader + len);
      if (in_.empty()) in_.compact();
    }
  } catch (...) {
    state_ = State::Failed;
    // Honor the header contract: the alert owed to the peer is in `out`
    // before the throw, unless a handler already produced a specific one.
    if (!alert_sent_ && current_type != kRecordAlert) {
      send_alert("protocol failure", out);
    }
    throw;
  }
}

void Engine::handle_record(std::uint8_t type,
                           std::span<const std::uint8_t> payload,
                           util::Buffer& out) {
  if (type == kRecordAlert) {
    throw AuthError("TLS alert from peer: " +
                    std::string(payload.begin(), payload.end()));
  }
  if (state_ == State::Established) {
    if (type != kRecordData) throw ParseError("expected TLS data record");
    decrypt_record(payload);
    return;
  }
  if (type != kRecordHandshake) {
    throw ParseError("expected TLS handshake record");
  }
  switch (state_) {
    case State::ExpectClientHello: on_client_hello(payload, out); break;
    case State::ExpectKeyExchange: on_key_exchange(payload); break;
    case State::ExpectClientFinished: on_client_finished(payload, out); break;
    case State::ExpectServerHello: on_server_hello(payload, out); break;
    case State::ExpectServerFinished: on_server_finished(payload); break;
    default: throw ParseError("unexpected TLS handshake record");
  }
}

// ---------------------------------------------------------------------------
// Server-side handshake.

void Engine::on_client_hello(std::span<const std::uint8_t> payload,
                             util::Buffer& out) {
  util::Buffer hello;
  hello.write(payload);
  client_random_ = get_blob(hello);
  if (client_random_.size() != kRandomSize) {
    throw ParseError("bad client random");
  }
  std::vector<pki::Certificate> client_chain = get_chain(hello);

  if (client_chain.empty() && config_.require_peer_certificate) {
    send_alert("certificate required", out);
    throw AuthError("client presented no certificate");
  }
  if (!client_chain.empty()) {
    pki::TrustStore::Result client_identity =
        config_.trust->verify(client_chain, util::unix_now());
    if (!client_identity.ok) {
      send_alert("bad certificate", out);
      throw AuthError("client certificate rejected: " + client_identity.error);
    }
    peer_ = client_identity;
    peer_chain_ = client_chain;
  }

  server_random_ = crypto::random_bytes(kRandomSize);
  util::Buffer server_hello;
  put_blob(server_hello, server_random_);
  put_chain(server_hello, config_.credential, config_.chain);
  write_record_header(out, kRecordHandshake, server_hello.readable());
  out.write(server_hello.peek());
  state_ = State::ExpectKeyExchange;
}

void Engine::on_key_exchange(std::span<const std::uint8_t> payload) {
  util::Buffer kx;
  kx.write(payload);
  std::vector<std::uint8_t> encrypted = get_blob(kx);
  std::vector<std::uint8_t> sig = get_blob(kx);
  auto pre_master =
      crypto::rsa_decrypt(config_.credential->private_key, encrypted);
  if (!pre_master || pre_master->size() != kPreMasterSize) {
    throw AuthError("key exchange decryption failed");
  }
  std::vector<std::uint8_t> transcript = concat(client_random_, server_random_);
  if (!peer_chain_.empty()) {
    if (sig.empty() ||
        !crypto::rsa_verify(peer_chain_.front().public_key(),
                            std::span<const std::uint8_t>(transcript), sig)) {
      throw AuthError("client key-possession proof failed");
    }
  }
  std::vector<std::uint8_t> ikm = *pre_master;
  ikm.insert(ikm.end(), transcript.begin(), transcript.end());
  master_ = crypto::derive_key(ikm, "master", 48);
  derive_keys(master_);
  state_ = State::ExpectClientFinished;
}

void Engine::on_client_finished(std::span<const std::uint8_t> payload,
                                util::Buffer& out) {
  std::vector<std::uint8_t> transcript = concat(client_random_, server_random_);
  auto expected = finished_mac(master_, transcript, "client finished");
  if (!crypto::constant_time_equal(payload, expected)) {
    throw AuthError("client Finished verification failed");
  }
  auto server_finished = finished_mac(master_, transcript, "server finished");
  write_record_header(out, kRecordHandshake, server_finished.size());
  out.write(std::span<const std::uint8_t>(server_finished));
  master_.assign(master_.size(), 0);
  master_.clear();
  state_ = State::Established;
}

// ---------------------------------------------------------------------------
// Client-side handshake.

void Engine::on_server_hello(std::span<const std::uint8_t> payload,
                             util::Buffer& out) {
  util::Buffer server_hello;
  server_hello.write(payload);
  server_random_ = get_blob(server_hello);
  if (server_random_.size() != kRandomSize) {
    throw ParseError("bad server random");
  }
  std::vector<pki::Certificate> server_chain = get_chain(server_hello);
  if (server_chain.empty()) throw AuthError("server presented no certificate");

  pki::TrustStore::Result server_identity =
      config_.trust->verify(server_chain, util::unix_now());
  if (!server_identity.ok) {
    throw AuthError("server certificate rejected: " + server_identity.error);
  }
  peer_ = server_identity;
  peer_chain_ = server_chain;

  std::vector<std::uint8_t> transcript = concat(client_random_, server_random_);

  // KeyExchange.
  std::vector<std::uint8_t> pre_master = crypto::random_bytes(kPreMasterSize);
  std::vector<std::uint8_t> encrypted = crypto::rsa_encrypt(
      server_chain.front().public_key(), pre_master, crypto::system_drbg());
  util::Buffer kx;
  put_blob(kx, encrypted);
  if (config_.credential) {
    std::vector<std::uint8_t> sig =
        crypto::rsa_sign(config_.credential->private_key,
                         std::span<const std::uint8_t>(transcript));
    put_blob(kx, sig);
  } else {
    kx.write_u32(0);
  }
  write_record_header(out, kRecordHandshake, kx.readable());
  out.write(kx.peek());

  std::vector<std::uint8_t> ikm = pre_master;
  ikm.insert(ikm.end(), transcript.begin(), transcript.end());
  master_ = crypto::derive_key(ikm, "master", 48);
  derive_keys(master_);

  auto client_finished = finished_mac(master_, transcript, "client finished");
  write_record_header(out, kRecordHandshake, client_finished.size());
  out.write(std::span<const std::uint8_t>(client_finished));
  state_ = State::ExpectServerFinished;
}

void Engine::on_server_finished(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> transcript = concat(client_random_, server_random_);
  auto expected = finished_mac(master_, transcript, "server finished");
  if (!crypto::constant_time_equal(payload, expected)) {
    throw AuthError("server Finished verification failed");
  }
  master_.assign(master_.size(), 0);
  master_.clear();
  state_ = State::Established;
}

void Engine::derive_keys(std::span<const std::uint8_t> master) {
  auto make = [&](const char* label) {
    std::vector<std::uint8_t> material = crypto::derive_key(master, label, 64);
    return Keys{std::vector<std::uint8_t>(material.begin(), material.begin() + 32),
                crypto::HmacSha256(std::span<const std::uint8_t>(material).subspan(32))};
  };
  Keys client = make("client write");
  Keys server = make("server write");
  if (role_ == Role::Server) {
    send_keys_ = std::move(server);
    recv_keys_ = std::move(client);
  } else {
    send_keys_ = std::move(client);
    recv_keys_ = std::move(server);
  }
}

// ---------------------------------------------------------------------------
// Record layer. A data record is ChaCha20(plain | HMAC(seq | type | plain)).
// Both directions work in place in the destination buffer: the plaintext
// is MACed where it lands and encrypted or decrypted there.

void Engine::decrypt_record(std::span<const std::uint8_t> payload) {
  constexpr std::size_t kMac = crypto::Sha256::kDigestSize;
  if (payload.size() < kMac) throw ParseError("TLS record shorter than MAC");
  const std::array<std::uint8_t, 8> seq = sequence_bytes(recv_seq_);
  std::span<char> reserved = plain_in_.write_reserve(payload.size());
  std::span<std::uint8_t> dst(reinterpret_cast<std::uint8_t*>(reserved.data()),
                              reserved.size());
  std::copy(payload.begin(), payload.end(), dst.begin());
  record_cipher(recv_keys_.cipher_key, recv_keys_.mac, seq).crypt(dst);

  const std::size_t data_len = payload.size() - kMac;
  const crypto::Sha256::Digest expected =
      record_mac(recv_keys_.mac, seq, dst.first(data_len));
  if (!crypto::constant_time_equal(dst.subspan(data_len), expected)) {
    plain_in_.commit(0);
    throw AuthError("TLS record MAC mismatch");
  }
  ++recv_seq_;
  plain_in_.commit(data_len);
}

std::size_t Engine::read_plain(std::span<std::uint8_t> out) {
  std::size_t take = std::min(out.size(), plain_in_.readable());
  std::memcpy(out.data(), plain_in_.peek().data(), take);
  plain_in_.consume(take);
  if (plain_in_.empty()) plain_in_.compact();
  return take;
}

void Engine::encrypt(std::span<const std::uint8_t> data, util::Buffer& out) {
  const std::string_view chunk(reinterpret_cast<const char*>(data.data()),
                               data.size());
  encrypt(std::span<const std::string_view>(&chunk, 1), out);
}

void Engine::encrypt(std::span<const std::string_view> chunks,
                     util::Buffer& out) {
  if (!handshake_done()) throw Error("TLS engine: handshake not complete");
  // Adjacent chunks share records: a response's header + body leave as
  // one record instead of one per chunk (each record costs an HMAC +
  // header on the wire). Records carry kMaxPlainChunk bytes each, the
  // last one the rest; no bytes at all still make one empty record.
  constexpr std::size_t kMac = crypto::Sha256::kDigestSize;
  std::size_t left = 0;
  for (std::string_view chunk : chunks) left += chunk.size();
  std::size_t index = 0;   // chunk being copied
  std::size_t offset = 0;  // bytes of it already copied
  do {
    const std::size_t len = std::min(kMaxPlainChunk, left);
    left -= len;
    write_record_header(out, kRecordData, len + kMac);
    std::span<char> reserved = out.write_reserve(len + kMac);
    std::span<std::uint8_t> record(
        reinterpret_cast<std::uint8_t*>(reserved.data()), reserved.size());
    for (std::size_t filled = 0; filled < len;) {
      const std::string_view chunk = chunks[index];
      const std::size_t take = std::min(len - filled, chunk.size() - offset);
      std::copy_n(chunk.data() + offset, take, record.data() + filled);
      filled += take;
      offset += take;
      if (offset == chunk.size()) {
        ++index;
        offset = 0;
      }
    }
    const std::array<std::uint8_t, 8> seq = sequence_bytes(send_seq_);
    const crypto::Sha256::Digest mac =
        record_mac(send_keys_.mac, seq, record.first(len));
    std::copy(mac.begin(), mac.end(), record.begin() + static_cast<long>(len));
    record_cipher(send_keys_.cipher_key, send_keys_.mac, seq).crypt(record);
    out.commit(record.size());
    ++send_seq_;
  } while (left > 0);
}

}  // namespace clarens::tls
