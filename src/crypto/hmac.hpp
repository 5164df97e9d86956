// HMAC-SHA256 (RFC 2104) and HKDF-style key derivation used by the TLS-like
// record layer and session-token minting.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace clarens::crypto {

/// HMAC-SHA256 under one key, with the key's ipad and opad blocks
/// compressed once at construction. Every MAC after that costs the
/// message's blocks plus two finishing blocks. Every member function is
/// const, so one keyed context can serve many threads.
class HmacSha256 {
 public:
  /// Keyed by the empty key.
  HmacSha256() : HmacSha256(std::span<const std::uint8_t>()) {}
  explicit HmacSha256(std::span<const std::uint8_t> key);
  explicit HmacSha256(std::string_view key);

  /// One-shot MAC of `data`.
  Sha256::Digest mac(std::span<const std::uint8_t> data) const;
  Sha256::Digest mac(std::string_view data) const;

  /// Streaming MAC: begin() returns the keyed inner hash; update() it with
  /// the message in any number of pieces, then finish() it.
  Sha256 begin() const { return inner_; }
  Sha256::Digest finish(Sha256& inner) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// HMAC-SHA256 over `data` keyed by `key`.
Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> data);

Sha256::Digest hmac_sha256(std::string_view key, std::string_view data);

/// Derive `length` bytes from input keying material with a label, an
/// HKDF-expand-like construction: T(i) = HMAC(ikm, T(i-1) | label | i).
/// The block counter i is one byte, so like HKDF the output is at most
/// 255 blocks (8160 bytes); longer requests throw clarens::Error.
std::vector<std::uint8_t> derive_key(std::span<const std::uint8_t> ikm,
                                     std::string_view label,
                                     std::size_t length);

/// Constant-time comparison for MACs and password digests.
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b);

}  // namespace clarens::crypto
