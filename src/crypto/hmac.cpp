#include "crypto/hmac.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace clarens::crypto {

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256::Digest d = Sha256::hash(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(pad);
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(pad);
}

HmacSha256::HmacSha256(std::string_view key) : HmacSha256(as_bytes(key)) {}

Sha256::Digest HmacSha256::finish(Sha256& inner) const {
  Sha256::Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> data) const {
  Sha256 inner = inner_;
  inner.update(data);
  return finish(inner);
}

Sha256::Digest HmacSha256::mac(std::string_view data) const {
  return mac(as_bytes(data));
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> data) {
  return HmacSha256(key).mac(data);
}

Sha256::Digest hmac_sha256(std::string_view key, std::string_view data) {
  return HmacSha256(key).mac(data);
}

std::vector<std::uint8_t> derive_key(std::span<const std::uint8_t> ikm,
                                     std::string_view label,
                                     std::size_t length) {
  constexpr std::size_t kMaxBlocks = 255;  // the counter is one byte
  if (length > kMaxBlocks * Sha256::kDigestSize) {
    throw Error("derive_key: length exceeds 255 blocks");
  }
  const HmacSha256 key(ikm);
  std::vector<std::uint8_t> out;
  out.reserve(length);
  Sha256::Digest t{};
  for (std::uint8_t counter = 1; out.size() < length; ++counter) {
    Sha256 h = key.begin();
    if (counter > 1) h.update(t);
    h.update(label);
    h.update(std::span<const std::uint8_t>(&counter, 1));
    t = key.finish(h);
    std::size_t take = std::min(t.size(), length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return out;
}

bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace clarens::crypto
