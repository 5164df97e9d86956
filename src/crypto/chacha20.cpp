#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace clarens::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> nonce, std::uint32_t counter) {
  if (key.size() != kKeySize) throw Error("ChaCha20 key must be 32 bytes");
  if (nonce.size() != kNonceSize) throw Error("ChaCha20 nonce must be 12 bytes");
  // "expand 32-byte k"
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  std::array<std::uint32_t, 16> x = state_;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    std::uint32_t v = x[i] + state_[i];
    block_[4 * i + 0] = static_cast<std::uint8_t>(v);
    block_[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    block_[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    block_[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  ++state_[12];
  block_pos_ = 0;
}

void ChaCha20::crypt(std::span<std::uint8_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (block_pos_ == 64) refill();
    data[i] ^= block_[block_pos_++];
  }
}

std::vector<std::uint8_t> ChaCha20::crypt_copy(
    std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> out(data.begin(), data.end());
  crypt(out);
  return out;
}

void ChaCha20::keystream(std::span<std::uint8_t> out) {
  std::fill(out.begin(), out.end(), 0);
  crypt(out);
}

}  // namespace clarens::crypto
