#include "crypto/sha256.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/hex.hpp"

namespace clarens::crypto {

namespace {

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, std::uint32_t n) {
  return (x >> n) | (x << (32 - n));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The SHA extensions keep the state as two registers, ABEF and CDGH, and
// run two rounds per sha256rnds2. Each step below is four rounds over one
// message register; msg1/msg2 extend the schedule four words at a time,
// so the sixteen steps cycle through four message registers.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& cur = msg[q % 4];
      if (q < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(kRoundConstants + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (q >= 3 && q < 15) {  // words 4(q+1) .. 4(q+1)+3
        __m128i& next = msg[(q + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(q + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (q >= 1 && q < 13) {
        __m128i& prev = msg[(q + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

}  // namespace

Sha256::Kernel Sha256::portable_kernel() { return compress_portable; }

Sha256::Kernel Sha256::sha_ni_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // in case this runs before libgcc's constructor
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return compress_sha_ni;
  }
#endif
  return nullptr;
}

Sha256::Kernel Sha256::default_kernel() {
  static const Kernel chosen = sha_ni_kernel() ? sha_ni_kernel() : compress_portable;
  return chosen;
}

const char* Sha256::default_kernel_name() {
  return default_kernel() == compress_portable ? "portable" : "sha-ni";
}

Sha256::Sha256(Kernel kernel) : kernel_(kernel) { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  block_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (block_len_ > 0) {
    std::size_t take = std::min(data.size(), block_.size() - block_len_);
    std::copy_n(data.data(), take, block_.data() + block_len_);
    block_len_ += take;
    offset = take;
    if (block_len_ < block_.size()) return;
    kernel_(state_.data(), block_.data(), 1);
    block_len_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  block_len_ = data.size() - offset;
  std::copy_n(data.data() + offset, block_len_, block_.data());
}

Sha256::Digest Sha256::finish() {
  // 0x80, zeros up to 56 mod 64, then the bit length: one block, or two
  // when fewer than 9 bytes are left in this one.
  const std::uint64_t bit_len = total_len_ * 8;
  block_[block_len_] = 0x80;
  std::fill(block_.begin() + static_cast<long>(block_len_) + 1, block_.end(), 0);
  if (block_len_ >= 56) {
    kernel_(state_.data(), block_.data(), 1);
    block_.fill(0);
  }
  for (int i = 0; i < 8; ++i) {
    block_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  kernel_(state_.data(), block_.data(), 1);
  block_len_ = 0;

  Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256::Digest Sha256::hash(std::string_view data) {
  Sha256 sha;
  sha.update(data);
  return sha.finish();
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 sha;
  sha.update(data);
  return sha.finish();
}

std::string Sha256::hex(std::string_view data) {
  Digest d = hash(data);
  return util::hex_encode(d);
}

}  // namespace clarens::crypto
