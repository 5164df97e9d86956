#include "util/hex.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <cstring>

#include "util/error.hpp"

namespace clarens::util {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

constexpr char kB64Digits[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Marks a byte outside the alphabet in the decode tables below.
constexpr std::uint8_t kInvalid = 0xff;

// Hex digit value per byte, kInvalid for anything else.
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kInvalid);
  for (int i = 0; i < 10; ++i) table['0' + i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 6; ++i) {
    table['a' + i] = static_cast<std::uint8_t>(10 + i);
    table['A' + i] = static_cast<std::uint8_t>(10 + i);
  }
  return table;
}();

// Base64 digit value per byte, kInvalid for anything else ('=' and
// whitespace included: the per-character loop handles those).
constexpr std::array<std::uint8_t, 256> kB64Value = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kInvalid);
  for (int i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kB64Digits[i])] =
        static_cast<std::uint8_t>(i);
  }
  return table;
}();

// The two base64 digits of every 12-bit value, as characters in output
// order, so the encoded bytes do not depend on host byte order.
using DigitPair = std::array<char, 2>;
constexpr std::array<DigitPair, 4096> kB64Pairs = [] {
  std::array<DigitPair, 4096> table{};
  for (int v = 0; v < 4096; ++v) {
    table[v] = {kB64Digits[v >> 6], kB64Digits[v & 63]};
  }
  return table;
}();

std::size_t base64_encoded_size(std::size_t n) { return (n + 2) / 3 * 4; }

// in[0..5] as a 48-bit big-endian number, from one 8-byte load: the
// caller guarantees 8 readable bytes.
std::uint64_t load_be48(const std::uint8_t* in) {
  std::uint64_t v = 0;
  std::memcpy(&v, in, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v >> 16;
}

// Writes the padded encoding of `data` at `p`, which has room for
// base64_encoded_size(data.size()) characters.
void base64_encode_to(char* p, std::span<const std::uint8_t> data) {
  const std::uint8_t* in = data.data();
  std::size_t n = data.size();
  std::size_t i = 0;
  // Two groups (6 bytes, 8 characters) per step, gathered in a local
  // array so they leave with one store.
  for (; i + 8 <= n; i += 6, p += 8) {
    std::uint64_t v = load_be48(in + i);
    char chars[8];
    std::memcpy(chars, kB64Pairs[(v >> 36) & 0xfff].data(), 2);
    std::memcpy(chars + 2, kB64Pairs[(v >> 24) & 0xfff].data(), 2);
    std::memcpy(chars + 4, kB64Pairs[(v >> 12) & 0xfff].data(), 2);
    std::memcpy(chars + 6, kB64Pairs[v & 0xfff].data(), 2);
    std::memcpy(p, chars, sizeof chars);
  }
  for (; i + 3 <= n; i += 3, p += 4) {
    std::uint32_t v = (std::uint32_t{in[i]} << 16) |
                      (std::uint32_t{in[i + 1]} << 8) | in[i + 2];
    std::memcpy(p, kB64Pairs[v >> 12].data(), 2);
    std::memcpy(p + 2, kB64Pairs[v & 0xfff].data(), 2);
  }
  std::size_t rest = n - i;
  if (rest == 0) return;
  std::uint32_t v = std::uint32_t{in[i]} << 16;
  if (rest == 2) v |= std::uint32_t{in[i + 1]} << 8;
  p[0] = kB64Digits[(v >> 18) & 63];
  p[1] = kB64Digits[(v >> 12) & 63];
  p[2] = rest == 2 ? kB64Digits[(v >> 6) & 63] : '=';
  p[3] = '=';
}

}  // namespace

std::string hex_encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t byte : data) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0x0f]);
  }
  return out;
}

std::vector<std::uint8_t> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) throw ParseError("hex string has odd length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  const auto* in = reinterpret_cast<const unsigned char*>(hex.data());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint8_t hi = kHexValue[in[2 * i]];
    std::uint8_t lo = kHexValue[in[2 * i + 1]];
    if ((hi | lo) == kInvalid) throw ParseError("invalid hex digit");
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

std::string base64_encode(std::span<const std::uint8_t> data) {
  std::string out(base64_encoded_size(data.size()), '\0');
  base64_encode_to(out.data(), data);
  return out;
}

void base64_encode_append(Buffer& out, std::span<const std::uint8_t> data) {
  std::size_t encoded = base64_encoded_size(data.size());
  base64_encode_to(out.write_reserve(encoded).data(), data);
  out.commit(encoded);
}

std::vector<std::uint8_t> base64_decode(std::string_view b64) {
  const auto* in = reinterpret_cast<const unsigned char*>(b64.data());
  std::size_t n = b64.size();
  // Every input character carries at most 6 output bits.
  std::vector<std::uint8_t> out(n / 4 * 3 + n % 4 * 3 / 4);
  std::uint8_t* dst = out.data();
  std::uint32_t acc = 0;
  int bits = 0;
  bool seen_pad = false;
  std::size_t i = 0;
  while (i < n) {
    // At a group boundary before any padding, decode whole groups of
    // four alphabet characters with one check per group.
    if (bits == 0 && !seen_pad) {
      for (; i + 4 <= n; i += 4, dst += 3) {
        std::uint32_t a = kB64Value[in[i]], b = kB64Value[in[i + 1]],
                      c = kB64Value[in[i + 2]], d = kB64Value[in[i + 3]];
        // Digits are below 64, so the OR is kInvalid iff one is invalid.
        if ((a | b | c | d) == kInvalid) break;
        std::uint32_t v = (a << 18) | (b << 12) | (c << 6) | d;
        dst[0] = static_cast<std::uint8_t>(v >> 16);
        dst[1] = static_cast<std::uint8_t>(v >> 8);
        dst[2] = static_cast<std::uint8_t>(v);
      }
      if (i == n) break;
    }
    // One character at a time: whitespace, padding, invalid bytes, and
    // groups cut short by them.
    unsigned char c = in[i++];
    std::uint8_t v = kB64Value[c];
    if (v == kInvalid) {
      if (std::isspace(c)) continue;  // XML-RPC senders wrap lines
      if (c != '=') throw ParseError("invalid base64 character");
      seen_pad = true;  // padding: only valid at the end
      continue;
    }
    if (seen_pad) throw ParseError("base64 data after padding");
    acc = (acc << 6) | v;
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      *dst++ = static_cast<std::uint8_t>((acc >> bits) & 0xff);
    }
  }
  // Any leftover bits must be zero padding bits from an encoder.
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) {
    throw ParseError("invalid base64 trailing bits");
  }
  out.resize(static_cast<std::size_t>(dst - out.data()));
  return out;
}

}  // namespace clarens::util
