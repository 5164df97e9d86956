// Hex and base64 codecs. Base64 carries every binary RPC value on the
// text protocols (XML-RPC/SOAP <base64>, JSON {"$base64": ...}), so each
// file.read answer and file.write request, and it stores binary
// certificate material in text stores; hex is the wire format for digests
// (file.md5) and identifiers (session keys).
//
// The codecs are table-driven and branch-free on the common path: decode
// turns each group of four alphabet characters into three bytes with one
// table lookup per character and one validity check per group, and drops
// to a per-character loop only for whitespace, padding and invalid bytes;
// encode writes two characters per 12 bits from one table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/buffer.hpp"

namespace clarens::util {

/// Lowercase hex encoding of a byte span.
std::string hex_encode(std::span<const std::uint8_t> data);

/// Decode hex (upper or lower case). Throws clarens::ParseError on odd
/// length or non-hex characters.
std::vector<std::uint8_t> hex_decode(std::string_view hex);

/// Standard base64 with padding.
std::string base64_encode(std::span<const std::uint8_t> data);

/// Append the base64 encoding of `data` to `out`, formatted in place in
/// the buffer (no temporary string) — the file.read hot path.
void base64_encode_append(Buffer& out, std::span<const std::uint8_t> data);

/// Decode base64; whitespace is ignored (XML-RPC senders wrap lines).
/// Throws clarens::ParseError on invalid input.
std::vector<std::uint8_t> base64_decode(std::string_view b64);

}  // namespace clarens::util
