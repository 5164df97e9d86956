// Randomized property tests, seeded (deterministic) via the DRBG:
//  * arbitrary Value trees survive every wire codec;
//  * DN parse/render is idempotent;
//  * BigInt arithmetic satisfies ring identities;
//  * codecs (hex/base64/XML escaping) round-trip arbitrary bytes/text;
//  * the table-driven hex/base64 codecs accept, reject and produce exactly
//    what a plain per-character reference codec does.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <optional>
#include <random>

#include "crypto/bigint.hpp"
#include "crypto/random.hpp"
#include "pki/dn.hpp"
#include "rpc/binrpc.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/protocol.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace clarens {
namespace {

using crypto::Drbg;

// ---------- random Value generator ----------

std::string random_text(Drbg& rng, std::size_t max_len) {
  // Printable ASCII plus the XML/JSON special characters and some UTF-8.
  static const char* alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 <>&\"'{}[]\\/\n\t.,;:!?-_";
  std::size_t len = rng.uniform(max_len + 1);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[rng.uniform(std::strlen(alphabet))]);
  }
  return out;
}

rpc::Value random_value(Drbg& rng, int depth) {
  // Containers get rarer with depth; leaves dominate at the bottom.
  std::uint64_t kind = rng.uniform(depth > 0 ? 9 : 7);
  switch (kind) {
    case 0: return rpc::Value();
    case 1: return rpc::Value(rng.uniform(2) == 1);
    case 2: return rpc::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3: {
      // Doubles from a bit pattern constrained to finite values.
      double d = static_cast<double>(static_cast<std::int64_t>(rng.next_u64())) /
                 1048576.0;
      return rpc::Value(d);
    }
    case 4: return rpc::Value(random_text(rng, 40));
    case 5: return rpc::Value(rng.bytes(rng.uniform(64)));
    case 6:
      return rpc::Value(rpc::DateTime{
          static_cast<std::int64_t>(rng.uniform(4102444800ull))});
    case 7: {
      rpc::Value array = rpc::Value::array();
      std::uint64_t n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        array.push(random_value(rng, depth - 1));
      }
      return array;
    }
    default: {
      rpc::Value object = rpc::Value::struct_();
      std::uint64_t n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        // Unique-ish keys; struct keys must be non-clashing for equality.
        object.set("k" + std::to_string(i) + random_text(rng, 6),
                   random_value(rng, depth - 1));
      }
      return object;
    }
  }
}

class ValueRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ValueRoundTrip, SurvivesEveryCodec) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam())});
  for (int trial = 0; trial < 20; ++trial) {
    rpc::Value original = random_value(rng, 3);
    rpc::Response response = rpc::Response::success(original);

    rpc::Response via_xml =
        rpc::xmlrpc::parse_response(rpc::xmlrpc::serialize_response(response));
    EXPECT_EQ(via_xml.result, original) << "xmlrpc trial " << trial;

    rpc::Response via_json = rpc::jsonrpc::parse_response(
        rpc::jsonrpc::serialize_response(response));
    EXPECT_EQ(via_json.result, original) << "jsonrpc trial " << trial;

    rpc::Response via_soap =
        rpc::soap::parse_response(rpc::soap::serialize_response(response));
    EXPECT_EQ(via_soap.result, original) << "soap trial " << trial;

    rpc::Response via_bin =
        rpc::binrpc::parse_response(rpc::binrpc::serialize_response(response));
    EXPECT_EQ(via_bin.result, original) << "binrpc trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTrip, ::testing::Range(0, 8));

// Cross-codec transitivity: xml -> value -> json -> value -> binary -> value.
TEST(ValueRoundTrip, CrossCodecChain) {
  Drbg rng(std::vector<std::uint8_t>{42});
  for (int trial = 0; trial < 20; ++trial) {
    rpc::Value original = random_value(rng, 3);
    rpc::Response r = rpc::Response::success(original);
    r = rpc::jsonrpc::parse_response(rpc::jsonrpc::serialize_response(r));
    r = rpc::xmlrpc::parse_response(rpc::xmlrpc::serialize_response(r));
    r = rpc::binrpc::parse_response(rpc::binrpc::serialize_response(r));
    r = rpc::soap::parse_response(rpc::soap::serialize_response(r));
    EXPECT_EQ(r.result, original) << "trial " << trial;
  }
}

// ---------- DN properties ----------

class DnProperties : public ::testing::TestWithParam<int> {};

TEST_P(DnProperties, ParseRenderIdempotent) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 1});
  static const char* keys[] = {"C", "ST", "L", "O", "OU", "CN", "DC"};
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<pki::DistinguishedName::Attribute> attributes;
    std::uint64_t n = 1 + rng.uniform(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Values: alnum + spaces + dots (no '=' — DN values exclude it).
      std::string value;
      std::size_t len = 1 + rng.uniform(12);
      static const char* value_alphabet =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .";
      for (std::size_t j = 0; j < len; ++j) {
        value.push_back(value_alphabet[rng.uniform(std::strlen(value_alphabet))]);
      }
      // Trim-stable values only (parse trims whitespace at edges).
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      while (!value.empty() && value.back() == ' ') value.pop_back();
      if (value.empty()) value = "x";
      attributes.emplace_back(keys[rng.uniform(7)], value);
    }
    pki::DistinguishedName dn(attributes);
    pki::DistinguishedName reparsed = pki::DistinguishedName::parse(dn.str());
    EXPECT_EQ(reparsed, dn) << dn.str();
    // Prefix reflexivity and anti-symmetry with a strict prefix.
    EXPECT_TRUE(dn.is_prefix_of(dn));
    if (dn.size() > 1) {
      pki::DistinguishedName shorter(
          {attributes.begin(), attributes.end() - 1});
      EXPECT_TRUE(shorter.is_prefix_of(dn));
      EXPECT_FALSE(dn.is_prefix_of(shorter));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnProperties, ::testing::Range(0, 4));

// ---------- BigInt ring identities ----------

class BigIntProperties : public ::testing::TestWithParam<int> {};

TEST_P(BigIntProperties, RingIdentities) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 2});
  using crypto::BigInt;
  for (int trial = 0; trial < 10; ++trial) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(192), rng);
    BigInt b = BigInt::random_bits(1 + rng.uniform(192), rng);
    BigInt c = BigInt::random_bits(1 + rng.uniform(64), rng);

    // Commutativity and associativity.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    // Distributivity.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Subtraction inverts addition.
    EXPECT_EQ((a + b) - b, a);
    // Division identity.
    auto [q, r] = (a * b + c).divmod(b);
    EXPECT_EQ(q * b + r, a * b + c);
    EXPECT_TRUE(r < b);
    // Shifts are multiplication/division by powers of two.
    EXPECT_EQ(a << 17, a * (BigInt(1) << 17));
    EXPECT_EQ((a << 17) >> 17, a);
    // Bytes and hex round-trips.
    EXPECT_EQ(BigInt::from_bytes(a.to_bytes()), a);
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  }
}

TEST_P(BigIntProperties, ModExpHomomorphism) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 3});
  using crypto::BigInt;
  for (int trial = 0; trial < 5; ++trial) {
    BigInt n = BigInt::random_bits(128, rng);
    if (!n.is_odd()) n = n + BigInt(1);  // Montgomery path
    BigInt a = BigInt::random_below(n, rng);
    BigInt b = BigInt::random_below(n, rng);
    BigInt e = BigInt::random_bits(24, rng);
    // (a*b)^e == a^e * b^e (mod n)
    EXPECT_EQ((a * b).modexp(e, n), (a.modexp(e, n) * b.modexp(e, n)) % n);
    // a^(e+1) == a^e * a (mod n)
    EXPECT_EQ(a.modexp(e + BigInt(1), n), (a.modexp(e, n) * a) % n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperties, ::testing::Range(0, 4));

// ---------- codec round-trips over random bytes/text ----------

class CodecProperties : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperties, BytesAndTextRoundTrips) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 4});
  for (int trial = 0; trial < 50; ++trial) {
    auto blob = rng.bytes(rng.uniform(200));
    EXPECT_EQ(util::hex_decode(util::hex_encode(blob)), blob);
    EXPECT_EQ(util::base64_decode(util::base64_encode(blob)), blob);

    std::string text = random_text(rng, 120);
    rpc::XmlNode node = rpc::xml_parse("<r>" + rpc::xml_escape(text) + "</r>");
    EXPECT_EQ(node.text, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperties, ::testing::Range(0, 4));

// ---------- table-driven codecs against per-character references ----------

// Reference base64 decoder: one branchy classification per character, the
// codec as it was before the table-driven kernel. nullopt where the codec
// must throw ParseError.
std::optional<std::vector<std::uint8_t>> reference_base64_decode(
    std::string_view b64) {
  auto value = [](char c) {  // -1 invalid, -2 padding, -3 whitespace
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    if (c == '=') return -2;
    if (std::isspace(static_cast<unsigned char>(c))) return -3;
    return -1;
  };
  std::vector<std::uint8_t> out;
  std::uint32_t acc = 0;
  int bits = 0;
  bool seen_pad = false;
  for (char c : b64) {
    int v = value(c);
    if (v == -3) continue;
    if (v == -2) {
      seen_pad = true;
      continue;
    }
    if (v == -1 || seen_pad) return std::nullopt;
    acc = (acc << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xff));
    }
  }
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) return std::nullopt;
  return out;
}

// Reference encoder: six bits at a time, padded to a multiple of four.
std::string reference_base64_encode(const std::vector<std::uint8_t>& data) {
  static const char* digits =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  for (std::size_t bit = 0; bit < data.size() * 8; bit += 6) {
    int v = 0;
    for (std::size_t k = bit; k < bit + 6; ++k) {
      int b = k < data.size() * 8 ? (data[k / 8] >> (7 - k % 8)) & 1 : 0;
      v = (v << 1) | b;
    }
    out.push_back(digits[v]);
  }
  while (out.size() % 4 != 0) out.push_back('=');
  return out;
}

// The codec under test, in the reference's terms.
std::optional<std::vector<std::uint8_t>> base64_decode_or_nullopt(
    std::string_view b64) {
  try {
    return util::base64_decode(b64);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

// Returns whether the reference accepted the input.
bool expect_decode_matches_reference(std::string_view b64) {
  std::optional<std::vector<std::uint8_t>> expected =
      reference_base64_decode(b64);
  EXPECT_EQ(base64_decode_or_nullopt(b64), expected) << "input '" << b64 << "'";
  return expected.has_value();
}

std::vector<std::uint8_t> random_blob(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> blob(n);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  return blob;
}

class Base64Differential : public ::testing::TestWithParam<int> {};

TEST_P(Base64Differential, RandomStringsMatchReference) {
  // Mostly alphabet characters, so that many strings decode, with '=',
  // whitespace and arbitrary bytes mixed in.
  static const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  static const std::string spaces = " \t\n\r\v\f";
  std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(GetParam()));
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::size_t len = rng() % 65;
    std::string text;
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t kind = rng() % 40;
      if (kind == 0) text.push_back('=');
      else if (kind == 1) text.push_back(spaces[rng() % spaces.size()]);
      else if (kind == 2) text.push_back(static_cast<char>(rng()));
      else text.push_back(alphabet[rng() % alphabet.size()]);
    }
    accepted += expect_decode_matches_reference(text);
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted, 2000);
  EXPECT_LT(accepted, 18000);
}

TEST_P(Base64Differential, EncodingsWithOneInsertionMatchReference) {
  static const char* inserts[] = {" ", "\n", "\r\n", "\t", "=", "==", "!"};
  std::mt19937_64 rng(2000 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::uint8_t> blob = random_blob(rng, rng() % 301);
    std::string encoded = util::base64_encode(blob);
    // Unpadded input decodes too.
    std::string unpadded = encoded.substr(0, encoded.find('='));
    ASSERT_EQ(base64_decode_or_nullopt(unpadded), blob);
    for (const std::string& base : {encoded, unpadded}) {
      for (std::size_t at = 0; at <= base.size(); ++at) {
        for (const char* insert : inserts) {
          std::string text = base;
          text.insert(at, insert);
          expect_decode_matches_reference(text);
        }
      }
    }
  }
}

TEST(Base64Differential, EveryByteInEveryGroupPosition) {
  // Each byte value at each position of a group, between valid groups:
  // covers every entry of the decode table on the group path.
  for (int c = 0; c < 256; ++c) {
    for (std::size_t at = 0; at < 4; ++at) {
      std::string text = "QUJD" "AAAA" "REVG";
      text[4 + at] = static_cast<char>(c);
      expect_decode_matches_reference(text);
      expect_decode_matches_reference(text.substr(0, 4 + at + 1));
    }
  }
}

TEST(Base64Differential, EncoderMatchesReference) {
  // Every 12-bit value in both halves of a 3-byte group, then random
  // blobs of every tail length.
  std::vector<std::uint8_t> all_pairs;
  for (std::uint32_t v = 0; v < 4096; ++v) {
    std::uint32_t group = (v << 12) | (4095 - v);
    all_pairs.push_back(static_cast<std::uint8_t>(group >> 16));
    all_pairs.push_back(static_cast<std::uint8_t>(group >> 8));
    all_pairs.push_back(static_cast<std::uint8_t>(group));
  }
  std::mt19937_64 rng(3000);
  std::vector<std::vector<std::uint8_t>> blobs = {all_pairs};
  for (std::size_t n = 0; n < 300; ++n) blobs.push_back(random_blob(rng, n));
  for (const auto& blob : blobs) {
    std::string expected = reference_base64_encode(blob);
    EXPECT_EQ(util::base64_encode(blob), expected) << blob.size() << " bytes";
    util::Buffer out;
    out.write("<");
    util::base64_encode_append(out, blob);
    out.write(">");
    EXPECT_EQ(out.peek_view(), "<" + expected + ">") << blob.size() << " bytes";
  }
}

TEST(HexDifferential, EveryDigitPairMatchesReference) {
  auto digit = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (int hi = 0; hi < 256; ++hi) {
    for (int lo = 0; lo < 256; ++lo) {
      std::string text = {static_cast<char>(hi), static_cast<char>(lo)};
      int h = digit(text[0]);
      int l = digit(text[1]);
      if (h < 0 || l < 0) {
        EXPECT_THROW(util::hex_decode(text), ParseError) << hi << "," << lo;
      } else {
        EXPECT_EQ(util::hex_decode(text),
                  std::vector<std::uint8_t>{static_cast<std::uint8_t>(h * 16 + l)});
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64Differential, ::testing::Range(0, 4));

// JSON {"$base64": ...}: an escape-free string decodes straight from the
// input; an escaped one (encoders may write '/' as "\/") decodes from the
// unescaped copy. Both give the same bytes.
TEST(JsonBase64, EscapedAndPlainStringsDecodeAlike) {
  const std::vector<std::uint8_t> expected = {0x00, 0x0f, 0xc1};  // "AA/B"
  EXPECT_EQ(rpc::jsonrpc::parse_value(R"({"$base64":"AA/B"})").as_binary(),
            expected);
  EXPECT_EQ(rpc::jsonrpc::parse_value(R"({"$base64":"AA\/B"})").as_binary(),
            expected);
  EXPECT_EQ(rpc::jsonrpc::parse_value(R"( { "$base64" : "AA/B" } )").as_binary(),
            expected);
  EXPECT_EQ(rpc::jsonrpc::parse_value(R"([{"$base64":"AA/B"},1])")
                .as_array()[0]
                .as_binary(),
            expected);
  // A second member makes it an ordinary struct.
  rpc::Value two = rpc::jsonrpc::parse_value(R"({"$base64":"AA/B","x":1})");
  ASSERT_EQ(two.type(), rpc::Value::Type::Struct);
  EXPECT_EQ(two.find("$base64")->as_string(), "AA/B");
  EXPECT_THROW(rpc::jsonrpc::parse_value(R"({"$base64":"AA!B"})"), ParseError);
  EXPECT_THROW(rpc::jsonrpc::parse_value(R"({"$base64":"AA\/!"})"), ParseError);
  EXPECT_THROW(rpc::jsonrpc::parse_value(R"({"$base64":"AA/B")"), ParseError);
}

TEST(BinaryPayload, OneMebibyteSurvivesEveryProtocol) {
  std::mt19937_64 rng(4000);
  rpc::Value blob(random_blob(rng, 1 << 20));
  rpc::Request request{"file.write", {rpc::Value("/data/x"), blob}, rpc::Value(1)};
  for (rpc::Protocol protocol :
       {rpc::Protocol::XmlRpc, rpc::Protocol::JsonRpc, rpc::Protocol::Soap,
        rpc::Protocol::Binary}) {
    rpc::Request parsed = rpc::parse_request(
        protocol, rpc::serialize_request(protocol, request));
    ASSERT_EQ(parsed.params.size(), 2u) << rpc::to_string(protocol);
    EXPECT_EQ(parsed.params[1], blob) << rpc::to_string(protocol);
    rpc::Response response = rpc::parse_response(
        protocol, rpc::serialize_response(protocol, rpc::Response::success(blob)));
    EXPECT_EQ(response.result, blob) << rpc::to_string(protocol);
  }
}

}  // namespace
}  // namespace clarens
