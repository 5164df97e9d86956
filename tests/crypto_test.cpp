// Unit tests for clarens::crypto against published test vectors (MD5:
// RFC 1321; SHA-256: FIPS 180-4 / NIST; HMAC: RFC 4231; ChaCha20:
// RFC 8439) plus property tests for the bignum and RSA.
#include <gtest/gtest.h>

#include "crypto/bigint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace clarens::crypto {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------- MD5 (RFC 1321 appendix A.5) ----------

struct DigestCase {
  const char* input;
  const char* digest;
};

class Md5Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Md5Vectors, Matches) {
  EXPECT_EQ(Md5::hex(GetParam().input), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Vectors,
    ::testing::Values(
        DigestCase{"", "d41d8cd98f00b204e9800998ecf8427e"},
        DigestCase{"a", "0cc175b9c0f1b6a831c399e269772661"},
        DigestCase{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        DigestCase{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        DigestCase{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        DigestCase{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                   "56789",
                   "d174ab98d277d9f5a5611c2c9f419d9f"},
        DigestCase{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, StreamingEqualsOneShot) {
  std::string data(100000, 'x');
  Md5 streaming;
  // Feed in awkward chunk sizes to cross block boundaries.
  std::size_t offset = 0;
  std::size_t sizes[] = {1, 63, 64, 65, 127, 1000, 4096};
  std::size_t i = 0;
  while (offset < data.size()) {
    std::size_t take = std::min(sizes[i++ % 7], data.size() - offset);
    streaming.update(std::string_view(data).substr(offset, take));
    offset += take;
  }
  EXPECT_EQ(streaming.finish(), Md5::hash(data));
}

// ---------- SHA-256 ----------

class Sha256Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Sha256Vectors, Matches) {
  EXPECT_EQ(Sha256::hex(GetParam().input), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256Vectors,
    ::testing::Values(
        DigestCase{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        DigestCase{"abc",
                   "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        DigestCase{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"}));

TEST(Sha256, MillionAs) {
  Sha256 sha;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(chunk);
  EXPECT_EQ(util::hex_encode(sha.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Hashes `data` with `kernel`, fed in random-sized pieces from `rng`.
Sha256::Digest hash_in_pieces(Sha256::Kernel kernel,
                              std::span<const std::uint8_t> data, Drbg& rng) {
  Sha256 sha(kernel);
  for (std::size_t offset = 0; offset < data.size();) {
    std::size_t take = std::min<std::size_t>(data.size() - offset, rng.uniform(150));
    sha.update(data.subspan(offset, take));
    offset += take;
  }
  return sha.finish();
}

// FIPS 180-4 padding written out (message, 0x80, zeros to 56 mod 64, the
// bit length) and compressed with `kernel` in one call.
Sha256::Digest padded_by_hand(Sha256::Kernel kernel,
                              std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>((data.size() * 8) >> (8 * i)));
  }
  std::array<std::uint32_t, 8> state = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                        0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                        0x1f83d9abu, 0x5be0cd19u};
  kernel(state.data(), padded.data(), padded.size() / 64);
  Sha256::Digest digest;
  for (std::size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

TEST(Sha256, PortableKernelStreamsAnySplit) {
  // Every length 0-300 crosses the padding cases: the length fits after
  // the 0x80 byte (< 56 bytes left in the block) or spills into a second
  // padding block.
  Drbg rng(std::vector<std::uint8_t>{41});
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> data = rng.bytes(len);
    Sha256::Digest want = padded_by_hand(Sha256::portable_kernel(), data);
    EXPECT_EQ(hash_in_pieces(Sha256::portable_kernel(), data, rng), want) << len;
    EXPECT_EQ(Sha256::hash(data), want) << len;
  }
}

TEST(Sha256, ShaNiKernelMatchesPortable) {
  Sha256::Kernel sha_ni = Sha256::sha_ni_kernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA-NI kernel: not an x86-64 build, or the CPU "
                    "lacks the SHA extensions";
  }
  Drbg rng(std::vector<std::uint8_t>{43});
  // The compression functions directly, from random states.
  for (std::size_t blocks = 1; blocks <= 5; ++blocks) {
    std::vector<std::uint8_t> data = rng.bytes(64 * blocks);
    std::array<std::uint32_t, 8> portable_state;
    for (std::uint32_t& word : portable_state) {
      word = static_cast<std::uint32_t>(rng.next_u64());
    }
    std::array<std::uint32_t, 8> sha_ni_state = portable_state;
    Sha256::portable_kernel()(portable_state.data(), data.data(), blocks);
    sha_ni(sha_ni_state.data(), data.data(), blocks);
    EXPECT_EQ(sha_ni_state, portable_state) << blocks << " blocks";
  }
  // Whole messages, split at random.
  for (std::size_t len = 0; len <= 300; ++len) {
    std::vector<std::uint8_t> data = rng.bytes(len);
    EXPECT_EQ(hash_in_pieces(sha_ni, data, rng),
              hash_in_pieces(Sha256::portable_kernel(), data, rng))
        << len;
  }
  EXPECT_STREQ(Sha256::default_kernel_name(), "sha-ni");
}

// ---------- HMAC-SHA256 (RFC 4231) ----------

struct HmacCase {
  std::vector<std::uint8_t> key;
  std::string data;
  std::string mac;  // hex; case 5 is truncated to 128 bits
};

class Rfc4231 : public ::testing::TestWithParam<HmacCase> {};

TEST_P(Rfc4231, KeyedContextEqualsOneShot) {
  const HmacCase& c = GetParam();
  const HmacSha256 keyed(c.key);
  Sha256::Digest one_shot = hmac_sha256(c.key, bytes_of(c.data));
  EXPECT_EQ(util::hex_encode(one_shot).substr(0, c.mac.size()), c.mac);
  EXPECT_EQ(keyed.mac(c.data), one_shot);
  // The context is reusable, and streaming matches one-shot.
  EXPECT_EQ(keyed.mac(c.data), one_shot);
  Sha256 inner = keyed.begin();
  std::string_view data = c.data;
  inner.update(data.substr(0, data.size() / 3));
  inner.update(data.substr(data.size() / 3));
  EXPECT_EQ(keyed.finish(inner), one_shot);
}

INSTANTIATE_TEST_SUITE_P(
    Cases1To7, Rfc4231,
    ::testing::Values(
        HmacCase{std::vector<std::uint8_t>(20, 0x0b), "Hi There",
                 "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        HmacCase{{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
                 "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        HmacCase{std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
                 "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        HmacCase{{1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                  14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25},
                 std::string(50, '\xcd'),
                 "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        HmacCase{std::vector<std::uint8_t>(20, 0x0c), "Test With Truncation",
                 "a3b6167473100ee06e0c796c2955552b"},
        HmacCase{std::vector<std::uint8_t>(131, 0xaa),
                 "Test Using Larger Than Block-Size Key - Hash Key First",
                 "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        HmacCase{std::vector<std::uint8_t>(131, 0xaa),
                 "This is a test using a larger than block-size key and a larger "
                 "than block-size data. The key needs to be hashed before being "
                 "used by the HMAC algorithm.",
                 "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"}));

TEST(Hmac, DeriveKeyDeterministicAndLabelSeparated) {
  std::vector<std::uint8_t> ikm = {1, 2, 3, 4};
  auto a = derive_key(ikm, "label-a", 48);
  auto b = derive_key(ikm, "label-a", 48);
  auto c = derive_key(ikm, "label-b", 48);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 48u);
  // Prefix property: shorter derivation is a prefix of longer.
  auto shorter = derive_key(ikm, "label-a", 16);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), a.begin()));
}

TEST(Hmac, DeriveKeyRejectsMoreThan255Blocks) {
  // The block counter is one byte: block 256 would reuse counter 0.
  std::vector<std::uint8_t> ikm = {5, 6, 7};
  std::vector<std::uint8_t> longest = derive_key(ikm, "label", 255 * 32);
  EXPECT_EQ(longest.size(), 8160u);
  auto shorter = derive_key(ikm, "label", 100);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longest.begin()));
  EXPECT_THROW(derive_key(ikm, "label", 255 * 32 + 1), Error);
  EXPECT_THROW(derive_key(ikm, "label", 1 << 20), Error);
}

TEST(Hmac, ConstantTimeEqual) {
  std::vector<std::uint8_t> a = {1, 2, 3}, b = {1, 2, 3}, c = {1, 2, 4};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, std::vector<std::uint8_t>{1, 2}));
}

// ---------- ChaCha20 (RFC 8439 §2.4.2) ----------

TEST(ChaCha20, Rfc8439Vector) {
  std::vector<std::uint8_t> key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> nonce =
      util::hex_decode("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, 1);
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  cipher.crypt(data);
  EXPECT_EQ(util::hex_encode(std::span<const std::uint8_t>(data.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decrypting restores the plaintext.
  ChaCha20 decipher(key, nonce, 1);
  decipher.crypt(data);
  EXPECT_EQ(std::string(data.begin(), data.end()), plaintext);
}

TEST(ChaCha20, RejectsBadKeyAndNonceSizes) {
  std::vector<std::uint8_t> short_key(16), nonce(12), key(32), short_nonce(8);
  EXPECT_THROW(ChaCha20(short_key, nonce), Error);
  EXPECT_THROW(ChaCha20(key, short_nonce), Error);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  std::vector<std::uint8_t> key(32, 7), nonce(12, 9);
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ChaCha20 one(key, nonce);
  auto expected = one.crypt_copy(data);

  ChaCha20 stream(key, nonce);
  std::vector<std::uint8_t> copy = data;
  // 7-byte pieces force mid-block keystream positions.
  for (std::size_t off = 0; off < copy.size(); off += 7) {
    std::size_t take = std::min<std::size_t>(7, copy.size() - off);
    stream.crypt(std::span<std::uint8_t>(copy.data() + off, take));
  }
  EXPECT_EQ(copy, expected);
}

// ---------- DRBG ----------

TEST(Drbg, DeterministicWithSeed) {
  std::vector<std::uint8_t> seed = {1, 2, 3};
  Drbg a(seed), b(seed);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
  // Different seeds diverge.
  std::vector<std::uint8_t> seed2 = {1, 2, 4};
  Drbg c(seed2);
  EXPECT_NE(Drbg(seed).bytes(64), c.bytes(64));
}

TEST(Drbg, UniformStaysBelowBound) {
  Drbg rng(std::vector<std::uint8_t>{42});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Drbg, TokenIsHexOfRequestedLength) {
  std::string token = random_token(16);
  EXPECT_EQ(token.size(), 32u);
  EXPECT_NO_THROW(util::hex_decode(token));
  EXPECT_NE(random_token(16), random_token(16));
}

// ---------- BigInt ----------

TEST(BigInt, HexRoundTrip) {
  EXPECT_EQ(BigInt::from_hex("0").to_hex(), "0");
  EXPECT_EQ(BigInt::from_hex("ff").to_hex(), "ff");
  EXPECT_EQ(BigInt::from_hex("deadbeefcafebabe0123456789abcdef").to_hex(),
            "deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(BigInt(0xdeadbeefull).to_hex(), "deadbeef");
  // Odd digit counts, leading zeros, upper case and the empty string.
  EXPECT_EQ(BigInt::from_hex("123456789").to_u64(), 0x123456789u);
  EXPECT_EQ(BigInt::from_hex("0000000000000000ABC").to_hex(), "abc");
  EXPECT_TRUE(BigInt::from_hex("").is_zero());
  EXPECT_THROW(BigInt::from_hex("12g4"), ParseError);
}

TEST(BigInt, BytesRoundTrip) {
  std::vector<std::uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigInt x = BigInt::from_bytes(bytes);
  EXPECT_EQ(x.to_bytes(), bytes);
  EXPECT_EQ(x.to_hex(), "102030405");
  // Leading zeros are not preserved (canonical form).
  std::vector<std::uint8_t> padded = {0x00, 0x00, 0x01};
  EXPECT_EQ(BigInt::from_bytes(padded).to_bytes(),
            (std::vector<std::uint8_t>{0x01}));
}

TEST(BigInt, Arithmetic) {
  BigInt a = BigInt::from_hex("ffffffffffffffff");  // 2^64-1
  BigInt b(1);
  EXPECT_EQ((a + b).to_hex(), "10000000000000000");
  EXPECT_EQ(((a + b) - b).to_hex(), "ffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffffffffffe0000000000000001");
  EXPECT_THROW(b - a, Error);
}

TEST(BigInt, Shifts) {
  BigInt one(1);
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ(((one << 100) >> 100), one);
  EXPECT_EQ((BigInt::from_hex("ff") << 4).to_hex(), "ff0");
  EXPECT_EQ((BigInt::from_hex("ff0") >> 4).to_hex(), "ff");
  EXPECT_TRUE((one >> 1).is_zero());
}

TEST(BigInt, DivMod) {
  BigInt a = BigInt::from_hex("123456789abcdef0123456789abcdef");
  BigInt b = BigInt::from_hex("fedcba987");
  auto [q, r] = a.divmod(b);
  EXPECT_EQ((q * b + r), a);
  EXPECT_TRUE(r < b);
  EXPECT_THROW(a.divmod(BigInt(0)), Error);
  // Small sanity: 100 / 7 = 14 r 2
  auto [q2, r2] = BigInt(100).divmod(BigInt(7));
  EXPECT_EQ(q2.to_u64(), 14u);
  EXPECT_EQ(r2.to_u64(), 2u);
}

TEST(BigInt, ModExpKnownValues) {
  // 5^3 mod 13 = 8
  EXPECT_EQ(BigInt(5).modexp(BigInt(3), BigInt(13)).to_u64(), 8u);
  // Fermat: a^(p-1) = 1 mod p for prime p, gcd(a,p)=1
  BigInt p(1000003);
  EXPECT_EQ(BigInt(12345).modexp(p - BigInt(1), p).to_u64(), 1u);
  // Even modulus path.
  EXPECT_EQ(BigInt(7).modexp(BigInt(5), BigInt(10)).to_u64(), 7u);
  // x^0 = 1
  EXPECT_EQ(BigInt(99).modexp(BigInt(0), BigInt(7)).to_u64(), 1u);
}

// Square-and-multiply using divmod only.
BigInt naive_modexp(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % mod;
    if (exp.bit(i)) result = (result * b) % mod;
  }
  return result;
}

TEST(BigInt, ModExpMatchesNaive) {
  Drbg rng(std::vector<std::uint8_t>{9});
  for (int trial = 0; trial < 20; ++trial) {
    BigInt base = BigInt::random_bits(96, rng);
    BigInt exp = BigInt::random_bits(16, rng);
    BigInt mod = BigInt::random_bits(96, rng);
    if (!mod.is_odd()) mod = mod + BigInt(1);  // exercise Montgomery
    EXPECT_EQ(base.modexp(exp, mod), naive_modexp(base, exp, mod))
        << "trial " << trial;
  }
}

// The binary shift-and-subtract long division the kernel used before
// algorithm D: slow but obviously right, so the reference for divmod.
BigIntDivMod binary_divmod(const BigInt& a, const BigInt& b) {
  if (a < b) return {BigInt(), a};
  std::size_t shift = a.bit_length() - b.bit_length();
  BigInt remainder = a;
  BigInt quotient;
  BigInt shifted = b << shift;
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (remainder >= shifted) {
      remainder = remainder - shifted;
      quotient = quotient + (BigInt(1) << i);
    }
    shifted = shifted >> 1;
  }
  return {quotient, remainder};
}

// A value of `limbs` limbs that are all 0xffffffff.
BigInt all_ones(std::size_t limbs) {
  return (BigInt(1) << (32 * limbs)) - BigInt(1);
}

TEST(BigInt, DivModMatchesBinaryLongDivision) {
  Drbg rng(std::vector<std::uint8_t>{29});
  for (int trial = 0; trial < 1000; ++trial) {
    BigInt b = trial % 5 == 0 ? all_ones(1 + rng.uniform(18))
                              : BigInt::random_bits(1 + rng.uniform(600), rng);
    BigInt a = BigInt::random_bits(1 + rng.uniform(1100), rng);
    if (trial % 7 == 0) {
      // A dividend at or just below a multiple of the divisor.
      std::size_t room = 1100 - b.bit_length();
      a = BigInt::random_bits(1 + rng.uniform(room), rng) * b - BigInt(trial % 2);
      if (a.is_zero()) a = b;
    }
    BigIntDivMod got = a.divmod(b);
    BigIntDivMod want = binary_divmod(a, b);
    ASSERT_EQ(got.quotient, want.quotient)
        << "trial " << trial << ": " << a.to_hex() << " / " << b.to_hex();
    ASSERT_EQ(got.remainder, want.remainder)
        << "trial " << trial << ": " << a.to_hex() << " % " << b.to_hex();
  }
}

TEST(BigInt, DivModAddBackStep) {
  // The estimate from the top limbs is one too large here, so algorithm D
  // must take its add-back branch.
  BigInt a = BigInt::from_hex("7fffffff800000000000000000000000");
  BigInt b = BigInt::from_hex("800000000000000000000001");
  BigIntDivMod got = a.divmod(b);
  EXPECT_EQ(got.quotient.to_hex(), "fffffffe");
  EXPECT_EQ(got.remainder.to_hex(), "7fffffffffffffff00000002");
}

TEST(BigInt, WindowedModExpMatchesNaive) {
  Drbg rng(std::vector<std::uint8_t>{31});
  for (std::size_t bits : {512u, 1024u}) {
    for (int trial = 0; trial < 3; ++trial) {
      BigInt mod = BigInt::random_bits(bits, rng);
      if (!mod.is_odd()) mod = mod + BigInt(1);
      BigInt base = BigInt::random_below(mod, rng);
      BigInt exp = BigInt::random_bits(bits, rng);
      EXPECT_EQ(base.modexp(exp, mod), naive_modexp(base, exp, mod))
          << bits << "-bit trial " << trial;
    }
  }
  // Exponents either side of the switch from square-and-multiply to
  // windows, and ones whose top or low windows are zero.
  BigInt mod = BigInt::random_bits(256, rng);
  if (!mod.is_odd()) mod = mod + BigInt(1);
  BigInt base = BigInt::random_below(mod, rng);
  for (BigInt exp : {BigInt::random_bits(64, rng), BigInt::random_bits(65, rng),
                     BigInt(1) << 200, (BigInt(1) << 130) + BigInt(0xf),
                     all_ones(4)}) {
    EXPECT_EQ(base.modexp(exp, mod), naive_modexp(base, exp, mod)) << exp.to_hex();
  }
}

TEST(BigInt, MontgomeryKernelsMatchSquareAndMultiply) {
  // Odd moduli of every size from 1 to 66 storage limbs. Pairs of storage
  // limbs make one Montgomery limb, so odd counts pad with a zero half;
  // 8, 16, 32 and 64 storage limbs take the unrolled kernels, every other
  // size the generic loop.
  Drbg rng(std::vector<std::uint8_t>{47});
  for (std::size_t limbs = 1; limbs <= 66; ++limbs) {
    BigInt mod = limbs % 4 == 3
                     ? all_ones(limbs)
                     : BigInt::random_bits(32 * limbs - rng.uniform(31), rng);
    if (!mod.is_odd()) mod = mod + BigInt(1);
    ASSERT_GT(mod, BigInt(1));
    const BigInt bases[] = {
        BigInt::random_below(mod, rng),
        mod,                // base == modulus
        mod + BigInt(1),    // base > modulus
        BigInt::random_bits(64 * limbs + 7, rng),  // base >> modulus
    };
    const std::size_t exp_bits = limbs <= 16 ? 32 * limbs : 96 + rng.uniform(160);
    const BigInt exponents[] = {BigInt(0), BigInt(1), BigInt(65537),
                                BigInt::random_bits(exp_bits, rng)};
    for (const BigInt& base : bases) {
      for (const BigInt& exp : exponents) {
        ASSERT_EQ(base.modexp(exp, mod), naive_modexp(base, exp, mod))
            << limbs << " limbs, exponent " << exp.to_hex() << ", modulus "
            << mod.to_hex() << ", base " << base.to_hex();
      }
    }
  }
}

TEST(BigInt, ModInv) {
  BigInt p(1000003);
  BigInt a(123456);
  BigInt inv = a.modinv(p);
  EXPECT_EQ((a * inv) % p, BigInt(1));
  // Non-invertible.
  EXPECT_THROW(BigInt(6).modinv(BigInt(9)), Error);
  EXPECT_THROW(BigInt(0).modinv(BigInt(7)), Error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_u64(), 12u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).to_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_u64(), 5u);
}

TEST(BigInt, PrimalityKnownPrimesAndComposites) {
  Drbg rng(std::vector<std::uint8_t>{7});
  for (std::uint64_t p : {2ull, 3ull, 65537ull, 1000003ull, 4294967291ull}) {
    EXPECT_TRUE(BigInt(p).is_probable_prime(16, rng)) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 65535ull, 1000001ull, 4294967295ull}) {
    EXPECT_FALSE(BigInt(c).is_probable_prime(16, rng)) << c;
  }
  // Carmichael number 561 = 3*11*17 must be detected composite.
  EXPECT_FALSE(BigInt(561).is_probable_prime(16, rng));
}

TEST(BigInt, GeneratePrimeHasExactBitLength) {
  Drbg rng(std::vector<std::uint8_t>{11});
  BigInt p = BigInt::generate_prime(64, rng);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(p.is_odd());
}

// ---------- RSA ----------

class RsaFixture : public ::testing::Test {
 protected:
  // One 512-bit key pair for the whole suite (keygen is the slow part).
  static RsaKeyPair& keys() {
    static RsaKeyPair kp = [] {
      Drbg rng(std::vector<std::uint8_t>{13});
      return rsa_generate(512, rng);
    }();
    return kp;
  }
};

TEST_F(RsaFixture, SignVerifyRoundTrip) {
  auto sig = rsa_sign(keys().priv, "the quick brown fox");
  EXPECT_EQ(sig.size(), keys().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(keys().pub, "the quick brown fox", sig));
  EXPECT_FALSE(rsa_verify(keys().pub, "the quick brown fax", sig));
}

TEST_F(RsaFixture, TamperedSignatureRejected) {
  auto sig = rsa_sign(keys().priv, "message");
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(keys().pub, "message", sig));
  // Wrong-size signature.
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(keys().pub, "message", sig));
}

TEST_F(RsaFixture, EncryptDecryptRoundTrip) {
  Drbg rng(std::vector<std::uint8_t>{17});
  std::vector<std::uint8_t> message = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  auto ct = rsa_encrypt(keys().pub, message, rng);
  auto pt = rsa_decrypt(keys().priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, message);
}

TEST_F(RsaFixture, DecryptRejectsGarbage) {
  std::vector<std::uint8_t> garbage(keys().pub.modulus_bytes(), 0x5a);
  auto pt = rsa_decrypt(keys().priv, garbage);
  EXPECT_FALSE(pt.has_value());
  // Wrong length.
  std::vector<std::uint8_t> short_ct(10);
  EXPECT_FALSE(rsa_decrypt(keys().priv, short_ct).has_value());
}

TEST_F(RsaFixture, PlaintextTooLongThrows) {
  Drbg rng(std::vector<std::uint8_t>{19});
  std::vector<std::uint8_t> huge(keys().pub.modulus_bytes());
  EXPECT_THROW(rsa_encrypt(keys().pub, huge, rng), Error);
}

TEST_F(RsaFixture, KeyEncodingRoundTrip) {
  RsaPublicKey pub = RsaPublicKey::decode(keys().pub.encode());
  EXPECT_EQ(pub, keys().pub);
  RsaPrivateKey priv = RsaPrivateKey::decode(keys().priv.encode());
  auto sig = rsa_sign(priv, "encoded key");
  EXPECT_TRUE(rsa_verify(pub, "encoded key", sig));
  EXPECT_THROW(RsaPublicKey::decode("onlyonefield"), ParseError);
}

// The same key with the CRT fields left out (zero).
RsaPrivateKey without_crt(const RsaPrivateKey& key) {
  return RsaPrivateKey{key.n, key.e, key.d, key.p, key.q};
}

TEST_F(RsaFixture, GeneratedKeyCarriesCrtFields) {
  const RsaPrivateKey& key = keys().priv;
  EXPECT_EQ(key.dp, key.d % (key.p - BigInt(1)));
  EXPECT_EQ(key.dq, key.d % (key.q - BigInt(1)));
  EXPECT_EQ((key.qinv * key.q) % key.p, BigInt(1));
}

TEST_F(RsaFixture, CrtSignatureEqualsPlainExponentiation) {
  for (std::string_view message : {"a", "crt", "the quick brown fox"}) {
    std::vector<std::uint8_t> sig = rsa_sign(keys().priv, message);
    // PKCS#1 v1.5 signing is deterministic: the CRT path must produce
    // exactly m^d mod n.
    BigInt s = BigInt::from_bytes(sig);
    BigInt m = s.modexp(keys().priv.e, keys().priv.n);
    EXPECT_EQ(m.modexp(keys().priv.d, keys().priv.n), s) << message;
    EXPECT_EQ(rsa_sign(without_crt(keys().priv), message), sig) << message;
  }
}

TEST_F(RsaFixture, CorruptedCrtFieldFallsBackToPlainOp) {
  RsaPrivateKey faulty = keys().priv;
  faulty.dp = faulty.dp + BigInt(2);
  std::vector<std::uint8_t> sig = rsa_sign(faulty, "fault");
  EXPECT_TRUE(rsa_verify(keys().pub, "fault", sig));
  EXPECT_EQ(sig, rsa_sign(keys().priv, "fault"));

  Drbg rng(std::vector<std::uint8_t>{37});
  std::vector<std::uint8_t> secret = {1, 2, 3, 4, 5};
  RsaPrivateKey bad_qinv = keys().priv;
  bad_qinv.qinv = bad_qinv.qinv + BigInt(1);
  auto pt = rsa_decrypt(bad_qinv, rsa_encrypt(keys().pub, secret, rng));
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

TEST_F(RsaFixture, KeyWithoutCrtFieldsSignsAndDecrypts) {
  RsaPrivateKey plain = without_crt(keys().priv);
  EXPECT_TRUE(plain.dp.is_zero());
  std::vector<std::uint8_t> sig = rsa_sign(plain, "no crt");
  EXPECT_TRUE(rsa_verify(keys().pub, "no crt", sig));

  Drbg rng(std::vector<std::uint8_t>{39});
  std::vector<std::uint8_t> secret = {9, 8, 7};
  auto pt = rsa_decrypt(plain, rsa_encrypt(keys().pub, secret, rng));
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

TEST_F(RsaFixture, DecodeDerivesCrtFields) {
  RsaPrivateKey decoded = RsaPrivateKey::decode(keys().priv.encode());
  EXPECT_EQ(decoded.dp, keys().priv.dp);
  EXPECT_EQ(decoded.dq, keys().priv.dq);
  EXPECT_EQ(decoded.qinv, keys().priv.qinv);
  // The text form is still the five fields n:e:d:p:q.
  EXPECT_EQ(util::split(keys().priv.encode(), ':').size(), 5u);
  EXPECT_EQ(decoded.encode(), keys().priv.encode());
}

TEST(Rsa, KeyWithInconsistentFactorsSkipsCrt) {
  Drbg rng(std::vector<std::uint8_t>{43});
  RsaKeyPair kp = rsa_generate(512, rng);
  RsaPrivateKey key = without_crt(kp.priv);
  key.q = key.q + BigInt(2);  // no longer a factor of n
  key.derive_crt();
  EXPECT_TRUE(key.dp.is_zero());
  EXPECT_TRUE(rsa_verify(kp.pub, "m", rsa_sign(key, "m")));
}

TEST(Rsa, SeedEncodedKeySignsByteIdentically) {
  // A key and signature produced by the kernel before CRT and windowing.
  RsaPrivateKey key = RsaPrivateKey::decode(
      "c220f68d48266abc7df5e0e0cb0551ef02ebdf2e2c1ab0a102bda8ecb681c689"
      "79b4ff55e15a6be9ebf600ff2ecf2c1b669c4ca4054929e5d8a2368fb8868c9d"
      ":10001:"
      "10616bac7c3c11a19a175744609d304eb4b6667ca4e813a36271d28136dd387d"
      "5765c43da2d3a2b3d07d1088a273fd9939170e8e81fe9e325f8f91e327962ed9"
      ":f57b5551bf6b301c1715f6f289ff67c74f1b32f7a9dad10d74554e2598fd3c97"
      ":ca7257eb8c41bfdb62f42cf7dbdf0a8b84d5d52e0b627cb90432eab2163742eb");
  EXPECT_FALSE(key.dp.is_zero());
  EXPECT_EQ(util::hex_encode(rsa_sign(key, "seed-encoded key")),
            "99bf4bf0745f31bfe31f4465c705970549581e7e6cd6dd894cd16cb80d0ec9aa"
            "d2283ad46e9cad11ada78e1349ce361d6451ef937b069304f774af09b72f4a13");
}

TEST(Rsa, Crt2048SignatureEqualsPlainExponentiation) {
  // The 1024-bit CRT halves and the 2048-bit plain exponentiation run the
  // largest unrolled Montgomery kernels.
  Drbg rng(std::vector<std::uint8_t>{53});
  RsaKeyPair kp = rsa_generate(2048, rng);
  ASSERT_FALSE(kp.priv.dp.is_zero());
  std::vector<std::uint8_t> sig = rsa_sign(kp.priv, "crt-2048");
  EXPECT_EQ(sig, rsa_sign(without_crt(kp.priv), "crt-2048"));
  EXPECT_TRUE(rsa_verify(kp.pub, "crt-2048", sig));
  BigInt s = BigInt::from_bytes(sig);
  BigInt m = s.modexp(kp.pub.e, kp.pub.n);
  EXPECT_EQ(naive_modexp(m, kp.priv.d, kp.priv.n), s);
}

TEST(Rsa, DifferentKeysDontVerify) {
  Drbg rng(std::vector<std::uint8_t>{23});
  RsaKeyPair a = rsa_generate(512, rng);
  RsaKeyPair b = rsa_generate(512, rng);
  auto sig = rsa_sign(a.priv, "cross");
  EXPECT_FALSE(rsa_verify(b.pub, "cross", sig));
}

}  // namespace
}  // namespace clarens::crypto
