#include "crypto/rsa.hpp"

#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::crypto {

namespace {

// DigestInfo-like prefix marking the hash algorithm inside the padding.
constexpr std::uint8_t kSha256Marker[] = {'S', 'H', 'A', '2', '5', '6', ':'};

// EMSA-PKCS1-v1_5-style encoding: 00 01 FF..FF 00 marker digest
std::vector<std::uint8_t> emsa_encode(std::span<const std::uint8_t> message,
                                      std::size_t em_len) {
  Sha256::Digest digest = Sha256::hash(message);
  std::size_t t_len = sizeof(kSha256Marker) + digest.size();
  if (em_len < t_len + 11) throw Error("RSA modulus too small for signature");
  std::vector<std::uint8_t> em(em_len);
  em[0] = 0x00;
  em[1] = 0x01;
  std::size_t ps_len = em_len - t_len - 3;
  for (std::size_t i = 0; i < ps_len; ++i) em[2 + i] = 0xff;
  em[2 + ps_len] = 0x00;
  std::copy(std::begin(kSha256Marker), std::end(kSha256Marker),
            em.begin() + static_cast<long>(3 + ps_len));
  std::copy(digest.begin(), digest.end(),
            em.begin() + static_cast<long>(3 + ps_len + sizeof(kSha256Marker)));
  return em;
}

std::vector<std::uint8_t> left_pad(std::vector<std::uint8_t> bytes,
                                   std::size_t size) {
  if (bytes.size() >= size) return bytes;
  std::vector<std::uint8_t> out(size - bytes.size(), 0);
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

bool has_crt(const RsaPrivateKey& key) {
  return !key.dp.is_zero() && !key.dq.is_zero() && !key.qinv.is_zero() &&
         key.p > BigInt(1) && key.q > BigInt(1);
}

// x^d mod n for x < n. With the CRT fields this is two half-size
// exponentiations recombined by Garner's formula. A CRT result is released
// only after y^e mod n == x: a fault in either half (or a corrupted CRT
// field) would otherwise hand out a value whose gcd with n factors the key.
// On a mismatch the plain exponentiation answers instead.
BigInt private_op(const RsaPrivateKey& key, const BigInt& x) {
  if (has_crt(key)) {
    BigInt m1 = x.modexp(key.dp, key.p);
    BigInt m2 = x.modexp(key.dq, key.q);
    // h = qinv * (m1 - m2) mod p; y = m2 + h * q.
    BigInt diff = (m1 + key.p - m2 % key.p) % key.p;
    BigInt h = (key.qinv * diff) % key.p;
    BigInt y = m2 + h * key.q;
    if (y < key.n && y.modexp(key.e, key.n) == x) return y;
  }
  return x.modexp(key.d, key.n);
}

}  // namespace

std::string RsaPublicKey::encode() const {
  return n.to_hex() + ":" + e.to_hex();
}

RsaPublicKey RsaPublicKey::decode(std::string_view text) {
  auto parts = util::split(text, ':');
  if (parts.size() != 2) throw ParseError("invalid RSA public key encoding");
  return {BigInt::from_hex(parts[0]), BigInt::from_hex(parts[1])};
}

std::string RsaPrivateKey::encode() const {
  return n.to_hex() + ":" + e.to_hex() + ":" + d.to_hex() + ":" + p.to_hex() +
         ":" + q.to_hex();
}

void RsaPrivateKey::derive_crt() {
  dp = dq = qinv = BigInt();
  if (p <= BigInt(1) || q <= BigInt(1) || p * q != n) return;
  try {
    qinv = q.modinv(p);
  } catch (const Error&) {
    return;  // p and q share a factor: CRT cannot serve this key
  }
  dp = d % (p - BigInt(1));
  dq = d % (q - BigInt(1));
}

RsaPrivateKey RsaPrivateKey::decode(std::string_view text) {
  auto parts = util::split(text, ':');
  if (parts.size() != 5) throw ParseError("invalid RSA private key encoding");
  RsaPrivateKey key{BigInt::from_hex(parts[0]), BigInt::from_hex(parts[1]),
                    BigInt::from_hex(parts[2]), BigInt::from_hex(parts[3]),
                    BigInt::from_hex(parts[4])};
  key.derive_crt();
  return key;
}

RsaKeyPair rsa_generate(std::size_t bits, Drbg& rng) {
  if (bits < 256) throw Error("RSA key too small (min 256 bits)");
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::generate_prime(bits / 2, rng);
    BigInt q = BigInt::generate_prime(bits - bits / 2, rng);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    BigInt d = e.modinv(phi);
    RsaPrivateKey priv{n, e, d, p, q};
    priv.derive_crt();
    return {priv.public_key(), priv};
  }
}

std::vector<std::uint8_t> rsa_sign(const RsaPrivateKey& key,
                                   std::span<const std::uint8_t> message) {
  std::size_t k = (key.n.bit_length() + 7) / 8;
  std::vector<std::uint8_t> em = emsa_encode(message, k);
  BigInt s = private_op(key, BigInt::from_bytes(em));
  return left_pad(s.to_bytes(), k);
}

std::vector<std::uint8_t> rsa_sign(const RsaPrivateKey& key,
                                   std::string_view message) {
  return rsa_sign(key, as_bytes(message));
}

bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature) {
  std::size_t k = (key.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  BigInt m = s.modexp(key.e, key.n);
  std::vector<std::uint8_t> em = left_pad(m.to_bytes(), k);
  std::vector<std::uint8_t> expected;
  try {
    expected = emsa_encode(message, k);
  } catch (const Error&) {
    return false;
  }
  return em == expected;
}

bool rsa_verify(const RsaPublicKey& key, std::string_view message,
                std::span<const std::uint8_t> signature) {
  return rsa_verify(key, as_bytes(message), signature);
}

std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> message,
                                      Drbg& rng) {
  std::size_t k = key.modulus_bytes();
  if (message.size() + 11 > k) throw Error("RSA plaintext too long");
  // 00 02 <nonzero random PS> 00 <message>
  std::vector<std::uint8_t> em(k);
  em[0] = 0x00;
  em[1] = 0x02;
  std::size_t ps_len = k - message.size() - 3;
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  std::copy(message.begin(), message.end(),
            em.begin() + static_cast<long>(3 + ps_len));
  BigInt m = BigInt::from_bytes(em);
  BigInt c = m.modexp(key.e, key.n);
  return left_pad(c.to_bytes(), k);
}

std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext) {
  std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) return std::nullopt;
  BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= key.n) return std::nullopt;
  BigInt m = private_op(key, c);
  std::vector<std::uint8_t> em = left_pad(m.to_bytes(), k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
  // Find the 00 separator after at least 8 padding bytes.
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) return std::nullopt;
  return std::vector<std::uint8_t>(em.begin() + static_cast<long>(sep + 1),
                                   em.end());
}

}  // namespace clarens::crypto
