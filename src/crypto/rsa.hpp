// RSA over clarens::crypto::BigInt: key generation, PKCS#1-v1.5-style
// signatures (SHA-256) and encryption. This is the asymmetric primitive
// behind certificates, proxy delegation and the TLS-like key exchange.
//
// Key sizes: 512-bit keys are the test/benchmark default (fast keygen with
// a from-scratch bignum); 1024+ work identically, only slower.
//
// RSA speed matters: private operations dominate the CPU cost of a
// mutual-TLS login and of every handshake, which the HeavyGrid baseline
// runs on each call. Private keys carry the CRT exponents, so signing and
// decryption run two half-size exponentiations; every CRT result is
// checked with the public exponent before it is released, and a mismatch
// falls back to the plain x^d mod n.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/bigint.hpp"

namespace clarens::crypto {

class Drbg;

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Text serialization "hex(n):hex(e)" used inside certificates.
  std::string encode() const;
  static RsaPublicKey decode(std::string_view text);

  bool operator==(const RsaPublicKey& o) const { return n == o.n && e == o.e; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;  // private exponent
  BigInt p;
  BigInt q;
  // CRT fields: d mod (p-1), d mod (q-1) and q^{-1} mod p. Zero when the
  // key was built without them (RsaPrivateKey{n, e, d, p, q}); private
  // operations then use x^d mod n.
  BigInt dp{};
  BigInt dq{};
  BigInt qinv{};

  RsaPublicKey public_key() const { return {n, e}; }

  /// Fill dp, dq and qinv from d, p and q. Leaves them zero when p and q
  /// are not the factors of n.
  void derive_crt();

  /// Text serialization "hex(n):hex(e):hex(d):hex(p):hex(q)". The CRT
  /// fields are not stored; decode derives them.
  std::string encode() const;
  static RsaPrivateKey decode(std::string_view text);
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate a fresh key pair with an n of `bits` bits and e = 65537.
RsaKeyPair rsa_generate(std::size_t bits, Drbg& rng);

/// Sign SHA-256(message) with v1.5-style padding. Returns modulus-sized
/// big-endian signature bytes.
std::vector<std::uint8_t> rsa_sign(const RsaPrivateKey& key,
                                   std::span<const std::uint8_t> message);
std::vector<std::uint8_t> rsa_sign(const RsaPrivateKey& key,
                                   std::string_view message);

/// Verify a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> signature);
bool rsa_verify(const RsaPublicKey& key, std::string_view message,
                std::span<const std::uint8_t> signature);

/// PKCS#1-v1.5 type-2 encryption of a short message (e.g. a session key).
/// Message must be at most modulus_bytes() - 11 bytes.
std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> message,
                                      Drbg& rng);

/// Decrypt; returns nullopt if the padding is invalid.
std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext);

}  // namespace clarens::crypto
