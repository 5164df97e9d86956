// Arbitrary-precision unsigned integers, sized for RSA (512-2048 bit).
//
// Representation: little-endian vector of 32-bit limbs with no trailing
// zero limbs (zero is an empty vector). Multiplication is schoolbook and
// division is Knuth's algorithm D on 32-bit limbs. Modular exponentiation
// uses Montgomery multiplication (CIOS) for odd moduli, which covers every
// RSA and Miller-Rabin use: 64-bit limbs with 128-bit products, fully
// unrolled kernels for the 256-, 512-, 1024- and 2048-bit moduli and one
// generic loop for any other size, one context per modexp with R^2 mod n
// from a single division and no allocation per multiply, and fixed 4-bit
// windows for exponents longer than 64 bits.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace clarens::crypto {

class Drbg;
class BigInt;

/// Quotient and remainder of BigInt::divmod.
struct BigIntDivMod;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte import/export (the certificate wire format).
  static BigInt from_bytes(std::span<const std::uint8_t> be_bytes);
  std::vector<std::uint8_t> to_bytes() const;

  /// Hex (most-significant first, lowercase, no prefix; "0" for zero).
  static BigInt from_hex(std::string_view hex);
  std::string to_hex() const;

  /// Uniform random integer with exactly `bits` bits (MSB set) — for
  /// prime candidates — drawn from `rng`.
  static BigInt random_bits(std::size_t bits, Drbg& rng);
  /// Uniform random integer in [0, bound).
  static BigInt random_below(const BigInt& bound, Drbg& rng);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  BigInt operator+(const BigInt& o) const;
  /// Requires *this >= o; throws clarens::Error otherwise.
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder; throws clarens::Error on division by zero.
  BigIntDivMod divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  /// (this ^ exponent) mod modulus. Montgomery path for odd moduli,
  /// generic square-and-multiply otherwise. modulus must be > 1. For
  /// exponents longer than 64 bits the sequence of Montgomery squarings
  /// and multiplies depends only on the exponent's bit length.
  BigInt modexp(const BigInt& exponent, const BigInt& modulus) const;

  /// Modular inverse via extended Euclid; throws if gcd(this, m) != 1.
  BigInt modinv(const BigInt& modulus) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Miller-Rabin with `rounds` random bases.
  bool is_probable_prime(int rounds, Drbg& rng) const;

  /// Generate a random prime with exactly `bits` bits.
  static BigInt generate_prime(std::size_t bits, Drbg& rng);

  std::uint64_t to_u64() const;  // throws if it does not fit

 private:
  void trim();
  static BigInt shift_limbs(const BigInt& x, std::size_t limbs);

  std::vector<std::uint32_t> limbs_;
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace clarens::crypto
