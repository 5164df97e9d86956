#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>

#include "crypto/random.hpp"
#include "util/error.hpp"

namespace clarens::crypto {

namespace {

// Small primes for fast trial division before Miller-Rabin.
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BigInt::BigInt(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes(std::span<const std::uint8_t> be_bytes) {
  BigInt out;
  out.limbs_.assign((be_bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be_bytes.size(); ++i) {
    // Byte i from the end of the buffer is byte i of the integer.
    std::size_t bi = be_bytes.size() - 1 - i;
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(be_bytes[bi]) << (8 * (i % 4));
  }
  out.trim();
  return out;
}

std::vector<std::uint8_t> BigInt::to_bytes() const {
  if (is_zero()) return {};
  std::size_t bytes = (bit_length() + 7) / 8;
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    std::uint32_t limb = limbs_[i / 4];
    out[bytes - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  BigInt out;
  out.limbs_.assign((hex.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    // Digit i from the end of the string is nibble i of the integer.
    int d = hex_digit(hex[hex.size() - 1 - i]);
    if (d < 0) throw ParseError("invalid hex digit in bigint");
    out.limbs_[i / 8] |= static_cast<std::uint32_t>(d) << (4 * (i % 8));
  }
  out.trim();
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      int d = (limbs_[i] >> shift) & 0xf;
      if (!started && d == 0) continue;
      started = true;
      out.push_back(digits[d]);
    }
  }
  return out;
}

BigInt BigInt::random_bits(std::size_t bits, Drbg& rng) {
  if (bits == 0) return BigInt();
  std::size_t bytes = (bits + 7) / 8;
  std::vector<std::uint8_t> buf = rng.bytes(bytes);
  // Clear excess leading bits, then force the top bit so the result has
  // exactly `bits` bits.
  std::size_t excess = bytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes(buf);
}

BigInt BigInt::random_below(const BigInt& bound, Drbg& rng) {
  if (bound.is_zero()) throw Error("random_below: zero bound");
  std::size_t bits = bound.bit_length();
  std::size_t bytes = (bits + 7) / 8;
  std::size_t excess = bytes * 8 - bits;
  for (;;) {
    std::vector<std::uint8_t> buf = rng.bytes(bytes);
    buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes(buf);
    if (candidate < bound) return candidate;
  }
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw Error("BigInt subtraction underflow");
  BigInt out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < o.limbs_.size()) diff -= o.limbs_[i];
    if (diff < 0) {
      diff += (std::int64_t(1) << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] + ai * o.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + o.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shift_limbs(const BigInt& x, std::size_t limbs) {
  if (x.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs, 0);
  out.limbs_.insert(out.limbs_.end(), x.limbs_.begin(), x.limbs_.end());
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigInt();
  BigInt out = shift_limbs(*this, bits / 32);
  std::size_t rem = bits % 32;
  if (rem == 0) return out;
  std::uint32_t carry = 0;
  for (auto& limb : out.limbs_) {
    std::uint32_t next_carry = limb >> (32 - rem);
    limb = (limb << rem) | carry;
    carry = next_carry;
  }
  if (carry) out.limbs_.push_back(carry);
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t drop = bits / 32;
  if (drop >= limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.begin() + static_cast<long>(drop), limbs_.end());
  std::size_t rem = bits % 32;
  if (rem) {
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
      out.limbs_[i] >>= rem;
      if (i + 1 < out.limbs_.size()) {
        out.limbs_[i] |= out.limbs_[i + 1] << (32 - rem);
      }
    }
  }
  out.trim();
  return out;
}

BigIntDivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw Error("BigInt division by zero");
  if (*this < divisor) return {BigInt(), *this};

  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;  // the quotient has m + 1 limbs
  BigInt quotient;
  quotient.limbs_.assign(m + 1, 0);

  if (n == 1) {
    // Short division: one 64-by-32-bit divide per dividend limb.
    const std::uint64_t d = divisor.limbs_[0];
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    quotient.trim();
    return {quotient, BigInt(rem)};
  }

  // Knuth, TAOCP vol. 2, 4.3.1, algorithm D. Normalizing so the divisor's
  // top limb has its high bit set makes the estimate from the top two
  // remainder limbs at most 2 too large; the test against the third limb
  // corrects that to at most 1, which the rare add-back step undoes.
  const int shift = std::countl_zero(divisor.limbs_.back());
  const std::vector<std::uint32_t> v = (divisor << shift).limbs_;  // n limbs
  std::vector<std::uint32_t> u = (*this << shift).limbs_;
  u.resize(limbs_.size() + 1, 0);  // m + n + 1 limbs
  const std::uint64_t base = std::uint64_t(1) << 32;
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t num = (std::uint64_t(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = num / v_top;
    std::uint64_t rhat = num % v_top;
    while (qhat >= base || qhat * v_next > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= base) break;
    }

    // u[j .. j+n] -= qhat * v
    std::uint64_t carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      const std::uint64_t t = std::uint64_t(u[i + j]) - (p & 0xffffffffu) - borrow;
      u[i + j] = static_cast<std::uint32_t>(t);
      borrow = t >> 63;
    }
    const std::uint64_t top = std::uint64_t(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<std::uint32_t>(top);

    if (top >> 63) {
      // qhat was still one too large: add v back once.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s = std::uint64_t(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      u[j + n] += static_cast<std::uint32_t>(c);
    }
    quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  // The remainder is u[0 .. n), still scaled by 2^shift.
  BigInt remainder;
  remainder.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
  remainder.trim();
  quotient.trim();
  return {quotient, remainder >> static_cast<std::size_t>(shift)};
}

BigInt BigInt::operator/(const BigInt& o) const { return divmod(o).quotient; }
BigInt BigInt::operator%(const BigInt& o) const { return divmod(o).remainder; }

namespace {

// Exponents up to this many bits (public exponents such as 65537) take
// plain square-and-multiply; longer ones take fixed 4-bit windows.
constexpr std::size_t kPlainExponentBits = 64;
constexpr std::size_t kWindowBits = 4;

// Montgomery arithmetic runs on 64-bit limbs with 128-bit products, twice
// the width of BigInt's storage limbs.
using Limb = std::uint64_t;
using Wide = unsigned __int128;

// out = a * b * R^{-1} mod n (CIOS), R = 2^(64k). a, b and out are k
// limbs with a, b < n, and out may alias a or b; scratch holds k + 2
// limbs. kFixedLimbs > 0 fixes k at compile time, so the inner loops
// unroll completely and the accumulator can live in registers;
// kFixedLimbs == 0 is the generic loop over any k. Nothing branches on
// the values: the reduction runs for every product and the final
// subtraction is kept or dropped by mask.
template <std::size_t kFixedLimbs>
void mont_mul(const Limb* a, const Limb* b, const Limb* n, Limb n0inv,
              std::size_t k_any, Limb* scratch, Limb* out) {
  const std::size_t k = kFixedLimbs ? kFixedLimbs : k_any;
  Limb local[kFixedLimbs + 2];
  Limb* t = kFixedLimbs ? local : scratch;
  for (std::size_t j = 0; j < k + 2; ++j) t[j] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const Limb bi = b[i];
    Limb c = 0;
#pragma GCC unroll 32
    for (std::size_t j = 0; j < k; ++j) {
      const Wide s = Wide(a[j]) * bi + t[j] + c;
      t[j] = static_cast<Limb>(s);
      c = static_cast<Limb>(s >> 64);
    }
    Wide s = Wide(t[k]) + c;
    t[k] = static_cast<Limb>(s);
    t[k + 1] = static_cast<Limb>(s >> 64);

    // t = (t + m * n) / 2^64, with m chosen so the low limb cancels.
    const Limb m = t[0] * n0inv;
    c = static_cast<Limb>((Wide(m) * n[0] + t[0]) >> 64);
#pragma GCC unroll 32
    for (std::size_t j = 1; j < k; ++j) {
      s = Wide(m) * n[j] + t[j] + c;
      t[j - 1] = static_cast<Limb>(s);
      c = static_cast<Limb>(s >> 64);
    }
    s = Wide(t[k]) + c;
    t[k - 1] = static_cast<Limb>(s);
    t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
  }

  // t < 2n. Compute t - n into out and keep it when it did not underflow.
  Limb borrow = 0;
#pragma GCC unroll 32
  for (std::size_t j = 0; j < k; ++j) {
    const Wide diff = Wide(t[j]) - n[j] - borrow;
    out[j] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  const Limb mask = 0 - ((t[k] | (borrow ^ 1)) & 1);
#pragma GCC unroll 32
  for (std::size_t j = 0; j < k; ++j) {
    out[j] = (out[j] & mask) | (t[j] & ~mask);
  }
}

// Montgomery context for an odd n of k 64-bit limbs, built once per
// modexp. mul() works in a scratch buffer the context owns, so an
// exponentiation allocates nothing per multiply.
class Montgomery {
 public:
  Montgomery(std::vector<Limb> n, std::vector<Limb> r2)
      : n_(std::move(n)), r2_(std::move(r2)), t_(n_.size() + 2) {
    // n0inv = -n^{-1} mod 2^64 via Newton iteration: 3 correct bits
    // (n0 is odd) doubling to 96.
    const Limb n0 = n_[0];
    Limb inv = n0;
    for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
    n0inv_ = 0 - inv;
    switch (n_.size()) {  // the 256-, 512-, 1024- and 2048-bit moduli
      case 4: kernel_ = mont_mul<4>; break;
      case 8: kernel_ = mont_mul<8>; break;
      case 16: kernel_ = mont_mul<16>; break;
      case 32: kernel_ = mont_mul<32>; break;
      default: kernel_ = mont_mul<0>; break;
    }
  }

  /// R^2 mod n, k limbs: mul(x, r2()) moves x into Montgomery form.
  const Limb* r2() const { return r2_.data(); }

  void mul(const Limb* a, const Limb* b, Limb* out) {
    kernel_(a, b, n_.data(), n0inv_, n_.size(), t_.data(), out);
  }

 private:
  using Kernel = void (*)(const Limb*, const Limb*, const Limb*, Limb,
                          std::size_t, Limb*, Limb*);

  std::vector<Limb> n_;
  std::vector<Limb> r2_;
  std::vector<Limb> t_;  // k + 2 limbs for the generic kernel
  Limb n0inv_;
  Kernel kernel_;
};

}  // namespace

BigInt BigInt::modexp(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus.is_zero() || modulus == BigInt(1)) {
    throw Error("modexp: modulus must be > 1");
  }
  BigInt base = *this % modulus;
  if (exponent.is_zero()) return BigInt(1);

  if (modulus.is_odd()) {
    // Pairs of storage limbs make one Montgomery limb; an odd count pads
    // with a zero half.
    const std::size_t k = (modulus.limbs_.size() + 1) / 2;
    auto packed = [k](const BigInt& x) {
      std::vector<Limb> v(k, 0);
      for (std::size_t i = 0; i < x.limbs_.size(); ++i) {
        v[i / 2] |= Limb(x.limbs_[i]) << (32 * (i % 2));
      }
      return v;
    };
    // R^2 mod n is one word-level division of 2^(128k).
    Montgomery mont(packed(modulus), packed(shift_limbs(BigInt(1), 4 * k) % modulus));

    std::vector<Limb> one(k, 0);
    one[0] = 1;
    std::vector<Limb> acc(k);
    mont.mul(mont.r2(), one.data(), acc.data());  // R mod n: Montgomery one
    std::vector<Limb> base_m = packed(base);
    mont.mul(base_m.data(), mont.r2(), base_m.data());  // base * R mod n

    const std::size_t bits = exponent.bit_length();
    if (bits <= kPlainExponentBits) {
      for (std::size_t i = bits; i-- > 0;) {
        mont.mul(acc.data(), acc.data(), acc.data());
        if (exponent.bit(i)) mont.mul(acc.data(), base_m.data(), acc.data());
      }
    } else {
      // table[w] = base^w in Montgomery form, table[0] = one. Every window
      // squares kWindowBits times and multiplies once, so the sequence of
      // operations depends on the exponent's length, not on its bits.
      constexpr std::size_t kTableSize = std::size_t(1) << kWindowBits;
      std::vector<Limb> table(kTableSize * k);
      std::copy(acc.begin(), acc.end(), table.begin());
      std::copy(base_m.begin(), base_m.end(), table.begin() + static_cast<long>(k));
      for (std::size_t w = 2; w < kTableSize; ++w) {
        mont.mul(&table[(w - 1) * k], base_m.data(), &table[w * k]);
      }
      constexpr std::size_t kWindowsPerLimb = 32 / kWindowBits;
      for (std::size_t w = (bits + kWindowBits - 1) / kWindowBits; w-- > 0;) {
        for (std::size_t s = 0; s < kWindowBits; ++s) {
          mont.mul(acc.data(), acc.data(), acc.data());
        }
        const std::uint32_t digit =
            (exponent.limbs_[w / kWindowsPerLimb] >>
             (kWindowBits * (w % kWindowsPerLimb))) & (kTableSize - 1);
        mont.mul(acc.data(), &table[digit * k], acc.data());
      }
    }
    // Out of Montgomery form: acc * 1 * R^{-1}.
    mont.mul(acc.data(), one.data(), acc.data());
    BigInt out;
    out.limbs_.resize(2 * k);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
      out.limbs_[i] = static_cast<std::uint32_t>(acc[i / 2] >> (32 * (i % 2)));
    }
    out.trim();
    return out;
  }

  // Generic path for even moduli (not used by RSA, kept for completeness).
  BigInt result(1);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.bit(i)) result = (result * base) % modulus;
  }
  return result;
}

BigInt BigInt::modinv(const BigInt& modulus) const {
  // Extended Euclid on (a, m) tracking only the coefficient of a, with
  // signs managed explicitly since BigInt is unsigned.
  if (modulus.is_zero()) throw Error("modinv: zero modulus");
  BigInt a = *this % modulus;
  if (a.is_zero()) throw Error("modinv: not invertible");

  BigInt r0 = modulus, r1 = a;
  BigInt s0 = BigInt(0), s1 = BigInt(1);
  bool s0_neg = false, s1_neg = false;

  while (!r1.is_zero()) {
    BigIntDivMod qr = r0.divmod(r1);
    BigInt r2 = qr.remainder;

    // s2 = s0 - q * s1 with sign tracking.
    BigInt qs1 = qr.quotient * s1;
    BigInt s2;
    bool s2_neg;
    if (s0_neg == s1_neg) {
      // s0 and q*s1 have the same sign: result sign depends on magnitude.
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }

    r0 = r1;
    r1 = r2;
    s0 = s1;
    s0_neg = s1_neg;
    s1 = s2;
    s1_neg = s2_neg;
  }

  if (r0 != BigInt(1)) throw Error("modinv: not invertible");
  if (s0_neg) return modulus - (s0 % modulus);
  return s0 % modulus;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

bool BigInt::is_probable_prime(int rounds, Drbg& rng) const {
  if (*this < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (*this == bp) return true;
    if ((*this % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^r with d odd.
  BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    BigInt a = BigInt(2) + random_below(*this - BigInt(3), rng);
    BigInt x = a.modexp(d, *this);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = x.modexp(BigInt(2), *this);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(std::size_t bits, Drbg& rng) {
  if (bits < 8) throw Error("generate_prime: need at least 8 bits");
  for (;;) {
    BigInt candidate = random_bits(bits, rng);
    // Force odd.
    if (!candidate.is_odd()) candidate = candidate + BigInt(1);
    if (candidate.bit_length() != bits) continue;
    if (candidate.is_probable_prime(24, rng)) return candidate;
  }
}

std::uint64_t BigInt::to_u64() const {
  if (limbs_.size() > 2) throw Error("BigInt too large for u64");
  std::uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

}  // namespace clarens::crypto
