// SHA-256 (FIPS 180-4), the workhorse digest for certificate signatures,
// HMAC record authentication, session-key derivation and the DRBG.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace clarens::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  /// A compression function: folds `blocks` consecutive 64-byte blocks
  /// into the eight state words.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);

  /// The portable kernel, and the x86-64 SHA extensions one (nullptr
  /// when this build or this CPU lacks them).
  static Kernel portable_kernel();
  static Kernel sha_ni_kernel();
  /// The kernel every default-constructed Sha256 uses, chosen once per
  /// process on first use: SHA-NI when the CPU has it, else the portable
  /// one.
  static Kernel default_kernel();
  /// "sha-ni" or "portable", naming default_kernel().
  static const char* default_kernel_name();

  Sha256() : Sha256(default_kernel()) {}
  /// A hash that compresses with `kernel` (differential tests).
  explicit Sha256(Kernel kernel);

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }

  Digest finish();

  void reset();

  static Digest hash(std::string_view data);
  static Digest hash(std::span<const std::uint8_t> data);
  static std::string hex(std::string_view data);

 private:
  Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> block_;
  std::size_t block_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace clarens::crypto
