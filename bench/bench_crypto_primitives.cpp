// Ablation A7: cost of the from-scratch cryptographic primitives that
// every secure operation composes — contextualizes the TLS-overhead and
// Globus-comparison results (how much of a handshake is RSA, how much a
// record costs in cipher+MAC work).
#include <benchmark/benchmark.h>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

using namespace clarens::crypto;

namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  return out;
}

// One key pair per size, generated on first use (seeded, so every run
// signs with the same keys).
RsaKeyPair& keys(std::int64_t bits) {
  static RsaKeyPair k512 = [] {
    Drbg rng(std::vector<std::uint8_t>{1});
    return rsa_generate(512, rng);
  }();
  if (bits == 512) return k512;
  static RsaKeyPair k1024 = [] {
    Drbg rng(std::vector<std::uint8_t>{2});
    return rsa_generate(1024, rng);
  }();
  if (bits == 1024) return k1024;
  static RsaKeyPair k2048 = [] {
    Drbg rng(std::vector<std::uint8_t>{5});
    return rsa_generate(2048, rng);
  }();
  return k2048;
}

}  // namespace

static void BM_Md5(benchmark::State& state) {
  auto data = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Md5 md5;
    md5.update(data);
    benchmark::DoNotOptimize(md5.finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(4096)->Arg(262144);

static void BM_Sha256(benchmark::State& state) {
  auto data = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Sha256::default_kernel_name());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(262144);

static void BM_HmacSha256(benchmark::State& state) {
  auto key = pattern_bytes(32);
  auto data = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(16384);

// The same MACs under a key whose ipad/opad blocks were compressed once,
// as the TLS record layer and node tickets use it.
static void BM_HmacSha256Keyed(benchmark::State& state) {
  const HmacSha256 key(pattern_bytes(32));
  auto data = pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.mac(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256Keyed)->Arg(64)->Arg(16384);

static void BM_ChaCha20(benchmark::State& state) {
  auto key = pattern_bytes(32);
  auto nonce = pattern_bytes(12);
  std::vector<std::uint8_t> data =
      pattern_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ChaCha20 cipher(key, nonce);
    cipher.crypt(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(16384)->Arg(262144);

// One TLS record = cipher + MAC over ~16 KiB.
static void BM_TlsRecordWork(benchmark::State& state) {
  auto key = pattern_bytes(32);
  auto nonce = pattern_bytes(12);
  auto mac_key = pattern_bytes(32);
  std::vector<std::uint8_t> data = pattern_bytes(16384);
  for (auto _ : state) {
    auto mac = hmac_sha256(mac_key, data);
    benchmark::DoNotOptimize(mac);
    ChaCha20 cipher(key, nonce);
    cipher.crypt(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_TlsRecordWork);

static void BM_RsaSign(benchmark::State& state) {
  RsaKeyPair& kp = keys(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(kp.priv, "handshake transcript"));
  }
  state.SetLabel(std::to_string(state.range(0)) + "-bit");
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048);

static void BM_RsaVerify(benchmark::State& state) {
  RsaKeyPair& kp = keys(state.range(0));
  auto sig = rsa_sign(kp.priv, "handshake transcript");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(kp.pub, "handshake transcript", sig));
  }
  state.SetLabel(std::to_string(state.range(0)) + "-bit");
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

static void BM_RsaDecrypt(benchmark::State& state) {
  RsaKeyPair& kp = keys(state.range(0));
  Drbg rng(std::vector<std::uint8_t>{3});
  std::vector<std::uint8_t> pre_master = rng.bytes(48);
  auto ct = rsa_encrypt(kp.pub, pre_master, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt(kp.priv, ct));
  }
  state.SetLabel(std::to_string(state.range(0)) + "-bit");
}
BENCHMARK(BM_RsaDecrypt)->Arg(512)->Arg(1024);

// One private-exponent modexp modulo a prime factor of a key: the CRT
// half of an RSA private operation. /256 is the half of a 512-bit key.
static void BM_ModExp(benchmark::State& state) {
  const RsaPrivateKey& priv = keys(2 * state.range(0)).priv;
  const BigInt base = BigInt::from_bytes(pattern_bytes(64)) % priv.p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.modexp(priv.dp, priv.p));
  }
  state.SetLabel(std::to_string(state.range(0)) + "-bit modulus");
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(512)->Arg(1024);

static void BM_DrbgBytes(benchmark::State& state) {
  Drbg rng(std::vector<std::uint8_t>{4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bytes(32));
  }
}
BENCHMARK(BM_DrbgBytes);
