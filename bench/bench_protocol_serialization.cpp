// Ablation A2: wire-protocol cost. Clarens exposes XML-RPC, SOAP and
// JSON-RPC on the same endpoint (§2); this measures serialize + parse
// for each on the Figure-4 response payload (an array of >30 method-name
// strings) and on a struct-heavy file.ls-style payload.
#include <benchmark/benchmark.h>

#include <random>

#include "http/message.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/protocol.hpp"
#include "rpc/soap.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/buffer.hpp"
#include "util/hex.hpp"

using namespace clarens;

namespace {

// The system.list_methods response of a fully loaded server.
rpc::Response list_methods_response() {
  rpc::Value names = rpc::Value::array();
  const char* modules[] = {"system", "file", "vo", "acl", "shell", "proxy"};
  const char* methods[] = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"};
  for (const char* m : modules) {
    for (const char* f : methods) {
      names.push(std::string(m) + "." + f);
    }
  }
  return rpc::Response::success(names);
}

// A file.ls response: array of stat structs.
rpc::Response file_ls_response() {
  rpc::Value listing = rpc::Value::array();
  for (int i = 0; i < 50; ++i) {
    rpc::Value st = rpc::Value::struct_();
    st.set("name", "events-" + std::to_string(i) + ".dat");
    st.set("is_directory", false);
    st.set("size", std::int64_t{1} << 28);
    st.set("mtime", rpc::DateTime{1120000000 + i});
    listing.push(st);
  }
  return rpc::Response::success(listing);
}

rpc::Request list_methods_request() {
  rpc::Request request;
  request.method = "system.list_methods";
  return request;
}

}  // namespace

static void BM_SerializeResponse(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  rpc::Response response = list_methods_response();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string wire = rpc::serialize_response(protocol, response);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetLabel(std::string(rpc::to_string(protocol)) + " " +
                 std::to_string(bytes) + "B");
}
BENCHMARK(BM_SerializeResponse)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The server hot path: serialize into a reused arena Buffer (no wire
// string allocation at all once the arena is warm).
static void BM_SerializeResponseArena(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  rpc::Response response = list_methods_response();
  util::Buffer arena;
  std::size_t bytes = 0;
  for (auto _ : state) {
    arena.clear();
    rpc::serialize_response(protocol, response, arena);
    bytes = arena.readable();
    benchmark::DoNotOptimize(arena.peek_view().data());
  }
  state.SetLabel(std::string(rpc::to_string(protocol)) + " " +
                 std::to_string(bytes) + "B");
}
BENCHMARK(BM_SerializeResponseArena)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

static void BM_ParseResponse(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  std::string wire = rpc::serialize_response(protocol, list_methods_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::parse_response(protocol, wire));
  }
  state.SetLabel(rpc::to_string(protocol));
}
BENCHMARK(BM_ParseResponse)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

static void BM_SerializeStructHeavy(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  rpc::Response response = file_ls_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::serialize_response(protocol, response));
  }
  state.SetLabel(rpc::to_string(protocol));
}
BENCHMARK(BM_SerializeStructHeavy)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

static void BM_ParseStructHeavy(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  std::string wire = rpc::serialize_response(protocol, file_ls_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::parse_response(protocol, wire));
  }
  state.SetLabel(rpc::to_string(protocol));
}
BENCHMARK(BM_ParseStructHeavy)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

static void BM_RequestRoundTrip(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  rpc::Request request = list_methods_request();
  for (auto _ : state) {
    std::string wire = rpc::serialize_request(protocol, request);
    benchmark::DoNotOptimize(rpc::parse_request(protocol, wire));
  }
  state.SetLabel(rpc::to_string(protocol));
}
BENCHMARK(BM_RequestRoundTrip)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Header lookups run on every request (Content-Type, session token,
// Connection); they must not allocate lowercase temporaries.
static void BM_HeaderLookup(benchmark::State& state) {
  http::Headers headers;
  headers.add("Host", "localhost:8080");
  headers.add("User-Agent", "clarens-bench/1.0");
  headers.add("Accept", "*/*");
  headers.add("Content-Type", "text/xml");
  headers.add("Content-Length", "512");
  headers.add("X-Clarens-Session", "0123456789abcdef0123456789abcdef");
  headers.add("Connection", "keep-alive");
  for (auto _ : state) {
    benchmark::DoNotOptimize(headers.find("content-type"));
    benchmark::DoNotOptimize(headers.find("X-CLARENS-SESSION"));
    benchmark::DoNotOptimize(headers.find("connection"));
    benchmark::DoNotOptimize(headers.find("authorization"));  // miss
  }
}
BENCHMARK(BM_HeaderLookup);

// File contents as the federation moves them: seeded random bytes. A
// regular pattern would let the branch predictor learn the decoder's
// per-character branches and hide their cost.
static std::vector<std::uint8_t> random_payload(std::size_t n) {
  std::mt19937_64 rng(131);
  std::vector<std::uint8_t> blob(n);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
  return blob;
}

// Binary payload cost: base64 dominates XML/JSON transports for
// file.read responses.
static void BM_BinaryPayload(benchmark::State& state) {
  auto protocol = static_cast<rpc::Protocol>(state.range(0));
  std::vector<std::uint8_t> blob = random_payload(64 * 1024);
  rpc::Response response = rpc::Response::success(rpc::Value(blob));
  for (auto _ : state) {
    std::string wire = rpc::serialize_response(protocol, response);
    benchmark::DoNotOptimize(rpc::parse_response(protocol, wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
  state.SetLabel(rpc::to_string(protocol));
}
BENCHMARK(BM_BinaryPayload)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The base64 kernel alone, on one file.read chunk (8 KiB, fed_files'
// size) and on a 64 KiB value.
static void BM_Base64Encode(benchmark::State& state) {
  std::vector<std::uint8_t> blob =
      random_payload(static_cast<std::size_t>(state.range(0)));
  util::Buffer out;
  for (auto _ : state) {
    out.clear();
    util::base64_encode_append(out, blob);
    benchmark::DoNotOptimize(out.peek().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Base64Encode)->Arg(8 * 1024)->Arg(64 * 1024);

static void BM_Base64Decode(benchmark::State& state) {
  std::string text = util::base64_encode(
      random_payload(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::base64_decode(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Base64Decode)->Arg(8 * 1024)->Arg(64 * 1024);
