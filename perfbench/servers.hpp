// Server-side fixtures shared by the workloads: a benchmark PKI with
// seeded identities and the paper's §4 server configuration.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/server.hpp"
#include "pki/authority.hpp"

namespace perfbench {

namespace client = clarens::client;
namespace core = clarens::core;
namespace crypto = clarens::crypto;
namespace db = clarens::db;
namespace discovery = clarens::discovery;
namespace federation = clarens::federation;
namespace http = clarens::http;
namespace pki = clarens::pki;
namespace rpc = clarens::rpc;

/// Seeded distinguished name of benchmark user `index`.
inline std::string user_dn(std::uint64_t seed, std::uint64_t index) {
  char name[64];
  std::snprintf(name, sizeof(name), "user-%016llx",
                static_cast<unsigned long long>(mix64(seed ^ (index * 0x9e37ull))));
  return std::string("/O=benchgrid.org/OU=People/CN=") + name;
}

/// CA, server credential and `users` user credentials. Key generation
/// draws on OS entropy; the subject names come from the seed.
struct Pki {
  pki::CertificateAuthority ca;
  pki::Credential server;
  std::vector<pki::Credential> users;
  pki::TrustStore trust;

  Pki(std::uint64_t seed, int user_count)
      : ca(pki::CertificateAuthority::create(
            pki::DistinguishedName::parse("/O=benchgrid.org/CN=Bench CA"))) {
    server = ca.issue_server(pki::DistinguishedName::parse(
        "/O=benchgrid.org/OU=Services/CN=host/bench.example.org"));
    for (int i = 0; i < user_count; ++i) {
      users.push_back(ca.issue_user(pki::DistinguishedName::parse(
          user_dn(seed, static_cast<std::uint64_t>(i)))));
    }
    trust.add_authority(ca.certificate());
  }
};

/// Sessions in the persisted store every set-up restarts over.
inline std::uint64_t session_population(const Options& options) {
  return options.smoke ? 5000 : 100000;
}

/// Persist a seeded population of `count` sessions under `dir` and return
/// the ids of the sessions numbered `picks`. Every set-up restarts its
/// server over such a store: real, repeatable work, unlike a bare start.
inline std::vector<std::string> make_session_store(const std::string& dir, std::uint64_t seed,
                                                   std::uint64_t count,
                                                   const std::vector<std::uint64_t>& picks) {
  db::Store store(dir);
  core::SessionManager sessions(store);
  std::vector<std::string> ids(picks.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    core::Session s = sessions.create(user_dn(seed, i), false);
    for (std::size_t p = 0; p < picks.size(); ++p) {
      if (picks[p] == i) ids[p] = s.id;
    }
  }
  store.sync();
  return ids;
}

inline core::AclSpec allow_anyone() {
  core::AclSpec spec;
  spec.allow_dns = {core::AclSpec::kAnyone};
  return spec;
}

/// The paper's server: sessions and method ACLs in the database, the
/// system/echo/file modules open to every authenticated identity.
inline core::ClarensConfig paper_config(const Pki& pki) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  config.admins = {"/O=benchgrid.org/OU=People/CN=Bench Admin"};
  config.initial_method_acls = {{"system", allow_anyone()},
                                {"echo", allow_anyone()},
                                {"file", allow_anyone()}};
  return config;
}

/// Work counters the servers keep: HTTP requests served and dispatched
/// inline, and db::Store operations.
struct Counters {
  std::uint64_t served = 0;
  std::uint64_t inlined = 0;
  std::uint64_t store_ops = 0;

  static Counters of(std::initializer_list<core::ClarensServer*> servers) {
    Counters c;
    for (core::ClarensServer* s : servers) {
      c.served += s->requests_served();
      c.inlined += s->requests_inlined();
      c.store_ops += s->store().operations();
    }
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {served - o.served, inlined - o.inlined, store_ops - o.store_ops};
  }
  Counters& operator+=(const Counters& o) {
    served += o.served;
    inlined += o.inlined;
    store_ops += o.store_ops;
    return *this;
  }
  /// The http.* and db.* ratios over the untraced windows' ops.
  void report(RunResult& result, const std::string& which) const {
    std::uint64_t n = result.ops.attempted;
    double ops = static_cast<double>(n ? n : 1);
    std::string per_op = " / " + std::to_string(n) + " ops";
    result.layers["http.requests_per_op"] = {
        static_cast<double>(served) / ops, "count",
        std::to_string(served) + " requests" + which + per_op};
    result.layers["http.inline_ratio"] = {
        served ? static_cast<double>(inlined) / static_cast<double>(served) : 0, "ratio",
        std::to_string(inlined) + " inlined / " + std::to_string(served) + " served" + which};
    result.layers["db.ops_per_op"] = {
        static_cast<double>(store_ops) / ops, "count",
        std::to_string(store_ops) + " store ops" + which + per_op};
  }
};

/// The rounds of a closed-loop workload on one server. `start` brings up
/// the server and its callers and returns the server; set-up time runs
/// from there through `warm_ops` ops per caller. `stop` tears both down.
inline void closed_loop_rounds(const Options& options, RunResult& result, int callers,
                               int warm_ops, const CallerOp& op,
                               const std::function<core::ClarensServer&()>& start,
                               const std::function<void()>& stop) {
  const double window_s = RunResult::window_seconds(options);
  for (int i = 0; options.trace && i < callers; ++i) result.spans.emplace_back(i);
  Counters counters;
  for (int round = 0; round < options.rounds; ++round) {
    result.begin_round();
    std::int64_t t0 = now_ns();
    core::ClarensServer& server = start();
    if (warm_up(callers, warm_ops, op) != 0) result.problem("warm-up ops failed");
    result.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    Counters before = Counters::of({&server});
    Window window;
    OpLog ops = run_closed_loop(callers, window_s, op, nullptr, &window);
    result.add_window(window, ops);
    counters += Counters::of({&server}) - before;
    if (options.trace) {
      Window traced;
      OpLog traced_ops = run_closed_loop(callers, window_s, op, &result.spans, &traced);
      result.add_traced(traced, traced_ops);
    }
    stop();
    result.end_round();
  }
  counters.report(result, "");
}

}  // namespace perfbench
