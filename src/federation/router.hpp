// Head-side routing: discovery records -> placement ring -> node calls
// (ISSUE 8 tentpole).
//
// The Router is what a head node consults on every federated file call:
// it keeps a Placement ring built from the discovery server's live
// records (role == "storage", deduped per node, capacity-weighted),
// refreshing it at a bounded cadence so membership changes — a node
// SIGKILLed, a node joining — are picked up within about a refresh
// period + discovery TTL. It also mints node tickets and carries the
// peer-to-peer call plumbing (keep-alive pool, epoll fan-out).
//
// Layering: federation sits on client/discovery/rpc/crypto/util and must
// never include core/ (enforced by clarens_lint's layering rule) — the
// head's method bindings in core depend on Router, not the reverse.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "client/async_client.hpp"
#include "client/peer_pool.hpp"
#include "discovery/discovery_server.hpp"
#include "federation/node_ticket.hpp"
#include "federation/placement.hpp"
#include "rpc/value.hpp"
#include "util/clock.hpp"
#include "util/sync.hpp"

namespace clarens::federation {

struct RouterOptions {
  /// This head's own URL — excluded from the ring even if a colocated
  /// storage role publishes under the same farm/node.
  std::string self_url;
  /// Shared cluster secret for node tickets.
  std::string secret;
  /// Distinct nodes per prefix (primary + fallbacks).
  int replicas = 1;
  /// Minimum interval between ring rebuilds from discovery.
  int refresh_ms = 1000;
  /// Node ticket lifetime.
  int ticket_ttl_s = 300;
  /// Path components per placement prefix.
  int prefix_depth = 2;
};

class Router {
 public:
  Router(const discovery::DiscoveryServer& discovery, RouterOptions options);

  const RouterOptions& options() const { return options_; }

  /// Placement prefix for `path` under the configured depth.
  std::string prefix_of(const std::string& path) const;

  /// Primary owner of `path`'s prefix, or nullopt when no storage node
  /// is live (caller falls back to serving locally).
  std::optional<NodeInfo> route(const std::string& path);

  /// Primary + fallback owners of `path`'s prefix (ring walk order).
  std::vector<NodeInfo> route_replicas(const std::string& path);

  /// Same, but with an explicit owner count — the replicator places each
  /// file by its layout's own replica_count, which may differ from the
  /// configured default.
  std::vector<NodeInfo> route_owners(const std::string& path, int replicas);

  /// All live storage nodes (fan-out targets), ring membership order.
  std::vector<NodeInfo> storage_nodes();

  /// Mint a ticket letting `dn` act on `scope` on a storage node.
  /// `write` grants mutations (file.write/mkdir/rm); read redirects and
  /// metadata proxying mint read-only tickets so a leaked/logged token
  /// can never authorize a change.
  std::string mint_ticket(const std::string& dn, bool via_proxy,
                          const std::string& proxy_serial,
                          const std::string& scope, bool write) const;

  /// Proxy one call to `node` over the keep-alive pool, presenting
  /// `ticket`. Throws what the remote call throws (rpc::Fault,
  /// SystemError);
  /// a transport failure retires the pooled connection.
  rpc::Value call_on(const NodeInfo& node, const std::string& method,
                     const std::vector<rpc::Value>& params,
                     const std::string& ticket);

  /// Issue the same call on every node concurrently (plaintext targets
  /// go through one epoll loop; TLS targets fall back to sequential
  /// pooled calls). Result order matches `nodes`.
  std::vector<client::FanOutReply> fan_out(
      const std::vector<NodeInfo>& nodes, const std::string& method,
      const std::vector<rpc::Value>& params, const std::string& ticket);

  /// Force a ring rebuild on the next query (tests; also used after a
  /// node call fails so the next route sees fresh membership sooner).
  void invalidate();

 private:
  void refresh_if_stale();

  const discovery::DiscoveryServer& discovery_;
  RouterOptions options_;
  const crypto::HmacSha256 ticket_key_;  // options_.secret, keyed once
  client::PeerPool pool_;

  mutable util::Mutex mutex_{util::LockLevel::kFederationRouter};
  Placement placement_ CLARENS_GUARDED_BY(mutex_);
  bool ring_valid_ CLARENS_GUARDED_BY(mutex_) = false;
  util::Stopwatch refresh_age_ CLARENS_GUARDED_BY(mutex_);
};

}  // namespace clarens::federation
