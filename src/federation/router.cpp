#include "federation/router.hpp"

#include <map>

#include "util/error.hpp"

namespace clarens::federation {

namespace {

client::ClientOptions pool_base() {
  // Peer traffic inside the cluster is plaintext JSON-RPC: the trust
  // boundary is the node ticket, not the transport, and heads/storage
  // nodes share a network segment in the deployments the paper
  // describes. TLS peers still work (PeerEndpoint::parse flips use_tls).
  client::ClientOptions base;
  base.protocol = rpc::Protocol::JsonRpc;
  return base;
}

}  // namespace

Router::Router(const discovery::DiscoveryServer& discovery,
               RouterOptions options)
    : discovery_(discovery),
      options_(std::move(options)),
      ticket_key_(options_.secret),
      pool_(pool_base()) {}

std::string Router::prefix_of(const std::string& path) const {
  return Placement::prefix_of(path, options_.prefix_depth);
}

void Router::refresh_if_stale() {
  {
    util::LockGuard lock(mutex_);
    if (ring_valid_ &&
        refresh_age_.seconds() * 1000 < options_.refresh_ms) {
      return;
    }
  }
  // Gather records outside the lock — find_services takes the discovery
  // cache lock, and holding two unrelated locks across modules is how
  // hierarchies rot.
  std::map<std::string, NodeInfo> by_id;
  for (const auto& record : discovery_.find_services("")) {
    if (record.role != "storage") continue;
    if (!options_.self_url.empty() && record.url == options_.self_url) {
      continue;
    }
    NodeInfo& node = by_id[record.farm + "/" + record.node];
    node.id = record.farm + "/" + record.node;
    node.url = record.url;
    auto capacity = record.metrics.find("capacity");
    node.capacity = capacity != record.metrics.end() ? capacity->second : 1.0;
    for (const auto& prefix : record.prefixes) {
      bool known = false;
      for (const auto& have : node.prefixes) known = known || have == prefix;
      if (!known) node.prefixes.push_back(prefix);
    }
  }
  std::vector<NodeInfo> nodes;
  nodes.reserve(by_id.size());
  for (auto& [_, node] : by_id) nodes.push_back(std::move(node));

  util::LockGuard lock(mutex_);
  placement_.set_nodes(std::move(nodes));
  ring_valid_ = true;
  refresh_age_.reset();
}

std::optional<NodeInfo> Router::route(const std::string& path) {
  refresh_if_stale();
  util::LockGuard lock(mutex_);
  return placement_.owner(prefix_of(path));
}

std::vector<NodeInfo> Router::route_replicas(const std::string& path) {
  refresh_if_stale();
  util::LockGuard lock(mutex_);
  return placement_.owners(prefix_of(path), options_.replicas);
}

std::vector<NodeInfo> Router::route_owners(const std::string& path,
                                           int replicas) {
  refresh_if_stale();
  util::LockGuard lock(mutex_);
  return placement_.owners(prefix_of(path), replicas);
}

std::vector<NodeInfo> Router::storage_nodes() {
  refresh_if_stale();
  util::LockGuard lock(mutex_);
  return placement_.nodes();
}

void Router::invalidate() {
  util::LockGuard lock(mutex_);
  ring_valid_ = false;
}

std::string Router::mint_ticket(const std::string& dn, bool via_proxy,
                                const std::string& proxy_serial,
                                const std::string& scope, bool write) const {
  NodeTicket ticket;
  ticket.dn = dn;
  ticket.via_proxy = via_proxy;
  ticket.proxy_serial = proxy_serial;
  ticket.scope = scope;
  ticket.write = write;
  ticket.expires = util::unix_now() + options_.ticket_ttl_s;
  return ticket.mint(ticket_key_);
}

rpc::Value Router::call_on(const NodeInfo& node, const std::string& method,
                           const std::vector<rpc::Value>& params,
                           const std::string& ticket) {
  client::PeerPool::Lease lease = pool_.lease(node.url);
  lease->set_header("X-Clarens-Node-Ticket", ticket);
  try {
    return lease->call(method, params);
  } catch (const SystemError&) {
    lease.discard();
    invalidate();  // membership may have changed under us
    throw;
  }
}

std::vector<client::FanOutReply> Router::fan_out(
    const std::vector<NodeInfo>& nodes, const std::string& method,
    const std::vector<rpc::Value>& params, const std::string& ticket) {
  std::vector<client::FanOutReply> replies(nodes.size());
  std::vector<client::FanOutTarget> plain_targets;
  std::vector<std::size_t> plain_index;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    client::PeerEndpoint endpoint = client::PeerEndpoint::parse(nodes[i].url);
    if (endpoint.tls) {
      // TLS peers can't ride the plaintext epoll loop; pooled sequential
      // call instead.
      try {
        replies[i].result = call_on(nodes[i], method, params, ticket);
        replies[i].ok = true;
      } catch (const std::exception& e) {
        replies[i].error = e.what();
      }
      continue;
    }
    plain_targets.push_back({endpoint.host, endpoint.port, "/clarens"});
    plain_index.push_back(i);
  }
  if (!plain_targets.empty()) {
    std::vector<client::FanOutReply> fanned = client::fan_out(
        plain_targets, method, params,
        {{"X-Clarens-Node-Ticket", ticket}}, rpc::Protocol::JsonRpc);
    for (std::size_t j = 0; j < fanned.size(); ++j) {
      replies[plain_index[j]] = std::move(fanned[j]);
    }
  }
  return replies;
}

}  // namespace clarens::federation
