#include "client/peer_pool.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::client {

PeerEndpoint PeerEndpoint::parse(const std::string& url) {
  PeerEndpoint out;
  std::string rest;
  if (util::starts_with(url, "https://")) {
    out.tls = true;
    rest = url.substr(8);
  } else if (util::starts_with(url, "http://")) {
    out.tls = false;
    rest = url.substr(7);
  } else {
    throw ParseError("peer URL must start with http:// or https://: '" + url +
                     "'");
  }
  std::size_t slash = rest.find('/');
  if (slash != std::string::npos) rest.resize(slash);
  std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
    throw ParseError("peer URL must include host:port: '" + url + "'");
  }
  out.host = rest.substr(0, colon);
  std::uint64_t port = util::parse_uint(rest.substr(colon + 1));
  if (port == 0 || port > 65535) {
    throw ParseError("peer URL port must be 1-65535: '" + url + "'");
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

PeerPool::Lease PeerPool::lease(const std::string& url) {
  {
    util::LockGuard lock(mutex_);
    auto it = idle_.find(url);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<ClarensClient> client = std::move(it->second.back());
      it->second.pop_back();
      return Lease(this, url, std::move(client));
    }
  }
  PeerEndpoint endpoint = PeerEndpoint::parse(url);
  ClientOptions options = base_;
  options.host = endpoint.host;
  options.port = endpoint.port;
  options.use_tls = endpoint.tls;
  return Lease(this, url, std::make_unique<ClarensClient>(std::move(options)));
}

std::size_t PeerPool::idle_count(const std::string& url) const {
  util::LockGuard lock(mutex_);
  auto it = idle_.find(url);
  return it == idle_.end() ? 0 : it->second.size();
}

void PeerPool::put_back(const std::string& url,
                        std::unique_ptr<ClarensClient> client) {
  util::LockGuard lock(mutex_);
  idle_[url].push_back(std::move(client));
}

}  // namespace clarens::client
