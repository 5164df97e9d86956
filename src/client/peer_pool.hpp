// Per-node keep-alive client pool — the peer-to-peer mode of
// clarens::client (ISSUE 8 tentpole).
//
// A federated head proxies small metadata calls to storage nodes, and a
// federation-aware client follows redirects to whichever node owns the
// data. Both want warm connections per peer URL instead of a TCP (+TLS)
// handshake per call. PeerPool keeps a stack of idle ClarensClients per
// endpoint; lease() pops one (or builds a fresh one) and the RAII Lease
// returns it on destruction. A caller whose call failed marks the lease
// discarded so a torn connection is dropped instead of re-pooled.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "util/sync.hpp"

namespace clarens::client {

/// Decomposed http(s)://host:port[/path] URL with a port in 1-65535.
/// Throws clarens::ParseError on anything else.
struct PeerEndpoint {
  std::string host;
  std::uint16_t port = 0;
  bool tls = false;

  static PeerEndpoint parse(const std::string& url);
};

class PeerPool {
 public:
  /// `base` supplies everything but host/port/TLS flag: protocol,
  /// credential + chain, trust store, endpoint path.
  explicit PeerPool(ClientOptions base) : base_(std::move(base)) {}

  class Lease {
   public:
    Lease(PeerPool* pool, std::string url,
          std::unique_ptr<ClarensClient> client)
        : pool_(pool), url_(std::move(url)), client_(std::move(client)) {}
    ~Lease() {
      if (client_ && !discarded_) pool_->put_back(url_, std::move(client_));
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ClarensClient& operator*() { return *client_; }
    ClarensClient* operator->() { return client_.get(); }

    /// Drop the client on release instead of pooling it — call after a
    /// transport failure so the next lease() dials a fresh connection.
    void discard() { discarded_ = true; }

   private:
    PeerPool* pool_;
    std::string url_;
    std::unique_ptr<ClarensClient> client_;
    bool discarded_ = false;
  };

  /// Lease a client for `url`, reusing an idle keep-alive connection to
  /// the same URL when one exists.
  Lease lease(const std::string& url);

  /// Idle clients currently pooled for `url` (tests).
  std::size_t idle_count(const std::string& url) const;

 private:
  friend class Lease;
  void put_back(const std::string& url,
                std::unique_ptr<ClarensClient> client);

  ClientOptions base_;
  mutable util::Mutex mutex_{util::LockLevel::kClientPeerPool};
  std::map<std::string, std::vector<std::unique_ptr<ClarensClient>>> idle_
      CLARENS_GUARDED_BY(mutex_);
};

}  // namespace clarens::client
