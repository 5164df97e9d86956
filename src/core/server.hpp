// ClarensServer: the assembled Web Service framework of the paper.
//
// Wires together the HTTP server (Apache analogue), the RPC protocol
// layer (XML-RPC / SOAP / JSON-RPC on one endpoint), the database-backed
// session manager, VO and ACL management, the file / shell / proxy
// services, the discovery publisher, and the browser portal page.
//
// Every RPC passes through the two access-control checks the paper's
// performance section describes — session validity and method ACL — each
// a database lookup, with no per-request caching.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/peer_pool.hpp"
#include "core/acl.hpp"
#include "core/commit_reports.hpp"
#include "core/file_service.hpp"
#include "core/job_service.hpp"
#include "core/message_service.hpp"
#include "core/proxy_service.hpp"
#include "core/session.hpp"
#include "core/transfer_service.hpp"
#include "core/shell_service.hpp"
#include "core/vo.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/publisher.hpp"
#include "federation/layout.hpp"
#include "federation/node_ticket.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "http/server.hpp"
#include "pki/certificate.hpp"
#include "pki/verify.hpp"
#include "rpc/registry.hpp"
#include "storage/srm.hpp"
#include "task/engine.hpp"
#include "util/sync.hpp"

namespace clarens::core {

/// Federation role of one server (ISSUE 8, the EOS mgm/fst split):
///  * Standalone — the pre-federation single-server deployment; owns
///    everything, redirects nothing.
///  * Head — owns sessions/auth/VO/ACL and the namespace; answers file
///    I/O with redirect envelopes to storage nodes and mints the node
///    tickets that authorize the hop.
///  * Storage — owns file/sandbox bytes; trusts head-minted node tickets
///    (X-Clarens-Node-Ticket) in place of a full session handshake.
enum class NodeRole { Standalone, Head, Storage };

const char* to_string(NodeRole role);

struct ClarensConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral

  /// Persistent state directory; empty = in-memory database (sessions
  /// then do NOT survive restarts — fine for tests and benchmarks).
  std::string data_dir;

  /// Storage-engine tuning (persistent stores only; see db::StoreOptions).
  std::size_t store_shards = 16;
  bool store_group_commit = true;
  std::int64_t store_commit_interval_us = 200;
  std::size_t store_commit_batch_max = 256;
  std::int64_t store_compact_threshold = 8 * 1024 * 1024;
  /// Durable session mutations: session create/destroy ack only after
  /// their journal group is fdatasync'ed (group commit amortizes the
  /// fsync across concurrent logins). Off = async journaling, the
  /// paper's restart-survival is best-effort within the commit interval.
  bool session_durable_writes = false;

  /// Root administrator DNs (populate the admins group at startup).
  std::vector<std::string> admins;

  /// ACL default when no ACL decides. Keep false in production.
  bool default_allow = false;

  /// Seed method ACLs applied at startup (path -> spec). The benchmark
  /// setup grants "system" and "echo" to every authenticated identity.
  std::vector<std::pair<std::string, AclSpec>> initial_method_acls;
  std::vector<std::pair<std::string, FileAcl>> initial_file_acls;

  /// Server credential and trust anchors. The credential is required
  /// when TLS is on; the trust store is always required (plaintext
  /// authentication also verifies certificate chains).
  std::optional<pki::Credential> credential;
  std::vector<pki::Certificate> chain;
  pki::TrustStore trust;

  bool use_tls = false;
  bool require_client_cert = false;

  /// Virtual file roots: virtual prefix -> server directory.
  std::map<std::string, std::string> file_roots;

  /// Shell sandbox base directory ("" disables the shell and job
  /// services).
  std::string sandbox_base;
  std::vector<UserMapEntry> user_map;

  std::int64_t session_ttl = 24 * 3600;
  std::int64_t challenge_ttl = 300;
  /// Largest file.read chunk a client may request in one call. The
  /// wire-supplied length sizes a server buffer, so it is clamped.
  std::int64_t max_read_chunk = 8 * 1024 * 1024;

  /// Adaptive inline dispatch: run measured-cheap system.* / echo.* RPCs
  /// directly on the reactor thread, skipping the worker handoff (the
  /// paper's Fig. 4 hot path). Off = every request takes a worker.
  bool inline_dispatch = true;
  /// file.read responses of at least this many bytes bypass the
  /// serialization arena and stream zero-copy from the file (sendfile(2)
  /// on plaintext connections; binary protocol only). < 0 disables.
  std::int64_t sendfile_threshold = 64 * 1024;
  /// Expired-session sweep period; <= 0 disables the reaper thread.
  int session_reap_interval_s = 300;

  /// Browser portal (§3): directory of static pages served on GET /
  /// and /portal/* without authentication (they contain no data, only
  /// the JavaScript UI that makes authenticated web-service calls).
  /// Empty = serve a built-in placeholder page on "/".
  std::string portal_dir;

  /// Discovery: publish to this station server when set.
  std::optional<std::pair<std::string, std::uint16_t>> station;
  std::string farm = "local";
  std::string node = "clarens";
  int publish_interval_ms = 2000;

  // --- Federation (ISSUE 8) -------------------------------------------
  /// Role in a federated deployment; Standalone keeps every pre-existing
  /// behaviour byte-for-byte.
  NodeRole node_role = NodeRole::Standalone;
  /// Storage nodes: RPC URL of the head (http(s)://host:port[/clarens]).
  std::string head_url;
  /// Shared cluster secret that signs node tickets. Required (>= 16
  /// chars) for head and storage roles.
  std::string node_ticket_secret;
  /// Distinct storage nodes a namespace prefix is placed on.
  int placement_replicas = 1;
  /// This node's placement-ring weight as advertised via discovery.
  double node_capacity = 1.0;
  /// Head: minimum interval between placement-ring rebuilds from
  /// discovery records.
  int federation_refresh_ms = 1000;
  /// Lifetime of head-minted node tickets.
  int node_ticket_ttl_s = 300;
  /// Path components per placement prefix ("/data/run1/x" -> "/data/run1"
  /// at depth 2).
  int placement_prefix_depth = 2;

  // --- Replication / self-healing (ISSUE 10) --------------------------
  /// Head: how long a storage node may be absent from discovery before
  /// its replicas are declared missing and re-replication starts.
  int replication_grace_ms = 5000;
  /// Bounded retry of queued replication work: attempts per task, first
  /// delay, and the cap the exponential backoff saturates at.
  int replication_retry_max = 8;
  int replication_retry_base_ms = 100;
  int replication_retry_max_ms = 5000;
  /// Periodic fsck scrub cadence on the head; 0 = on demand only
  /// (replica.fsck).
  int fsck_interval_ms = 0;
  /// How long a client-reported unreachable node is skipped for reads.
  int replica_suspect_ttl_ms = 3000;

  std::size_t max_connections = 1024;
};

class ClarensServer {
 public:
  explicit ClarensServer(ClarensConfig config);
  ~ClarensServer();

  ClarensServer(const ClarensServer&) = delete;
  ClarensServer& operator=(const ClarensServer&) = delete;

  void start();
  void stop();

  std::uint16_t port() const;
  std::string url() const;
  bool encrypted() const { return config_.use_tls; }

  /// Attach a discovery server: registers the discovery.* service
  /// methods backed by it. Must outlive this server.
  void attach_discovery(discovery::DiscoveryServer& discovery);

  /// Attach an SRM storage manager: registers the srm.* methods and maps
  /// the manager's disk cache as the "/srmcache" virtual file root so
  /// staged files are readable via file.read / HTTP GET. Must outlive
  /// this server.
  void attach_storage(storage::SrmService& srm);

  // Component access (embedding, tests, examples).
  rpc::Registry& registry() { return registry_; }
  SessionManager& sessions() { return *sessions_; }
  VoManager& vo() { return *vo_; }
  AclManager& acl() { return *acl_; }
  FileService& files() { return *files_; }
  MessageService& messages() { return *messages_; }
  JobService& jobs() { return *jobs_; }
  TransferService& transfers() { return *transfers_; }
  ShellService& shell() { return *shell_; }
  ProxyService& proxy() { return *proxy_; }
  db::Store& store() { return *store_; }
  const ClarensConfig& config() const { return config_; }
  NodeRole role() const { return config_.node_role; }
  /// Head-side placement router; null on standalone/storage roles and on
  /// heads with no discovery attached.
  federation::Router* router() { return router_.get(); }
  /// Head-side layout table / repair engine; null unless this is a head
  /// with discovery attached.
  federation::LayoutTable* layouts() { return layouts_.get(); }
  federation::Replicator* replicator() { return replicator_.get(); }

  std::uint64_t requests_served() const {
    return http_ ? http_->requests_served() : 0;
  }

  /// Requests dispatched inline on the reactor (adaptive dispatch).
  std::uint64_t requests_inlined() const {
    return http_ ? http_->requests_inlined() : 0;
  }

  /// Unix time start() completed; 0 before the first start().
  std::int64_t started_at() const { return started_at_; }

  /// Test/bench backdoor: mint a session without the wire handshake.
  Session direct_login(const std::string& identity_dn);

 private:
  http::Response handle(const http::Request& request, const http::Peer& peer);
  http::Response handle_rpc(const http::Request& request,
                            const http::Peer& peer);
  http::Response handle_get(const http::Request& request,
                            const http::Peer& peer);
  http::Response serve_portal(const std::string& path) const;
  void register_core_methods();
  void start_publisher();

  /// The paper's two per-request checks. Both are served from the
  /// session / compiled-ACL caches when warm — no store access.
  std::shared_ptr<const Session> check_session(
      const std::string& session_id) const;
  void check_acl(const std::string& method,
                 const pki::DistinguishedName& dn) const;
  /// Verify a presented node ticket against the cluster secret. Throws
  /// AuthError on a bad/expired token or when this server takes none.
  federation::NodeTicket check_node_ticket(const std::string& token) const;
  /// Storage role: after a ticket-authorized write/append lands, report
  /// the resulting checksum to the head (replica.committed), again when
  /// another write of the path reported meanwhile (CommitReports). Best
  /// effort — the head's fsck scrub covers a lost notification.
  void notify_commit(const rpc::CallContext& context, const std::string& path);

  ClarensConfig config_;
  const crypto::HmacSha256 ticket_key_;  // config_.node_ticket_secret, keyed once
  std::unique_ptr<db::Store> store_;
  rpc::Registry registry_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<VoManager> vo_;
  std::unique_ptr<AclManager> acl_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<MessageService> messages_;
  std::unique_ptr<JobService> jobs_;
  std::unique_ptr<TransferService> transfers_;
  std::unique_ptr<ShellService> shell_;
  std::unique_ptr<ProxyService> proxy_;
  /// Runs job and transfer steps. Declared after every service a step
  /// uses, so its destruction joins the running steps before they go.
  std::unique_ptr<task::Engine> tasks_;
  std::unique_ptr<http::Server> http_;
  std::unique_ptr<discovery::Publisher> publisher_;
  std::unique_ptr<federation::Router> router_;
  std::unique_ptr<federation::LayoutTable> layouts_;
  std::unique_ptr<federation::Replicator> replicator_;
  /// Storage role: keep-alive peer pool for commit notifications to the
  /// head and for file.pull fetches from other storage nodes.
  std::unique_ptr<client::PeerPool> peers_;
  /// Storage role: orders the commit reports of concurrent writers.
  CommitReports commit_reports_;
  discovery::DiscoveryServer* discovery_ = nullptr;
  storage::SrmService* srm_ = nullptr;

  // Lazy housekeeping: a reaper thread sweeps expired sessions so the
  // session table stays bounded even when clients never log out.
  util::Thread reaper_;
  util::Mutex reaper_mutex_{util::LockLevel::kCoreServerReaper};
  util::CondVar reaper_stop_;
  bool reaper_stopping_ CLARENS_GUARDED_BY(reaper_mutex_) = false;
  std::int64_t started_at_ = 0;
};

}  // namespace clarens::core
