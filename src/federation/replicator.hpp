// Background repair engine: the head-side daemon that makes the layout
// table true (ISSUE 10 tentpole).
//
// The write path only ever lands bytes on ONE storage node (the client
// is redirected to the primary owner and writes there directly). The
// Replicator is what turns that single copy into `replica_count` copies,
// and what puts the cluster back together after a node dies or a disk
// silently flips a bit:
//
//   * note_write/note_commit/note_remove feed it layout events from the
//     head's method bindings; each enqueues work on an internal queue.
//   * A single worker thread drains the queue through the Router's
//     keep-alive peer pools. A copy is one file.pull on the target node,
//     which fetches the bytes from a healthy replica itself and verifies
//     the layout checksum before the replica is marked healthy; no file
//     byte passes through the head. Failures retry on the
//     client::RetryPolicy schedule (capped exponential backoff + jitter);
//     after retry.max_attempts the task is parked (the periodic
//     under-replication sweep and the fsck scrub pick it up again).
//   * A membership tick watches Router::storage_nodes(): a node gone for
//     longer than the grace period has its replicas marked missing and
//     every affected file re-replicated elsewhere; a (re)joining node
//     triggers an under-replication sweep.
//   * fsck() is the scrub: stream-checksum every replica of every layout
//     (file.checksum on the storage nodes), mark mismatches stale,
//     missing files missing, and repair from a healthy copy. With
//     fsck_interval_ms > 0 the worker runs it periodically.
//   * report_failure()/pick_read_node() close the read loop: a client
//     that could not reach a redirect target reports the node, the head
//     marks it suspect for suspect_ttl_ms, and subsequent reads route to
//     a healthy replica immediately — no failed client reads while
//     discovery catches up with a dead node.
//
// Locking: the rank-20 federation.replicator mutex guards ONLY queue,
// liveness, suspect and stats state. It is never held across a peer
// call, a layout-table access, or any Router method (the router's own
// mutex shares rank 20 — holding both would be a sideways acquisition
// and the rank checker aborts).
//
// Repair authority: copies are made with node tickets minted for the
// layout's recorded writer identity, so the repair engine never holds
// more authority than the write that created the data.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/routed.hpp"
#include "federation/layout.hpp"
#include "federation/router.hpp"
#include "rpc/value.hpp"
#include "util/sync.hpp"

namespace clarens::federation {

struct ReplicatorOptions {
  /// Default replica_count stamped on new layouts (placement_replicas).
  int replicas = 1;
  /// Retry schedule of queued work: max_attempts per task before it is
  /// parked; the first delay doubles up to max_ms, with +-25% jitter so a
  /// cluster-wide event does not retry in lockstep.
  client::RetryPolicy retry;
  /// How long a node must be absent from the ring before its replicas
  /// are declared missing and re-replication starts.
  int node_grace_ms = 5000;
  /// How long a client-reported unreachable node is skipped for reads.
  int suspect_ttl_ms = 3000;
  /// Membership/liveness poll cadence of the worker thread.
  int tick_ms = 250;
  /// Cadence of the catch-all under-replication sweep (re-queues parked
  /// work).
  int rescan_ms = 5000;
  /// Periodic fsck scrub cadence; 0 = scrub only on demand.
  int fsck_interval_ms = 0;
};

/// Identity a layout event was performed under (from the RPC context).
struct WriterIdentity {
  std::string dn;
  bool via_proxy = false;
  std::string proxy_serial;
};

/// One fsck pass, summarized (the replica.fsck result).
struct FsckReport {
  std::int64_t files = 0;             ///< layouts examined
  std::int64_t replicas_checked = 0;  ///< remote checksums computed
  std::int64_t mismatched = 0;        ///< replicas marked stale
  std::int64_t missing = 0;           ///< replicas found absent
  std::int64_t unreachable = 0;       ///< nodes that did not answer
  std::int64_t repaired = 0;          ///< replica copies restored
  std::int64_t failed = 0;            ///< files whose repair did not finish
  std::int64_t under_replicated = 0;  ///< files still below target after
};

struct ReplicatorStats {
  std::uint64_t enqueued = 0;
  std::uint64_t completed = 0;
  std::uint64_t retried = 0;
  std::uint64_t parked = 0;
  std::uint64_t copies = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t commits = 0;
  std::uint64_t fsck_runs = 0;
  std::uint64_t read_failures_reported = 0;
  std::size_t queue_depth = 0;
  std::size_t suspects = 0;
  std::size_t draining = 0;
};

class Replicator {
 public:
  Replicator(Router& router, LayoutTable& layouts, ReplicatorOptions options);
  /// Joins the worker; safe when start() was never called.
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  void start();
  void stop();

  /// A write/append redirect for `path` was minted toward `primary_id`:
  /// the layout's checksum is unknown until the commit notification (or
  /// a poll) lands, and every other replica is presumed stale.
  void note_write(const std::string& path, const std::string& primary_id,
                  const WriterIdentity& who);

  /// A storage node reported a completed write (replica.committed):
  /// `checksum`/`size` become the confirmed layout truth.
  void note_commit(const std::string& path, const std::string& node_id,
                   const std::string& checksum, std::int64_t size,
                   const WriterIdentity& who);

  /// A remove redirect was minted: purge the remaining replicas and the
  /// layout row (covers every layout under `path` when it is a tree).
  void note_remove(const std::string& path);

  /// A client failed to reach `node_url` on a redirected read; skip the
  /// node for reads until the suspect TTL lapses.
  void report_failure(const std::string& node_url);
  bool is_suspect(const NodeInfo& node) const;

  /// Best node to serve a read of `path`: healthy layout replicas first
  /// (live, non-suspect, non-draining), then ring owners; nullopt when
  /// nothing qualifies (caller serves locally).
  std::optional<NodeInfo> pick_read_node(const std::string& path);

  /// Synchronous repair of one file (replica.repair). A file with no
  /// layout is adopted: storage nodes are probed for the bytes and the
  /// first copy found becomes the adopted truth.
  bool repair_file(const std::string& path, const WriterIdentity& who,
                   std::string* error);

  /// Move every replica off `node_id` (replica.drain): the node stops
  /// being a placement target for managed files and its copies are
  /// purged once re-replicated. Returns the number of files enqueued.
  std::size_t drain(const std::string& node_id);

  /// Scrub every layout under `prefix` ("" = all): verify checksums,
  /// mark divergence, repair from a healthy copy.
  FsckReport fsck(const std::string& prefix);

  ReplicatorStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Task {
    enum class Kind { Replicate, Purge } kind = Kind::Replicate;
    std::string path;
    int attempt = 0;
    Clock::time_point not_before{};
  };

  void run_worker();
  void execute(Task task);
  void tick();
  void on_node_lost(const std::string& node_id);
  void enqueue_under_replicated();
  void enqueue(Task::Kind kind, const std::string& path, int delay_ms);

  /// Bring `path` up to its layout's replica target. `copies_out`, when
  /// non-null, accumulates the number of replica copies made.
  bool run_replicate(const std::string& path, int* copies_out,
                     std::string* error_out);
  bool run_purge(const std::string& path, std::string* error_out);
  bool copy_replica(const FileLayout& layout, const NodeInfo& source,
                    const NodeInfo& target, std::string* error_out);
  bool adopt_checksum(const std::string& path, FileLayout& layout,
                      const std::vector<NodeInfo>& live);

  /// Ring owners for `path` honoring its layout target and skipping
  /// draining nodes.
  std::vector<NodeInfo> desired_owners(const std::string& path, int want);

  rpc::Value call_node(const NodeInfo& node, const std::string& method,
                       std::vector<rpc::Value> params, const FileLayout& layout,
                       bool write);

  void expire_suspects_locked(Clock::time_point now) CLARENS_REQUIRES(mutex_);

  Router& router_;
  LayoutTable& layouts_;
  ReplicatorOptions options_;

  mutable util::Mutex mutex_{util::LockLevel::kFederationReplicator};
  util::CondVar cv_;
  bool started_ CLARENS_GUARDED_BY(mutex_) = false;
  bool stopping_ CLARENS_GUARDED_BY(mutex_) = false;
  std::deque<Task> queue_ CLARENS_GUARDED_BY(mutex_);
  std::map<std::string, Clock::time_point> last_seen_ CLARENS_GUARDED_BY(
      mutex_);
  std::set<std::string> gone_ CLARENS_GUARDED_BY(mutex_);
  std::map<std::string, Clock::time_point> suspects_ CLARENS_GUARDED_BY(
      mutex_);
  std::set<std::string> draining_ CLARENS_GUARDED_BY(mutex_);
  bool seeded_membership_ CLARENS_GUARDED_BY(mutex_) = false;
  std::uint64_t jitter_state_ CLARENS_GUARDED_BY(mutex_);
  ReplicatorStats stats_ CLARENS_GUARDED_BY(mutex_);

  util::Thread worker_;
};

}  // namespace clarens::federation
