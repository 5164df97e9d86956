// The lock hierarchy — SINGLE SOURCE OF TRUTH.
//
// Every util::Mutex / util::SharedMutex in the tree names one of these
// levels at construction. A thread holding a lock at rank N may only
// acquire locks of rank strictly greater than N ("outer locks have lower
// ranks; acquisition only goes downward"); same-rank acquisition requires
// an explicit util::SameRankToken at the call site. Three consumers read
// this table, so it can never drift:
//
//   * src/util/sync.hpp — the runtime deadlock detector
//     (CLARENS_LOCK_RANK_CHECK) aborts on upward/sideways acquisition;
//   * tools/lint/lint.cpp — lock-order / lock-cycle / undeclared-mutex
//     rules validate declared edges and the global lock graph;
//   * docs/CONCURRENCY.md — the human-readable table between the
//     CLARENS_LOCK_TABLE markers is generated from this list
//     (`clarens_lint --lock-table`) and drift-checked by the
//     `lock_doc_drift` ctest.
//
// To add a level: pick the rank from the nesting it needs (what will be
// held when it is acquired? what does it acquire while held?), add an
// X() row below, and run `clarens_lint --print-lock-doc` to refresh the
// docs table (the drift test tells you when you forget).
#pragma once

// X(enumerator, level-name, rank, what-it-guards)
// Keep the list sorted by rank, then by name, so the generated doc table
// reads top-down from outermost to innermost.
#define CLARENS_LOCK_LEVEL_LIST(X)                                            \
  X(kCoreServerReaper, "core.server.reaper", 10,                              \
    "session-reaper wakeup flag")                                             \
  X(kRpcRegistry, "rpc.registry", 15,                                         \
    "method-binding table (read for lookup, released before the handler "    \
    "runs)")                                                                  \
  X(kBaselineHeavygrid, "baseline.heavygrid", 20,                             \
    "HeavyGrid per-connection thread table")                                  \
  X(kCoreAclShard, "core.acl.shard", 20, "compiled method-ACL cache shard")   \
  X(kCoreMessage, "core.message", 20, "mailbox table")                        \
  X(kCoreShell, "core.shell", 20, "shell session table")                      \
  X(kCoreVoRootCache, "core.vo.root_cache", 20,                               \
    "compiled root-admins cache (nests under core.vo.write via "             \
    "SameRankToken)")                                                         \
  X(kCoreVoWrite, "core.vo.write", 20,                                        \
    "VO group read-modify-write serialization")                               \
  X(kFederationReplicator, "federation.replicator", 20,                       \
    "repair queue, node liveness and suspect tables (released before any "    \
    "peer call)")                                                             \
  X(kFederationRouter, "federation.router", 20,                               \
    "placement ring + refresh stopwatch")                                     \
  X(kTaskEngine, "task.engine", 20,                                           \
    "task records + queued steps (jobs, transfers, SRM staging)")            \
  X(kFederationLayout, "federation.layout", 22,                               \
    "layout-table read-modify-write serialization (nests over db.store)")     \
  X(kDiscoveryPublisher, "discovery.publisher", 25,                           \
    "published service-record list")                                          \
  X(kDiscoveryServerCache, "discovery.server.cache", 25,                      \
    "aggregated discovery query cache")                                       \
  X(kDiscoveryStation, "discovery.station", 25,                               \
    "station record + subscriber tables")                                     \
  X(kClientPeerPool, "client.peer_pool", 30,                                  \
    "per-node idle-client map (leaf; no calls held)")                         \
  X(kCoreSessionShard, "core.session.shard", 30, "one session-cache shard")   \
  X(kDbStoreShard, "db.store.shard", 40,                                      \
    "one store memtable shard (SharedMutex)")                                 \
  X(kStorageMass, "storage.mass", 40, "disk-cache bookkeeping (leaf)")        \
  X(kDbStoreJournal, "db.store.journal", 50,                                  \
    "store commit queue + group-commit seqs (innermost db lock)")             \
  X(kNetReactorTasks, "net.reactor.tasks", 70,                                \
    "reactor callback/task registry (queue flips only)")                      \
  X(kUtilThreadPool, "util.thread_pool", 75,                                  \
    "worker-pool task queue")                                                 \
  X(kUtilFault, "util.fault", 80,                                             \
    "fault-injection arm table (hooks fire under arbitrary outer locks)")     \
  X(kUtilLogging, "util.logging", 90,                                         \
    "log output serialization (innermost: loggable under any lock)")

namespace clarens::util {

/// One enumerator per level. Enumerator values are ordinals (not ranks):
/// several levels share a rank, and the detector needs to name each one
/// distinctly in its abort report.
enum class LockLevel : int {
#define CLARENS_LOCK_LEVEL_ENUM__(name, str, rank, doc) name,
  CLARENS_LOCK_LEVEL_LIST(CLARENS_LOCK_LEVEL_ENUM__)
#undef CLARENS_LOCK_LEVEL_ENUM__
      kCount
};

struct LockLevelInfo {
  LockLevel level;
  const char* name;  ///< dotted level name, e.g. "db.store.shard"
  int rank;          ///< outer < inner; equal ranks never nest untokened
  const char* doc;   ///< one-line "guards" column for the doc table
};

inline constexpr LockLevelInfo kLockLevels[] = {
#define CLARENS_LOCK_LEVEL_INFO__(name, str, rank, doc) \
  {LockLevel::name, str, rank, doc},
    CLARENS_LOCK_LEVEL_LIST(CLARENS_LOCK_LEVEL_INFO__)
#undef CLARENS_LOCK_LEVEL_INFO__
};

inline constexpr int lock_level_rank(LockLevel level) {
  return kLockLevels[static_cast<int>(level)].rank;
}

inline constexpr const char* lock_level_name(LockLevel level) {
  return kLockLevels[static_cast<int>(level)].name;
}

}  // namespace clarens::util
