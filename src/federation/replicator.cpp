#include "federation/replicator.hpp"

#include <algorithm>

#include "rpc/fault.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace clarens::federation {

namespace {

std::chrono::milliseconds ms(int n) { return std::chrono::milliseconds(n); }

/// "/data/run1/evt.bin" -> "/data/run1"; "/evt.bin" -> "/". The ticket
/// scope for a copy: covers the file and the parent file.pull creates.
std::string parent_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0) return "/";
  return path.substr(0, slash);
}

const NodeInfo* live_by_id(const std::vector<NodeInfo>& live,
                           const std::string& id) {
  for (const NodeInfo& node : live) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

/// file.checksum reply -> (md5, size).
std::pair<std::string, std::int64_t> checksum_of(const rpc::Value& reply) {
  return {reply.at("md5").as_string(), reply.at("size").as_int()};
}

}  // namespace

Replicator::Replicator(Router& router, LayoutTable& layouts,
                       ReplicatorOptions options)
    : router_(router),
      layouts_(layouts),
      options_(options),
      jitter_state_(options.retry.seed) {}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  {
    util::LockGuard lock(mutex_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  worker_ = util::Thread([this] { run_worker(); });
}

void Replicator::stop() {
  {
    util::LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  util::LockGuard lock(mutex_);
  started_ = false;
}

// ---------------------------------------------------------------------------
// Event intake (head bindings; no locks held by callers).

void Replicator::note_write(const std::string& path,
                            const std::string& primary_id,
                            const WriterIdentity& who) {
  layouts_.update(path, [&](FileLayout& layout) {
    if (layout.replicas.empty()) layout.replica_count = options_.replicas;
    // The bytes about to land on the primary supersede every other copy;
    // until the commit notification arrives the content hash is unknown.
    layout.checksum.clear();
    layout.confirmed = false;
    layout.size = -1;
    layout.dn = who.dn;
    layout.via_proxy = who.via_proxy;
    layout.proxy_serial = who.proxy_serial;
    for (Replica& replica : layout.replicas) {
      if (replica.state == ReplicaState::Healthy) {
        replica.state = ReplicaState::Stale;
      }
    }
    layout.mark(primary_id, ReplicaState::Pending);
    // Primary first: fsck and checksum adoption treat replicas[0] as the
    // node whose bytes are the truth.
    auto it = std::find_if(
        layout.replicas.begin(), layout.replicas.end(),
        [&](const Replica& r) { return r.node_id == primary_id; });
    std::rotate(layout.replicas.begin(), it, it + 1);
    return true;
  });
  // Give the redirected client a beat to actually write before polling.
  enqueue(Task::Kind::Replicate, path, options_.retry.base_ms);
}

void Replicator::note_commit(const std::string& path,
                             const std::string& node_id,
                             const std::string& checksum, std::int64_t size,
                             const WriterIdentity& who) {
  layouts_.update(path, [&](FileLayout& layout) {
    if (layout.replicas.empty()) {
      // Direct ticketed write we never saw a redirect for: adopt it.
      layout.replica_count = options_.replicas;
      layout.dn = who.dn;
      layout.via_proxy = who.via_proxy;
      layout.proxy_serial = who.proxy_serial;
    }
    bool changed = layout.checksum != checksum;
    layout.checksum = checksum;
    layout.confirmed = true;
    layout.size = size;
    if (changed) {
      for (Replica& replica : layout.replicas) {
        if (replica.state == ReplicaState::Healthy) {
          replica.state = ReplicaState::Stale;
        }
      }
    }
    layout.mark(node_id, ReplicaState::Healthy);
    auto it = std::find_if(
        layout.replicas.begin(), layout.replicas.end(),
        [&](const Replica& r) { return r.node_id == node_id; });
    std::rotate(layout.replicas.begin(), it, it + 1);
    return true;
  });
  {
    util::LockGuard lock(mutex_);
    ++stats_.commits;
  }
  enqueue(Task::Kind::Replicate, path, 0);
}

void Replicator::note_remove(const std::string& path) {
  // A tree remove takes every layout underneath with it; prefix-scan and
  // filter on the component boundary so "/data/run1" does not purge
  // "/data/run10".
  for (const std::string& managed : layouts_.paths(path)) {
    if (managed != path &&
        (managed.size() <= path.size() || managed[path.size()] != '/')) {
      continue;
    }
    enqueue(Task::Kind::Purge, managed, 0);
  }
}

void Replicator::report_failure(const std::string& node_url) {
  // Resolve the URL to a node id OUTSIDE the replicator lock (the
  // router's mutex shares rank 20).
  std::string node_id;
  for (const NodeInfo& node : router_.storage_nodes()) {
    if (node.url == node_url) {
      node_id = node.id;
      break;
    }
  }
  router_.invalidate();  // membership may have changed under us
  util::LockGuard lock(mutex_);
  Clock::time_point now = Clock::now();
  suspects_[node_url] = now;
  if (!node_id.empty()) suspects_[node_id] = now;
  ++stats_.read_failures_reported;
}

bool Replicator::is_suspect(const NodeInfo& node) const {
  util::LockGuard lock(mutex_);
  Clock::time_point now = Clock::now();
  const_cast<Replicator*>(this)->expire_suspects_locked(now);
  return suspects_.count(node.id) > 0 || suspects_.count(node.url) > 0;
}

std::optional<NodeInfo> Replicator::pick_read_node(const std::string& path) {
  std::optional<FileLayout> layout = layouts_.get(path);
  std::vector<NodeInfo> live = router_.storage_nodes();
  if (live.empty()) return std::nullopt;
  int want = layout ? std::max(1, layout->replica_count) : options_.replicas;

  std::vector<NodeInfo> candidates;
  auto add = [&](const NodeInfo& node) {
    for (const NodeInfo& have : candidates) {
      if (have.id == node.id) return;
    }
    candidates.push_back(node);
  };
  if (layout) {
    for (const Replica& replica : layout->replicas) {
      if (replica.state != ReplicaState::Healthy) continue;
      if (const NodeInfo* node = live_by_id(live, replica.node_id)) {
        add(*node);
      }
    }
  }
  // Ring owners cover unmanaged files and layouts whose replication has
  // not caught up yet (the primary owner holds the only copy).
  for (const NodeInfo& node : router_.route_owners(path, want)) add(node);
  if (candidates.empty()) return std::nullopt;

  util::LockGuard lock(mutex_);
  expire_suspects_locked(Clock::now());
  for (const NodeInfo& node : candidates) {
    if (suspects_.count(node.id) || suspects_.count(node.url)) continue;
    if (draining_.count(node.id)) continue;
    return node;
  }
  // Everything is suspect; better a likely-dead redirect (the client
  // retries through us) than refusing outright.
  return candidates.front();
}

std::size_t Replicator::drain(const std::string& node_id) {
  {
    util::LockGuard lock(mutex_);
    draining_.insert(node_id);
    stats_.draining = draining_.size();
  }
  std::size_t enqueued = 0;
  for (const std::string& path : layouts_.paths("")) {
    std::optional<FileLayout> layout = layouts_.get(path);
    if (layout && layout->find(node_id)) {
      enqueue(Task::Kind::Replicate, path, 0);
      ++enqueued;
    }
  }
  return enqueued;
}

bool Replicator::repair_file(const std::string& path, const WriterIdentity& who,
                             std::string* error) {
  if (!layouts_.get(path)) {
    // Adopt an unmanaged file: probe ring owners first (most likely to
    // hold the bytes), then every other storage node.
    std::vector<NodeInfo> probe =
        router_.route_owners(path, std::max(1, options_.replicas));
    for (const NodeInfo& node : router_.storage_nodes()) {
      if (!live_by_id(probe, node.id)) probe.push_back(node);
    }
    FileLayout seed;
    seed.path = path;
    seed.dn = who.dn;
    seed.via_proxy = who.via_proxy;
    seed.proxy_serial = who.proxy_serial;
    bool adopted = false;
    for (const NodeInfo& node : probe) {
      try {
        auto [sum, size] =
            checksum_of(call_node(node, "file.checksum", {rpc::Value(path)},
                                  seed, /*write=*/false));
        layouts_.update(path, [&](FileLayout& layout) {
          if (!layout.checksum.empty()) return false;  // raced a writer
          layout.replica_count = options_.replicas;
          layout.checksum = sum;
          layout.confirmed = false;
          layout.size = size;
          layout.dn = who.dn;
          layout.via_proxy = who.via_proxy;
          layout.proxy_serial = who.proxy_serial;
          layout.mark(node.id, ReplicaState::Healthy);
          return true;
        });
        adopted = true;
        break;
      } catch (const std::exception&) {
        continue;  // absent here or unreachable: try the next node
      }
    }
    if (!adopted) {
      if (error) *error = "no storage node holds " + path;
      return false;
    }
  }
  return run_replicate(path, nullptr, error);
}

ReplicatorStats Replicator::stats() const {
  util::LockGuard lock(mutex_);
  ReplicatorStats out = stats_;
  out.queue_depth = queue_.size();
  out.suspects = suspects_.size();
  out.draining = draining_.size();
  return out;
}

// ---------------------------------------------------------------------------
// Worker.

void Replicator::enqueue(Task::Kind kind, const std::string& path,
                         int delay_ms) {
  Clock::time_point at = Clock::now() + ms(delay_ms);
  {
    util::LockGuard lock(mutex_);
    for (Task& task : queue_) {
      if (task.kind == kind && task.path == path) {
        // Collapse onto the queued task; a fresh event outranks any
        // backoff it accumulated.
        task.not_before = std::min(task.not_before, at);
        task.attempt = 0;
        cv_.notify_one();
        return;
      }
    }
    queue_.push_back({kind, path, 0, at});
    ++stats_.enqueued;
  }
  cv_.notify_one();
}

void Replicator::run_worker() {
  Clock::time_point next_tick = Clock::now();
  Clock::time_point next_rescan = Clock::now() + ms(options_.rescan_ms);
  Clock::time_point next_fsck = Clock::now() + ms(options_.fsck_interval_ms);
  for (;;) {
    Task task;
    bool have_task = false;
    bool do_tick = false;
    {
      util::UniqueLock lock(mutex_);
      while (!stopping_) {
        Clock::time_point now = Clock::now();
        if (now >= next_tick) {
          do_tick = true;
          break;
        }
        std::size_t due = queue_.size();
        Clock::time_point earliest = next_tick;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          if (due == queue_.size() && queue_[i].not_before <= now) due = i;
          earliest = std::min(earliest, queue_[i].not_before);
        }
        if (due < queue_.size()) {
          task = std::move(queue_[due]);
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(due));
          have_task = true;
          break;
        }
        cv_.wait_until(lock, earliest);
      }
      if (stopping_) return;
    }
    if (do_tick) {
      next_tick = Clock::now() + ms(options_.tick_ms);
      tick();
      Clock::time_point now = Clock::now();
      if (now >= next_rescan) {
        next_rescan = now + ms(options_.rescan_ms);
        enqueue_under_replicated();
      }
      if (options_.fsck_interval_ms > 0 && now >= next_fsck) {
        next_fsck = now + ms(options_.fsck_interval_ms);
        fsck("");
      }
    } else if (have_task) {
      execute(std::move(task));
    }
  }
}

void Replicator::execute(Task task) {
  bool ok = false;
  std::string error;
  try {
    ok = task.kind == Task::Kind::Replicate
             ? run_replicate(task.path, nullptr, &error)
             : run_purge(task.path, &error);
  } catch (const std::exception& e) {
    error = e.what();
  }
  util::LockGuard lock(mutex_);
  if (ok) {
    ++stats_.completed;
    return;
  }
  if (++task.attempt >= options_.retry.max_attempts) {
    ++stats_.parked;
    CLARENS_LOG(Warn) << "replicator: parking " << task.path << " after "
                      << task.attempt << " attempts: " << error;
    return;
  }
  ++stats_.retried;
  task.not_before =
      Clock::now() + ms(options_.retry.delay_ms(task.attempt, jitter_state_));
  // Re-insert through the same dedup as enqueue(): a fresh event for the
  // path may already be queued.
  for (Task& queued : queue_) {
    if (queued.kind == task.kind && queued.path == task.path) return;
  }
  queue_.push_back(std::move(task));
}

void Replicator::expire_suspects_locked(Clock::time_point now) {
  for (auto it = suspects_.begin(); it != suspects_.end();) {
    if (now - it->second >= ms(options_.suspect_ttl_ms)) {
      it = suspects_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.suspects = suspects_.size();
}

void Replicator::tick() {
  std::vector<NodeInfo> live = router_.storage_nodes();
  std::vector<std::string> lost;
  bool rejoined = false;
  {
    util::LockGuard lock(mutex_);
    Clock::time_point now = Clock::now();
    for (const NodeInfo& node : live) {
      auto seen = last_seen_.find(node.id);
      if (seen == last_seen_.end()) {
        // New node: worth a sweep, except on the very first tick (the
        // whole cluster is "new" then).
        rejoined = rejoined || seeded_membership_;
      } else if (gone_.erase(node.id) > 0) {
        rejoined = true;
      }
      last_seen_[node.id] = now;
    }
    for (const auto& [id, seen] : last_seen_) {
      if (live_by_id(live, id)) continue;
      if (gone_.count(id)) continue;
      if (now - seen >= ms(options_.node_grace_ms)) {
        gone_.insert(id);
        lost.push_back(id);
      }
    }
    expire_suspects_locked(now);
    seeded_membership_ = true;
  }
  for (const std::string& id : lost) {
    CLARENS_LOG(Warn) << "replicator: node " << id
                      << " gone past grace period; re-replicating";
    on_node_lost(id);
  }
  if (rejoined) enqueue_under_replicated();
}

void Replicator::on_node_lost(const std::string& node_id) {
  for (const std::string& path : layouts_.paths("")) {
    bool affected = false;
    layouts_.update(path, [&](FileLayout& layout) {
      Replica* replica = layout.find(node_id);
      if (!replica || replica->state == ReplicaState::Missing) return false;
      replica->state = ReplicaState::Missing;
      affected = true;
      return true;
    });
    if (affected) enqueue(Task::Kind::Replicate, path, 0);
  }
}

void Replicator::enqueue_under_replicated() {
  for (const std::string& path : layouts_.paths("")) {
    std::optional<FileLayout> layout = layouts_.get(path);
    if (!layout) continue;
    int healthy = layout->count(ReplicaState::Healthy);
    bool draining_replica = false;
    {
      util::LockGuard lock(mutex_);
      for (const Replica& replica : layout->replicas) {
        draining_replica =
            draining_replica || draining_.count(replica.node_id) > 0;
      }
    }
    if (healthy < std::max(1, layout->replica_count) || draining_replica) {
      enqueue(Task::Kind::Replicate, path, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Repair primitives. None of these hold mutex_ while talking to peers.

rpc::Value Replicator::call_node(const NodeInfo& node,
                                 const std::string& method,
                                 std::vector<rpc::Value> params,
                                 const FileLayout& layout, bool write) {
  std::string ticket =
      router_.mint_ticket(layout.dn, layout.via_proxy, layout.proxy_serial,
                          parent_of(layout.path), write);
  return router_.call_on(node, method, params, ticket);
}

bool Replicator::adopt_checksum(const std::string& path, FileLayout& layout,
                                const std::vector<NodeInfo>& live) {
  // No commit notification yet: poll the replicas in layout order (the
  // primary first) and adopt the first copy we can actually hash.
  for (const Replica& replica : layout.replicas) {
    const NodeInfo* node = live_by_id(live, replica.node_id);
    if (!node) continue;
    try {
      auto [sum, size] = checksum_of(call_node(
          *node, "file.checksum", {rpc::Value(path)}, layout, false));
      layouts_.update(path, [&](FileLayout& current) {
        if (current.confirmed) return false;  // a commit raced us: keep it
        current.checksum = sum;
        current.confirmed = false;
        current.size = size;
        current.mark(node->id, ReplicaState::Healthy);
        return true;
      });
      if (std::optional<FileLayout> reloaded = layouts_.get(path)) {
        layout = *reloaded;
      }
      return true;
    } catch (const std::exception&) {
      continue;  // not written yet, or node unreachable: try the next
    }
  }
  return false;
}

std::vector<NodeInfo> Replicator::desired_owners(const std::string& path,
                                                 int want) {
  std::set<std::string> draining;
  {
    util::LockGuard lock(mutex_);
    draining = draining_;
  }
  // Ask for extra owners so skipping draining nodes still yields `want`.
  std::vector<NodeInfo> ring =
      router_.route_owners(path, want + static_cast<int>(draining.size()));
  std::vector<NodeInfo> owners;
  for (const NodeInfo& node : ring) {
    if (draining.count(node.id)) continue;
    owners.push_back(node);
    if (static_cast<int>(owners.size()) >= want) break;
  }
  return owners;
}

bool Replicator::run_replicate(const std::string& path, int* copies_out,
                               std::string* error_out) {
  std::optional<FileLayout> layout_opt = layouts_.get(path);
  if (!layout_opt) return true;  // removed since it was queued
  FileLayout layout = *layout_opt;
  std::vector<NodeInfo> live = router_.storage_nodes();

  if (layout.checksum.empty() && !adopt_checksum(path, layout, live)) {
    if (error_out) *error_out = "no replica holds readable bytes yet";
    return false;
  }

  int want = std::max(1, layout.replica_count);
  std::vector<NodeInfo> owners = desired_owners(path, want);
  if (owners.empty()) {
    if (error_out) *error_out = "no live storage nodes";
    return false;
  }

  auto pick_source = [&]() -> const NodeInfo* {
    for (const Replica& replica : layout.replicas) {
      if (replica.state != ReplicaState::Healthy) continue;
      if (const NodeInfo* node = live_by_id(live, replica.node_id)) {
        return node;
      }
    }
    return nullptr;
  };

  bool all_ok = true;
  int healthy_owners = 0;
  for (const NodeInfo& owner : owners) {
    const Replica* have = layout.find(owner.id);
    if (have && have->state == ReplicaState::Healthy) {
      ++healthy_owners;
      continue;
    }
    const NodeInfo* source = pick_source();
    if (!source) {
      if (error_out) *error_out = "no healthy source replica is live";
      all_ok = false;
      break;
    }
    std::string copy_error;
    if (copy_replica(layout, *source, owner, &copy_error)) {
      layouts_.update(path, [&](FileLayout& current) {
        if (current.checksum != layout.checksum) return false;  // superseded
        current.mark(owner.id, ReplicaState::Healthy);
        return true;
      });
      layout.mark(owner.id, ReplicaState::Healthy);
      ++healthy_owners;
      if (copies_out) ++*copies_out;
      util::LockGuard lock(mutex_);
      ++stats_.copies;
      if (layout.size > 0) {
        stats_.bytes_copied += static_cast<std::uint64_t>(layout.size);
      }
    } else {
      if (error_out) *error_out = copy_error;
      all_ok = false;
    }
  }

  bool replicated =
      all_ok && !owners.empty() &&
      healthy_owners >= std::min<int>(want, static_cast<int>(owners.size()));
  if (!replicated) return false;

  // Fully replicated: retire strays — copies on draining nodes (purge
  // the bytes too) and bookkeeping entries that never became real.
  std::set<std::string> draining;
  {
    util::LockGuard lock(mutex_);
    draining = draining_;
  }
  std::vector<std::string> purge;
  for (const Replica& replica : layout.replicas) {
    if (live_by_id(owners, replica.node_id)) continue;
    if (replica.state == ReplicaState::Healthy &&
        draining.count(replica.node_id) && live_by_id(live, replica.node_id)) {
      purge.push_back(replica.node_id);
    }
  }
  for (const std::string& node_id : purge) {
    if (const NodeInfo* node = live_by_id(live, node_id)) {
      try {
        call_node(*node, "file.rm", {rpc::Value(path)}, layout,
                  /*write=*/true);
      } catch (const std::exception&) {
        // Leave the entry; the next drain sweep retries the purge.
        continue;
      }
    }
    layouts_.update(path, [&](FileLayout& current) {
      auto it = std::remove_if(
          current.replicas.begin(), current.replicas.end(),
          [&](const Replica& r) { return r.node_id == node_id; });
      if (it == current.replicas.end()) return false;
      current.replicas.erase(it, current.replicas.end());
      return true;
    });
  }
  // Drop non-owner entries that hold no usable bytes (stale/missing
  // stragglers from old placements); keep extra healthy live copies —
  // they can serve reads and seed repairs.
  layouts_.update(path, [&](FileLayout& current) {
    auto it = std::remove_if(
        current.replicas.begin(), current.replicas.end(), [&](const Replica& r) {
          if (live_by_id(owners, r.node_id)) return false;
          if (r.state == ReplicaState::Healthy &&
              live_by_id(live, r.node_id) && !draining.count(r.node_id)) {
            return false;
          }
          return true;
        });
    if (it == current.replicas.end()) return false;
    current.replicas.erase(it, current.replicas.end());
    return true;
  });
  return true;
}

bool Replicator::copy_replica(const FileLayout& layout, const NodeInfo& source,
                              const NodeInfo& target, std::string* error_out) {
  // The target fetches the bytes from the source itself under a read
  // ticket for the same writer, and lands them only if they hash to the
  // layout truth.
  try {
    std::string source_ticket =
        router_.mint_ticket(layout.dn, layout.via_proxy, layout.proxy_serial,
                            parent_of(layout.path), /*write=*/false);
    call_node(target, "file.pull",
              {rpc::Value(source.url), rpc::Value(source_ticket),
               rpc::Value(layout.path), rpc::Value(layout.checksum)},
              layout, /*write=*/true);
    return true;
  } catch (const std::exception& e) {
    if (error_out) {
      *error_out = "copy to " + target.id + " failed: " + e.what();
    }
    return false;
  }
}

bool Replicator::run_purge(const std::string& path, std::string* error_out) {
  std::optional<FileLayout> layout = layouts_.get(path);
  if (!layout) return true;
  std::vector<NodeInfo> live = router_.storage_nodes();
  bool all_reached = true;
  for (const Replica& replica : layout->replicas) {
    const NodeInfo* node = live_by_id(live, replica.node_id);
    if (!node) continue;  // gone; nothing left to purge there
    try {
      call_node(*node, "file.rm", {rpc::Value(path)}, *layout, /*write=*/true);
    } catch (const rpc::Fault&) {
      // Already absent (the client's own redirected rm, most likely).
    } catch (const std::exception& e) {
      if (error_out) *error_out = "purge on " + node->id + ": " + e.what();
      all_reached = false;
    }
  }
  if (!all_reached) return false;
  layouts_.erase(path);
  return true;
}

// ---------------------------------------------------------------------------
// Scrub.

FsckReport Replicator::fsck(const std::string& prefix) {
  FsckReport report;
  for (const std::string& path : layouts_.paths(prefix)) {
    std::optional<FileLayout> layout_opt = layouts_.get(path);
    if (!layout_opt) continue;
    FileLayout layout = *layout_opt;
    ++report.files;
    std::vector<NodeInfo> live = router_.storage_nodes();

    // An adopted (unconfirmed) checksum is hearsay: the primary's
    // current bytes outrank it, so re-poll before judging anyone. (A
    // confirmed checksum came from the writing node itself and IS the
    // truth.) If the primary is unreachable the stored hash is the best
    // guess available; secondaries are still verified against it, but
    // the primary is never overwritten from them.
    if (!layout.confirmed && !layout.replicas.empty()) {
      const NodeInfo* primary = live_by_id(live, layout.replicas[0].node_id);
      if (primary) {
        try {
          auto [sum, size] = checksum_of(call_node(
              *primary, "file.checksum", {rpc::Value(path)}, layout, false));
          if (sum != layout.checksum) {
            layouts_.update(path, [&](FileLayout& current) {
              if (current.confirmed) return false;
              current.checksum = sum;
              current.size = size;
              for (Replica& replica : current.replicas) {
                if (replica.state == ReplicaState::Healthy) {
                  replica.state = ReplicaState::Stale;
                }
              }
              current.mark(primary->id, ReplicaState::Healthy);
              return true;
            });
            if (auto reloaded = layouts_.get(path)) layout = *reloaded;
          }
        } catch (const std::exception&) {
          // Leave the adopted hash in place.
        }
      }
    }

    // Verify every replica against the layout truth.
    for (const Replica& replica : layout.replicas) {
      const NodeInfo* node = live_by_id(live, replica.node_id);
      ReplicaState verdict = replica.state;
      if (!node) {
        verdict = ReplicaState::Missing;
        ++report.missing;
      } else {
        try {
          auto [sum, size] = checksum_of(call_node(
              *node, "file.checksum", {rpc::Value(path)}, layout, false));
          (void)size;
          ++report.replicas_checked;
          if (sum == layout.checksum) {
            verdict = ReplicaState::Healthy;
          } else {
            verdict = ReplicaState::Stale;
            ++report.mismatched;
          }
        } catch (const rpc::Fault&) {
          verdict = ReplicaState::Missing;
          ++report.missing;
        } catch (const std::exception&) {
          ++report.unreachable;
          continue;  // unknown, not condemned: keep the recorded state
        }
      }
      if (verdict != replica.state) {
        layouts_.update(path, [&](FileLayout& current) {
          if (current.checksum != layout.checksum) return false;  // raced
          current.mark(replica.node_id, verdict);
          return true;
        });
        layout.mark(replica.node_id, verdict);
      }
    }

    // Repair in place, from whichever replica is still healthy.
    int copies = 0;
    std::string error;
    if (!run_replicate(path, &copies, &error)) {
      ++report.failed;
      CLARENS_LOG(Warn) << "fsck: repair of " << path << " failed: " << error;
    }
    report.repaired += copies;
    if (std::optional<FileLayout> after = layouts_.get(path)) {
      if (after->count(ReplicaState::Healthy) <
          std::max(1, after->replica_count)) {
        ++report.under_replicated;
      }
    }
  }
  util::LockGuard lock(mutex_);
  ++stats_.fsck_runs;
  return report;
}

}  // namespace clarens::federation
