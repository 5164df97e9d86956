// Shared pieces of the repository benchmark: options, seeded inputs,
// latency statistics, process/host probes, client-side spans, and the
// per-run result every workload fills in.
//
// Nothing here reaches into the servers: workloads call the libraries'
// public functions and time them from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seconds-long run over small inputs with every output check on.
  bool smoke = false;
  /// Scratch directory for server state and generated files.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
  /// Rounds of set-up, measured window(s) and tear-down; setup_s is the
  /// median of their set-up times.
  int rounds = 1;
};

// ---------------------------------------------------------------------------
// Seeded inputs.

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t hash_str(const std::string& s, std::uint64_t h = 0) {
  h ^= 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return mix64(h);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_++); }
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Fill `out` with the seeded byte stream `key` at stream offset
/// `offset`: byte i of the stream is byte (i % 8) of mix64(key ^ (i / 8)),
/// so any range can be produced or checked without the rest.
void fill_pattern(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t length);
/// Index of the first byte in `data` that differs from the pattern, or
/// `length` when all match.
std::size_t check_pattern(std::uint64_t key, std::uint64_t offset,
                          const std::uint8_t* data, std::size_t length);

// ---------------------------------------------------------------------------
// Time, latency statistics, process and host probes.

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values);

struct Percentile {
  double value = 0;
  std::uint64_t beyond = 0;  ///< samples above the percentile's rank
};

/// Latency histogram of fixed size: 256 linear 1 ns buckets, then 256
/// buckets per power of two (under 0.4% relative width), so the
/// benchmark's own memory does not grow with the op count.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void add_ns(std::int64_t ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile q in [0, 1], in microseconds, interpolated
  /// inside its bucket.
  Percentile percentile(double q) const;

 private:
  static constexpr int kSub = 256;
  static constexpr std::size_t kBuckets = 57 * kSub;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();
/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();
/// Return freed heap to the OS and restart the VmHWM peak from the
/// current RSS, so neither input generation nor an earlier round sets the
/// peak of the next round.
void reset_peak_rss();

/// /proc/stat aggregate CPU tick counters.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();

/// One timed window: wall time, process CPU and host steal from begin()
/// to end().
class Window {
 public:
  void begin();
  void end();
  double seconds() const { return wall_; }
  double cpu_seconds() const { return cpu_; }
  std::uint64_t steal_ticks() const { return ticks1_.steal - ticks0_.steal; }
  std::uint64_t total_ticks() const { return ticks1_.total - ticks0_.total; }

 private:
  std::int64_t t0_ = 0;
  double cpu0_ = 0;
  HostTicks ticks0_, ticks1_;
  double wall_ = 0;
  double cpu_ = 0;
};

// ---------------------------------------------------------------------------
// Client-side spans (traced run only).

struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  std::int32_t parent = -1;  ///< index into the same log, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one caller thread; kept in memory until the run ends. Past
/// kMaxSpans new spans are dropped (index -1), so memory stays bounded on
/// fast workloads; the replays they would have timed still run.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 500000;

  explicit SpanLog(int thread) : thread_(thread) {}
  int begin(const char* name, int parent, std::uint64_t op) {
    // Roots stop early so the last op kept has room for all its children.
    if (spans_.size() >= (parent < 0 ? kMaxSpans - 64 : kMaxSpans)) return -1;
    spans_.push_back({name, op, parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const { return spans_; }
  int thread() const { return thread_; }

 private:
  int thread_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent, std::uint64_t op)
      : log_(log), index_(log ? log->begin(name, parent, op) : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void close() {
    if (log_ && !closed_) log_->end(index_);
    closed_ = true;
  }
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
  bool closed_ = false;
};

/// Time one replayed layer call as a child of `parent`.
template <typename F>
auto replay(SpanLog* log, const char* name, int parent, std::uint64_t op,
            F&& fn) {
  SpanScope span(log, name, parent, op);
  return fn();
}

// ---------------------------------------------------------------------------
// Results.

/// Per-op latency samples and op counts of one timed window.
struct OpLog {
  Histogram latency;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;
  std::map<std::string, std::uint64_t> failures;  ///< reason -> count

  void fail(const std::string& reason) {
    ++failed;
    ++failures[reason];
  }
  void merge(const OpLog& other);
};

/// A per-layer number with the base it was computed from.
struct LayerMetric {
  double value = 0;
  std::string unit;
  std::string note;  ///< base of a ratio, or why it is 0 on this workload
};

/// A run is `Options::rounds` rounds of set-up, one measured window
/// and tear-down; the windows are pooled. Restarting re-creates every
/// server thread, so one unlucky thread placement cannot decide a run.
struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;
  OpLog ops;  ///< the measured (untraced) windows, pooled
  double window_s = 0;
  double cpu_s = 0;
  std::uint64_t steal_ticks = 0;
  std::uint64_t total_ticks = 0;
  std::vector<double> setup_s;  ///< one entry per round
  /// Whether ops deliver file payload bytes, reported as goodput_gbps.
  bool reports_goodput = false;
  /// Per-round end-to-end values (name -> one value per window), printed
  /// so a reader can see how much rounds differ.
  std::map<std::string, std::vector<double>> rounds;

  // Traced run only.
  double traced_window_s = 0;
  std::uint64_t traced_ops = 0;
  std::vector<SpanLog> spans;
  std::map<std::string, LayerMetric> layers;  ///< counters and ratios

  void problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void add_window(const Window& window, const OpLog& window_ops) {
    ops.merge(window_ops);
    window_s += window.seconds();
    cpu_s += window.cpu_seconds();
    steal_ticks += window.steal_ticks();
    total_ticks += window.total_ticks();
    add_round(window, window_ops);
  }
  void add_round(const Window& window, const OpLog& window_ops);
  /// Bracket one round, set-up through tear-down: peak_rss_mb is the
  /// median of the rounds' peaks.
  void begin_round() const { reset_peak_rss(); }
  void end_round() { rounds["peak_rss_mb"].push_back(peak_rss_mb()); }
  void add_traced(const Window& window, const OpLog& window_ops) {
    traced_window_s += window.seconds();
    traced_ops += window_ops.attempted - window_ops.failed;
    for (const auto& [reason, count] : window_ops.failures) {
      problem("traced op failed " + std::to_string(count) + "x: " + reason);
    }
  }
  double steal_pct() const {
    return total_ticks ? 100.0 * static_cast<double>(steal_ticks) /
                             static_cast<double>(total_ticks)
                       : 0.0;
  }
  /// Length of one untraced (and, traced, one traced) window.
  static double window_seconds(const Options& options) {
    return options.seconds / options.rounds / (options.trace ? 2 : 1);
  }
};

using WorkloadFn = std::function<void(const Options&, RunResult&)>;

void run_fig4(const Options& options, RunResult& result);
void run_fed_files(const Options& options, RunResult& result);
void run_bulk_get(const Options& options, RunResult& result);
void run_portal_login(const Options& options, RunResult& result);

/// What one op did: an empty failure on success, else the reason; and the
/// payload bytes it delivered (counted for successful ops only).
struct OpOutcome {
  OpOutcome() = default;
  OpOutcome(std::string why) : failure(std::move(why)) {}  // NOLINT
  OpOutcome(const char* why) : failure(why) {}             // NOLINT
  static OpOutcome delivered(std::uint64_t n) {
    OpOutcome ok;
    ok.bytes = n;
    return ok;
  }
  std::string failure;
  std::uint64_t bytes = 0;
};

/// Closed-loop callers: `callers` threads each call
/// `op(caller, log, op_span, op_id)` back to back until `seconds` elapse.
/// Latency covers the whole call. With `logs` set, each caller records
/// its spans in logs[caller].
using CallerOp =
    std::function<OpOutcome(int caller, SpanLog* log, int op_span, std::uint64_t op_id)>;
OpLog run_closed_loop(int callers, double seconds, const CallerOp& op,
                      std::vector<SpanLog>* logs, Window* window);

/// Run `count` ops per caller outside any window (warm-up); returns the
/// number that failed.
std::uint64_t warm_up(int callers, int count, const CallerOp& op);

}  // namespace perfbench
