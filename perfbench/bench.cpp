#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void fill_pattern(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t length) {
  std::size_t i = 0;
  while (i < length) {
    std::uint64_t pos = offset + i;
    std::uint64_t word = mix64(key ^ (pos / 8));
    std::size_t lane = pos % 8;
    std::size_t take = std::min<std::size_t>(8 - lane, length - i);
    for (std::size_t k = 0; k < take; ++k) {
      out[i + k] = static_cast<std::uint8_t>(word >> (8 * (lane + k)));
    }
    i += take;
  }
}

std::size_t check_pattern(std::uint64_t key, std::uint64_t offset,
                          const std::uint8_t* data, std::size_t length) {
  std::uint8_t expect[4096];
  for (std::size_t done = 0; done < length;) {
    std::size_t n = std::min(sizeof(expect), length - done);
    fill_pattern(key, offset + done, expect, n);
    if (std::memcmp(expect, data + done, n) != 0) {
      for (std::size_t k = 0; k < n; ++k) {
        if (expect[k] != data[done + k]) return done + k;
      }
    }
    done += n;
  }
  return length;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Histogram::add_ns(std::int64_t ns) {
  std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  std::size_t index = v;
  if (v >= kSub) {
    int e = 63 - __builtin_clzll(v);  // >= 8
    std::size_t sub = static_cast<std::size_t>(v >> (e - 8)) - kSub;
    index = static_cast<std::size_t>(e - 7) * kSub + sub;
  }
  ++counts_[index];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

Percentile Histogram::percentile(double q) const {
  if (count_ == 0) return {};
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (below + counts_[i] < rank) {
      below += counts_[i];
      continue;
    }
    double lower = static_cast<double>(i), width = 1;
    if (i >= kSub) {
      int shift = static_cast<int>(i / kSub) - 1;  // e - 8
      lower = static_cast<double>((kSub + i % kSub) << shift);
      width = static_cast<double>(1ull << shift);
    }
    double inside = (static_cast<double>(rank - below) - 0.5) / static_cast<double>(counts_[i]);
    return {(lower + inside * width) * 1e-3, count_ - rank};
  }
  return {};
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  HostTicks ticks;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is
  // already counted in user/nice).
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

void Window::begin() {
  ticks0_ = host_ticks();
  cpu0_ = process_cpu_seconds();
  t0_ = now_ns();
}

void Window::end() {
  wall_ = static_cast<double>(now_ns() - t0_) * 1e-9;
  cpu_ = process_cpu_seconds() - cpu0_;
  ticks1_ = host_ticks();
}

void OpLog::merge(const OpLog& other) {
  latency.merge(other.latency);
  attempted += other.attempted;
  failed += other.failed;
  payload_bytes += other.payload_bytes;
  for (const auto& [reason, count] : other.failures) failures[reason] += count;
}

namespace {

/// One op with failure accounting: an exception is a failed op too.
OpOutcome guarded(const CallerOp& op, int caller, SpanLog* log, int span,
                  std::uint64_t op_id) {
  try {
    return op(caller, log, span, op_id);
  } catch (const std::exception& e) {
    std::string what = e.what();
    return "exception: " + what.substr(0, 120);
  }
}

}  // namespace

OpLog run_closed_loop(int callers, double seconds, const CallerOp& op,
                      std::vector<SpanLog>* logs, Window* window) {
  std::vector<OpLog> per_caller(static_cast<std::size_t>(callers));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::int64_t deadline = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      OpLog& mine = per_caller[static_cast<std::size_t>(c)];
      SpanLog* log = logs ? &(*logs)[static_cast<std::size_t>(c)] : nullptr;
      std::uint64_t op_id = static_cast<std::uint64_t>(c) << 40;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (now_ns() < deadline) {
        ++op_id;
        std::int64_t t0 = now_ns();
        OpOutcome outcome;
        {
          SpanScope root(log, "op", -1, op_id);
          outcome = guarded(op, c, log, root.index(), op_id);
        }
        mine.latency.add_ns(now_ns() - t0);
        ++mine.attempted;
        if (outcome.failure.empty()) {
          mine.payload_bytes += outcome.bytes;
        } else {
          mine.fail(outcome.failure);
        }
      }
    });
  }
  while (ready.load() < callers) std::this_thread::yield();
  window->begin();
  deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  window->end();
  OpLog all;
  for (const OpLog& one : per_caller) all.merge(one);
  return all;
}

std::uint64_t warm_up(int callers, int count, const CallerOp& op) {
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t op_id = (static_cast<std::uint64_t>(c) << 40) | (1ull << 39);
      for (int i = 0; i < count; ++i) {
        if (!guarded(op, c, nullptr, -1, ++op_id).failure.empty()) failed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return failed.load();
}

}  // namespace perfbench

namespace perfbench {

void RunResult::add_round(const Window& window, const OpLog& window_ops) {
  double done = static_cast<double>(window_ops.attempted - window_ops.failed);
  rounds["throughput_ops_s"].push_back(done / window.seconds());
  rounds["latency_p50_us"].push_back(window_ops.latency.percentile(0.5).value);
  rounds["latency_p90_us"].push_back(window_ops.latency.percentile(0.9).value);
  rounds["cpu_us_per_op"].push_back(done > 0 ? window.cpu_seconds() * 1e6 / done : 0);
  if (reports_goodput) {
    rounds["goodput_gbps"].push_back(static_cast<double>(window_ops.payload_bytes) * 8 /
                                     window.seconds() / 1e9);
  }
}

}  // namespace perfbench
