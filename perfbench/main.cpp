// clarens_perfbench: the repository benchmark driver.
//
//   clarens_perfbench --workload rpc_fig4|fed_files|bulk_get|portal_login|fed_race
//                     --seed N --seconds S --trace 0|1 [--smoke]
//
// Runs one seeded, closed-loop workload against in-process servers,
// checks every op's output, and prints a human-readable report followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// is split into an untraced and a traced half and the metrics are the
// per-layer set (client-side spans plus replays of the layer calls each
// op implies, timed from outside the servers).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by every workload (--trace 0).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_ops_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"}, {"cpu_us_per_op", "us"},     {"peak_rss_mb", "MB"},
};
// File payload bytes per second, reported by bulk_get only.
const MetricDef kGoodput = {"goodput_gbps", "Gb/s"};

// Per-layer metrics (--trace 1). A *_us metric is the median self time of
// the span of the same name without the suffix.
const MetricDef kPerLayer[] = {
    {"http.requests_per_op", "count"},
    {"http.inline_ratio", "ratio"},
    {"http.parse_us", "us"},
    {"rpc.decode_us", "us"},
    {"rpc.encode_us", "us"},
    {"rpc.response_bytes", "bytes"},
    {"core.session_lookup_us", "us"},
    {"core.acl_check_us", "us"},
    {"core.dispatch_us", "us"},
    {"core.session_create_us", "us"},
    {"core.session_destroy_us", "us"},
    {"core.file_read_us", "us"},
    {"core.file_write_us", "us"},
    {"core.file_checksum_us", "us"},
    {"core.file_resolve_us", "us"},
    {"core.auth_us", "us"},
    {"db.ops_per_op", "count"},
    {"db.put_us", "us"},
    {"db.get_us", "us"},
    {"federation.route_us", "us"},
    {"federation.mint_ticket_us", "us"},
    {"federation.ticket_verify_us", "us"},
    {"federation.layout_get_us", "us"},
    {"federation.layout_put_us", "us"},
    {"federation.commits_per_write", "count"},
    {"federation.copies_per_write", "count"},
    {"federation.bytes_copied_per_write", "bytes"},
    {"federation.copy_retries", "count"},
    {"federation.replication_lag_s", "s"},
    {"client.head_hop_us", "us"},
    {"client.node_hop_us", "us"},
    {"client.redirects_per_op", "count"},
    {"tls.connect_us", "us"},
    {"crypto.rsa_sign_us", "us"},
    {"crypto.rsa_verify_us", "us"},
    {"pki.chain_verify_us", "us"},
    {"discovery.converge_s", "s"},
    {"host.steal_pct", "%"},
    {"trace.untraced_ops_s", "1/s"},
    {"trace.traced_ops_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

void usage() {
  std::fprintf(stderr,
               "usage: clarens_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke]\n");
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// Self time per span name: a span's duration minus what its children
/// cover (children of one caller run one after another).
std::map<std::string, std::vector<double>> span_stats(const std::vector<SpanLog>& logs) {
  std::map<std::string, std::vector<double>> stats;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // never closed (op cut short)
      double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-3;
      stats[s.name].push_back(std::max(0.0, self));
    }
  }
  return stats;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "# thread\top\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%d\t%llu\t%zu\t%d\t%s\t%lld\t%lld\n", log.thread(),
                   static_cast<unsigned long long>(s.op), i, s.parent, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      usage();
      return 2;
    }
  }
  const std::map<std::string, WorkloadFn> workloads = {
      {"rpc_fig4", run_fig4},
      {"fed_files", run_fed_files},
      {"fed_race", run_fed_files},
      {"bulk_get", run_bulk_get},
      {"portal_login", run_portal_login},
  };
  auto it = workloads.find(options.workload);
  if (it == workloads.end() || !have_trace || !(options.seconds > 0)) {
    usage();
    return 2;
  }
  // One round per ~2 s of measurement. The rpc_fig4 closed loop settles
  // into one of several interleavings per server start (p50 ~75 or
  // ~115 us on a 4-vCPU VM); many short rounds average them.
  options.rounds = options.smoke ? 1 : std::clamp(static_cast<int>(options.seconds / 2), 3, 12);
  // Scratch state lives under .bench_build/ of the working directory.
  options.work_dir = ".bench_build/perfbench-work/" + options.workload;
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  options.spans_path = ".bench_build/perfbench-trace/" + options.workload + ".spans.tsv";

  RunResult result;
  try {
    it->second(options, result);
  } catch (const std::exception& e) {
    result.problem(std::string("workload aborted: ") + e.what());
  }
  std::filesystem::remove_all(options.work_dir);

  const OpLog& ops = result.ops;
  std::uint64_t completed = ops.attempted - ops.failed;
  double window = std::max(result.window_s, 1e-9);
  double throughput = static_cast<double>(completed) / window;
  Percentile p50 = ops.latency.percentile(0.50), p90 = ops.latency.percentile(0.90),
             p99 = ops.latency.percentile(0.99), p999 = ops.latency.percentile(0.999);
  std::map<std::string, double> e2e = {
      {"setup_s", median(result.setup_s)},
      {"throughput_ops_s", throughput},
      {"latency_p50_us", p50.value},
      {"latency_p90_us", p90.value},
      {"cpu_us_per_op", completed ? result.cpu_s * 1e6 / static_cast<double>(completed) : 0},
      {"peak_rss_mb", median(result.rounds["peak_rss_mb"])},
  };
  std::vector<MetricDef> reported(std::begin(kEndToEnd), std::end(kEndToEnd));
  if (result.reports_goodput) {
    e2e[kGoodput.name] = static_cast<double>(ops.payload_bytes) * 8 / window / 1e9;
    reported.push_back(kGoodput);
  }
  if (ops.attempted == 0) result.problem("no op completed");
  for (const auto& [name, value] : e2e) {
    if (!(value > 0) || !std::isfinite(value)) result.problem("metric " + name + " is not positive");
  }

  std::printf("== %s  seed=%llu  window=%.3fs  host.steal_pct=%.2f%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              result.window_s, result.steal_pct(), options.smoke ? "  (smoke)" : "");
  std::printf("ops: attempted=%llu failed=%llu completed=%llu\n",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(completed));
  for (const auto& [reason, count] : ops.failures) {
    std::printf("  failed %llu x %s\n", static_cast<unsigned long long>(count), reason.c_str());
  }
  std::printf("setup_s per round:");
  for (double s : result.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& [name, values] : result.rounds) {
    std::printf("round %s:", name.c_str());
    for (double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  for (const MetricDef& m : reported) {
    std::printf("  %-18s %14.4f %s\n", m.name, e2e[m.name], m.unit);
  }
  std::printf("  diagnostics: p99=%.1fus (%llu samples beyond)  p99.9=%.1fus (%llu beyond)  "
              "samples=%llu\n",
              p99.value, static_cast<unsigned long long>(p99.beyond), p999.value,
              static_cast<unsigned long long>(p999.beyond),
              static_cast<unsigned long long>(ops.latency.count()));

  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  if (!options.trace) {
    for (const MetricDef& m : reported) {
      metrics[m.name] = e2e[m.name];
      units[m.name] = m.unit;
    }
  } else {
    std::map<std::string, std::vector<double>> stats = span_stats(result.spans);
    double traced = result.traced_window_s > 0
                        ? static_cast<double>(result.traced_ops) / result.traced_window_s
                        : 0;
    result.layers["host.steal_pct"] = {result.steal_pct(), "%", "steal ticks / all ticks over the untraced windows"};
    result.layers["trace.untraced_ops_s"] = {throughput, "1/s", "untraced half"};
    result.layers["trace.traced_ops_s"] = {traced, "1/s", "traced half"};
    result.layers["trace.overhead_pct"] = {
        throughput > 0 ? 100.0 * (throughput - traced) / throughput : 0, "%",
        "(untraced - traced) / untraced ops/s"};
    std::printf("-- traced run: untraced %.1f ops/s, traced %.1f ops/s, tracing overhead %.1f%%\n",
                throughput, traced, result.layers["trace.overhead_pct"].value);
    std::printf("-- spans (self time)\n  %-28s %10s %14s\n", "span", "count", "median_us");
    for (const auto& [name, self_us] : stats) {
      std::printf("  %-28s %10zu %14.3f\n", name.c_str(), self_us.size(), median(self_us));
    }
    std::printf("-- per-layer metrics\n");
    for (const MetricDef& m : kPerLayer) {
      std::string name = m.name;
      double value = 0;
      std::string note;
      if (auto layer = result.layers.find(name); layer != result.layers.end()) {
        value = layer->second.value;
        note = layer->second.note;
      } else if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
        auto st = stats.find(name.substr(0, name.size() - 3));
        if (st != stats.end()) {
          value = median(st->second);
          note = "median self time of " + std::to_string(st->second.size()) + " spans";
        } else {
          note = "not on this workload's path (0 spans)";
        }
      } else {
        note = "not on this workload's path";
      }
      metrics[name] = value;
      units[name] = m.unit;
      std::printf("  %-34s %14.4f %-6s %s\n", m.name, value, m.unit, note.c_str());
    }
    write_spans(options.spans_path, result.spans);
    std::size_t kept = 0;
    for (const SpanLog& log : result.spans) kept += log.spans().size();
    std::printf("-- %zu spans written to %s (at most %zu per caller)\n", kept,
                options.spans_path.c_str(), SpanLog::kMaxSpans);
  }
  for (const std::string& p : result.problems) std::printf("PROBLEM: %s\n", p.c_str());
  bool correct = result.correct && ops.failed == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) json += ", ";
    first = false;
    // Names and units are fixed identifiers; nothing needs escaping.
    json += "\"" + name + "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + units[name] + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
