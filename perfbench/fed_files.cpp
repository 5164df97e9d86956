// fed_files: the federated, replicated file path. One head, two storage
// nodes and a discovery station run in-process with placement_replicas=2;
// two RoutedClient callers work a seeded set of 8 KiB files spread over
// many prefixes: 80% file.read, 20% overwriting file.write. Every read
// must return a self-describing payload of some version of its file.
//
// In fed_files each caller works its own half of the files, so no read
// meets another caller's overwrite of the same file. fed_race runs the
// same cluster with every file shared by both callers: FileService::write
// truncates a file and rewrites it in place, so a read that lands in
// between returns a short file, and fed_race fails its output check until
// overwrites become atomic.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "client/client.hpp"
#include "client/peer_pool.hpp"
#include "client/routed.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/layout.hpp"
#include "federation/node_ticket.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "rpc/binding.hpp"
#include "rpc/protocol.hpp"
#include "servers.hpp"
#include "util/clock.hpp"

namespace perfbench {

namespace {

constexpr int kCallers = 2;
constexpr std::size_t kFileSize = 8192;
constexpr std::size_t kHeader = 16;  // file key + version, little endian
constexpr const char* kSecret = "perfbench-federation-secret";
constexpr const char* kTraceDir = "/data/_perfbench_trace";

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Version v of a file: its key, the version, then a stream seeded by both.
std::vector<std::uint8_t> make_payload(std::uint64_t file_key, std::uint64_t version) {
  std::vector<std::uint8_t> out(kFileSize);
  store_u64(out.data(), file_key);
  store_u64(out.data() + 8, version);
  fill_pattern(mix64(file_key ^ version), 0, out.data() + kHeader, kFileSize - kHeader);
  return out;
}

struct Cluster {
  std::unique_ptr<discovery::StationServer> station;
  std::unique_ptr<db::Store> discovery_store;
  std::unique_ptr<discovery::DiscoveryServer> discovery;
  std::unique_ptr<core::ClarensServer> head;
  std::vector<std::unique_ptr<core::ClarensServer>> nodes;
};

/// One caller's clients: the routed client the untraced run uses, and the
/// plain head/node clients the traced run uses to make the hop itself.
struct Caller {
  std::unique_ptr<client::RoutedClient> routed;
  std::unique_ptr<client::ClarensClient> head;
  std::map<std::string, std::unique_ptr<client::ClarensClient>> nodes;
  Rng rng{0};
  std::atomic<std::uint64_t> writes{0};  // versions issued so far
  std::uint64_t writes_done = 0;
  db::Store scratch_store;  // layout puts are replayed here, not live
  federation::LayoutTable scratch_layouts{scratch_store};
};

class FedFiles {
 public:
  FedFiles(const Options& options, RunResult& result)
      : options_(options),
        result_(result),
        pki_(options.seed, kCallers),
        shared_(options.workload == "fed_race") {}

  void run();

 private:
  void make_inputs();
  core::ClarensConfig config(const std::string& node, core::NodeRole role,
                             const std::string& root, std::uint16_t station);
  void start_cluster(int rep);
  void stop_cluster();
  void connect_callers();
  void load_working_set();
  /// Wait until every file has two healthy, confirmed replicas and the
  /// repair queue is empty; returns the seconds waited, -1 on timeout.
  double wait_replicated(double timeout_s);
  OpOutcome op(int caller, SpanLog* log, int parent, std::uint64_t op_id);
  std::string check_read(std::size_t file, const std::vector<std::uint8_t>& bytes);
  std::string traced_op(Caller& c, int caller, bool write, std::size_t file,
                        const std::vector<rpc::Value>& params, SpanLog* log,
                        int parent, std::uint64_t op_id);
  core::ClarensServer& node_for(const std::string& url);

  const Options& options_;
  RunResult& result_;
  Pki pki_;
  const bool shared_;  // every caller works every file (fed_race)
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::string> prefixes_;
  Cluster cluster_;
  std::vector<std::unique_ptr<Caller>> callers_;
  std::string rep_dir_;
  std::vector<double> converge_s_;
  std::atomic<std::size_t> read_response_bytes_{0};  // set by traced reads
};

void FedFiles::make_inputs() {
  const int prefixes = options_.smoke ? 8 : 64;
  const int per_prefix = options_.smoke ? 2 : 4;
  Rng rng(options_.seed ^ 0xfed);
  for (int p = 0; p < prefixes; ++p) {
    char name[32];
    std::snprintf(name, sizeof(name), "/data/p%08llx",
                  static_cast<unsigned long long>(rng.next() & 0xffffffffull));
    prefixes_.push_back(name);
    for (int f = 0; f < per_prefix; ++f) {
      char file[64];
      std::snprintf(file, sizeof(file), "%s/f%06llx.bin", name,
                    static_cast<unsigned long long>(rng.next() & 0xffffffull));
      paths_.push_back(file);
      keys_.push_back(hash_str(file, options_.seed));
    }
  }
}

core::ClarensConfig FedFiles::config(const std::string& node, core::NodeRole role,
                                     const std::string& root, std::uint16_t station) {
  core::ClarensConfig config = paper_config(pki_);
  core::FileAcl open;
  open.read = allow_anyone();
  open.write = allow_anyone();
  config.initial_file_acls = {{"/data", open}};
  // Storage-node commit notifications run the method ACL on the head.
  config.initial_method_acls.push_back({"replica", allow_anyone()});
  config.farm = "benchfarm";
  config.node = node;
  config.node_role = role;
  config.node_ticket_secret = kSecret;
  config.station = {{"127.0.0.1", station}};
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (!root.empty()) config.file_roots = {{"/data", root}};
  if (role == core::NodeRole::Head) config.placement_replicas = 2;
  return config;
}

void FedFiles::start_cluster(int rep) {
  rep_dir_ = options_.work_dir + "/rep" + std::to_string(rep);
  std::filesystem::create_directories(rep_dir_ + "/fst1");
  std::filesystem::create_directories(rep_dir_ + "/fst2");
  std::int64_t t0 = now_ns();
  Cluster& c = cluster_;
  c.station = std::make_unique<discovery::StationServer>();
  c.discovery_store = std::make_unique<db::Store>();
  c.discovery = std::make_unique<discovery::DiscoveryServer>(*c.discovery_store, 3600);
  c.discovery->subscribe("127.0.0.1", c.station->port());
  c.head = std::make_unique<core::ClarensServer>(
      config("head", core::NodeRole::Head, "", c.station->port()));
  c.head->attach_discovery(*c.discovery);
  c.head->start();
  for (int n = 1; n <= 2; ++n) {
    core::ClarensConfig cfg = config("fst" + std::to_string(n), core::NodeRole::Storage,
                                     rep_dir_ + "/fst" + std::to_string(n), c.station->port());
    cfg.head_url = c.head->url();
    c.nodes.push_back(std::make_unique<core::ClarensServer>(std::move(cfg)));
    c.nodes.back()->start();
  }
  while (!c.head->router() || c.head->router()->storage_nodes().size() < 2) {
    if (now_ns() - t0 > 30'000'000'000) throw std::runtime_error("discovery never converged");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  converge_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
}

void FedFiles::stop_cluster() {
  // Orderly quiesce: load already stopped; let the repair queue drain,
  // then stop the head before the storage nodes it copies between.
  callers_.clear();
  if (wait_replicated(60) < 0) result_.problem("replication did not drain before shutdown");
  Cluster& c = cluster_;
  c.head->stop();
  for (auto& node : c.nodes) node->stop();
  c.head.reset();
  c.nodes.clear();
  c.discovery->stop();
  c.station->stop();
  c.discovery.reset();
  c.discovery_store.reset();
  c.station.reset();
  std::filesystem::remove_all(rep_dir_);
}

void FedFiles::connect_callers() {
  callers_.clear();
  for (int i = 0; i < kCallers; ++i) {
    auto caller = std::make_unique<Caller>();
    client::ClientOptions base;
    base.credential = pki_.users[static_cast<std::size_t>(i)];
    base.trust = &pki_.trust;
    caller->routed = std::make_unique<client::RoutedClient>(cluster_.head->url(), base, 10, 50);
    caller->routed->authenticate();
    client::ClientOptions head = base;
    head.port = cluster_.head->port();
    caller->head = std::make_unique<client::ClarensClient>(head);
    caller->head->connect();
    caller->head->set_session(caller->routed->head().session());
    caller->rng = Rng(options_.seed * 0x100 + static_cast<std::uint64_t>(i));
    callers_.push_back(std::move(caller));
  }
}

void FedFiles::load_working_set() {
  client::RoutedClient& routed = *callers_[0]->routed;
  for (const std::string& prefix : prefixes_) routed.call("file.mkdir", {rpc::Value(prefix)});
  for (std::size_t f = 0; f < paths_.size(); ++f) {
    routed.call("file.write", {rpc::Value(paths_[f]), rpc::Value(make_payload(keys_[f], 0))});
  }
  // Scratch target of the traced run's local write replays (no
  // replication: it bypasses the head).
  for (auto& node : cluster_.nodes) node->files().mkdir(kTraceDir, pki_.users[0].dn());
}

double FedFiles::wait_replicated(double timeout_s) {
  std::int64_t t0 = now_ns();
  federation::Replicator* rep = cluster_.head->replicator();
  federation::LayoutTable* layouts = cluster_.head->layouts();
  if (!rep || !layouts) return -1;
  std::size_t next = 0;  // files before `next` were seen fully replicated
  for (;;) {
    double waited = static_cast<double>(now_ns() - t0) * 1e-9;
    while (next < paths_.size()) {
      std::optional<federation::FileLayout> layout = layouts->get(paths_[next]);
      if (!layout || !layout->confirmed ||
          layout->count(federation::ReplicaState::Healthy) < 2) {
        break;
      }
      ++next;
    }
    if (next == paths_.size()) {
      if (rep->stats().queue_depth == 0) return waited;
      next = 0;  // queued work may still demote a copy; look again
    }
    if (waited > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

core::ClarensServer& FedFiles::node_for(const std::string& url) {
  std::uint16_t port = client::PeerEndpoint::parse(url).port;
  for (auto& node : cluster_.nodes) {
    if (node->port() == port) return *node;
  }
  throw std::runtime_error("redirect to an unknown node: " + url);
}

std::string FedFiles::check_read(std::size_t file, const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kFileSize) return "read returned " + std::to_string(bytes.size()) + " bytes";
  if (load_u64(bytes.data()) != keys_[file]) return "read returned another file's payload";
  std::uint64_t version = load_u64(bytes.data() + 8);
  std::uint64_t writer = version >> 32;
  if (writer > static_cast<std::uint64_t>(kCallers) ||
      (writer > 0 && (version & 0xffffffffull) >
                         callers_[static_cast<std::size_t>(writer - 1)]->writes.load())) {
    return "read returned a version never written";
  }
  if (check_pattern(mix64(keys_[file] ^ version), 0, bytes.data() + kHeader,
                    kFileSize - kHeader) != kFileSize - kHeader) {
    return "read payload bytes are wrong";
  }
  return {};
}

OpOutcome FedFiles::op(int caller, SpanLog* log, int parent, std::uint64_t op_id) {
  Caller& c = *callers_[static_cast<std::size_t>(caller)];
  bool write = c.rng.unit() < 0.2;
  // Unshared, caller i works files i, i + kCallers, i + 2 * kCallers, ...
  std::size_t file =
      shared_ ? static_cast<std::size_t>(c.rng.below(paths_.size()))
              : static_cast<std::size_t>(c.rng.below(paths_.size() / kCallers)) * kCallers +
                    static_cast<std::size_t>(caller);
  std::vector<rpc::Value> params;
  if (write) {
    std::uint64_t seq = c.writes.fetch_add(1) + 1;
    std::uint64_t version = (static_cast<std::uint64_t>(caller + 1) << 32) | seq;
    params = {rpc::Value(paths_[file]), rpc::Value(make_payload(keys_[file], version))};
  } else {
    params = {rpc::Value(paths_[file]), rpc::Value(std::int64_t{0}),
              rpc::Value(static_cast<std::int64_t>(kFileSize))};
  }
  std::string failure;
  if (log) {
    failure = traced_op(c, caller, write, file, params, log, parent, op_id);
  } else {
    rpc::Value result = c.routed->call(write ? "file.write" : "file.read", params);
    if (write) {
      ++c.writes_done;
      if (!result.as_bool()) failure = "file.write returned false";
    } else {
      failure = check_read(file, result.as_binary());
    }
  }
  if (!failure.empty()) return failure;
  return {};
}

std::string FedFiles::traced_op(Caller& c, int caller, bool write, std::size_t file,
                                const std::vector<rpc::Value>& params, SpanLog* log,
                                int parent, std::uint64_t op_id) {
  const std::string method = write ? "file.write" : "file.read";
  const std::string& path = paths_[file];
  core::ClarensServer& head = *cluster_.head;
  // The redirect, made by hand: one call to the head, one to the node.
  rpc::Value envelope = replay(log, "client.head_hop", parent, op_id, [&] {
    return c.head->call(method, params);
  });
  if (!rpc::RedirectResult::is_redirect(envelope)) return "head answered without a redirect";
  rpc::RedirectResult redirect = rpc::RedirectResult::from_value(envelope);
  auto& node_client = c.nodes[redirect.url];
  if (!node_client) {
    client::ClientOptions options;
    client::PeerEndpoint endpoint = client::PeerEndpoint::parse(redirect.url);
    options.host = endpoint.host;
    options.port = endpoint.port;
    node_client = std::make_unique<client::ClarensClient>(options);
    node_client->connect();
  }
  node_client->set_header("X-Clarens-Node-Ticket", redirect.ticket);
  rpc::Value result = replay(log, "client.node_hop", parent, op_id, [&] {
    return node_client->call(method, params);
  });
  std::string failure;
  if (write) {
    failure = result.as_bool() ? "" : "file.write returned false";
  } else {
    failure = check_read(file, result.as_binary());
  }

  // Replays of the layer calls the op implied, against the live servers.
  const pki::DistinguishedName& dn = pki_.users[static_cast<std::size_t>(caller)].dn();
  rpc::Request call{method, params, rpc::Value(std::int64_t{1})};
  http::Request request;
  request.method = "POST";
  request.target = "/clarens";
  request.headers.set("Content-Type", rpc::content_type(rpc::Protocol::XmlRpc));
  request.headers.set("X-Clarens-Session", c.head->session());
  request.body = rpc::serialize_request(rpc::Protocol::XmlRpc, call);
  std::string wire = request.serialize();
  std::optional<http::Request> parsed = replay(log, "http.parse", parent, op_id, [&] {
    http::RequestParser parser;
    parser.feed(std::string_view(wire));
    return parser.next();
  });
  rpc::Request decoded = replay(log, "rpc.decode", parent, op_id, [&] {
    return rpc::parse_request(rpc::Protocol::XmlRpc, parsed->body);
  });
  auto session = replay(log, "core.session_lookup", parent, op_id, [&] {
    return head.sessions().lookup_shared(c.head->session());
  });
  replay(log, "core.acl_check", parent, op_id, [&] {
    return head.acl().check_method(decoded.method, session->identity_dn);
  });
  if (!write) {
    // The head's file.read handler only routes and mints; the write
    // handler also records the write in the layout table, so it is not
    // replayed.
    replay(log, "core.dispatch", parent, op_id, [&] {
      rpc::CallContext context;
      context.identity = session->identity;
      context.session_id = session->id;
      context.protocol = "xmlrpc";
      return head.registry().find(method)->handler(context, params);
    });
  }
  federation::Router& router = *head.router();
  replay(log, "federation.route", parent, op_id, [&] { return router.route(path); });
  std::string ticket = replay(log, "federation.mint_ticket", parent, op_id, [&] {
    return router.mint_ticket(session->identity, false, "", router.prefix_of(path), write);
  });
  bool verified = replay(log, "federation.ticket_verify", parent, op_id, [&] {
    return federation::NodeTicket::verify(kSecret, ticket, clarens::util::unix_now()).has_value();
  });
  if (!verified) failure = "minted ticket does not verify";
  std::optional<federation::FileLayout> layout =
      replay(log, "federation.layout_get", parent, op_id, [&] { return head.layouts()->get(path); });
  if (layout) {
    replay(log, "federation.layout_put", parent, op_id, [&] {
      c.scratch_layouts.put(*layout);
      return 0;
    });
    std::string record = layout->encode();
    replay(log, "db.put", parent, op_id, [&] {
      c.scratch_store.put("layout", path, record);
      return 0;
    });
  }
  replay(log, "db.get", parent, op_id, [&] { return head.store().get("layout", path); });
  core::ClarensServer& node = node_for(redirect.url);
  if (write) {
    std::string scratch = std::string(kTraceDir) + "/c" + std::to_string(caller) + ".bin";
    const std::vector<std::uint8_t>& bytes = params[1].as_binary();
    replay(log, "core.file_write", parent, op_id, [&] {
      node.files().write(scratch, bytes, dn);
      return 0;
    });
  } else {
    replay(log, "core.file_read", parent, op_id, [&] {
      return node.files().read(path, 0, static_cast<std::int64_t>(kFileSize), dn);
    });
  }
  replay(log, "core.file_checksum", parent, op_id, [&] { return node.files().checksum(path, dn); });
  std::string encoded = replay(log, "rpc.encode", parent, op_id, [&] {
    return rpc::serialize_response(rpc::Protocol::XmlRpc, rpc::Response::success(result));
  });
  if (!write) read_response_bytes_ = encoded.size();
  return failure;
}

void FedFiles::run() {
  make_inputs();
  const int warm_ops = options_.smoke ? 20 : 150;
  const double window_s = RunResult::window_seconds(options_);
  auto op_fn = [this](int caller, SpanLog* log, int parent, std::uint64_t op_id) {
    return op(caller, log, parent, op_id);
  };
  for (int i = 0; options_.trace && i < kCallers; ++i) result_.spans.emplace_back(i);
  Counters counters;
  federation::ReplicatorStats copied;  // deltas over the untraced windows
  std::uint64_t redirects = 0, writes = 0;
  std::vector<double> lags;
  for (int rep = 0; rep < options_.rounds; ++rep) {
    result_.begin_round();
    std::int64_t t0 = now_ns();
    start_cluster(rep);
    connect_callers();
    load_working_set();
    if (wait_replicated(60) < 0) result_.problem("working set never replicated");
    if (warm_up(kCallers, warm_ops, op_fn) != 0) result_.problem("warm-up ops failed");
    result_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    core::ClarensServer* head = cluster_.head.get();
    auto servers = [&] {
      return Counters::of({head, cluster_.nodes[0].get(), cluster_.nodes[1].get()});
    };
    auto routed = [&](std::uint64_t Caller::*field) {
      std::uint64_t n = 0;
      for (auto& c : callers_) n += (*c).*field;
      return n;
    };
    auto redirected = [&] {
      std::uint64_t n = 0;
      for (auto& c : callers_) n += c->routed->redirects_followed();
      return n;
    };
    Counters before = servers();
    federation::ReplicatorStats rep0 = head->replicator()->stats();
    std::uint64_t redirects0 = redirected(), writes0 = routed(&Caller::writes_done);
    Window window;
    OpLog ops = run_closed_loop(kCallers, window_s, op_fn, nullptr, &window);
    result_.add_window(window, ops);
    counters += servers() - before;
    redirects += redirected() - redirects0;
    writes += routed(&Caller::writes_done) - writes0;
    // Orderly quiesce, part one: the load has stopped; the lag is how long
    // the repair queue takes to catch up with it.
    double lag = wait_replicated(60);
    if (lag < 0) result_.problem("replication did not drain after the load stopped");
    lags.push_back(std::max(lag, 0.0));
    federation::ReplicatorStats rep1 = head->replicator()->stats();
    copied.commits += rep1.commits - rep0.commits;
    copied.copies += rep1.copies - rep0.copies;
    copied.bytes_copied += rep1.bytes_copied - rep0.bytes_copied;
    copied.retried += rep1.retried - rep0.retried;
    copied.parked += rep1.parked - rep0.parked;
    if (options_.trace) {
      Window traced;
      OpLog traced_ops = run_closed_loop(kCallers, window_s, op_fn, &result_.spans, &traced);
      result_.add_traced(traced, traced_ops);
    }
    stop_cluster();
    result_.end_round();
  }

  counters.report(result_, " (head+nodes)");
  auto& L = result_.layers;
  double ops = static_cast<double>(std::max<std::uint64_t>(1, result_.ops.attempted));
  double nwrites = static_cast<double>(std::max<std::uint64_t>(1, writes));
  std::string per_op = " / " + std::to_string(result_.ops.attempted) + " ops";
  std::string per_write = " / " + std::to_string(writes) + " writes";
  L["client.redirects_per_op"] = {static_cast<double>(redirects) / ops, "count",
                                  std::to_string(redirects) + " redirects" + per_op};
  L["federation.commits_per_write"] = {static_cast<double>(copied.commits) / nwrites, "count",
                                       std::to_string(copied.commits) + " commit notifications" + per_write};
  L["federation.copies_per_write"] = {static_cast<double>(copied.copies) / nwrites, "count",
                                      std::to_string(copied.copies) + " replica copies" + per_write};
  L["federation.bytes_copied_per_write"] = {
      static_cast<double>(copied.bytes_copied) / nwrites, "bytes",
      std::to_string(copied.bytes_copied) + " bytes copied" + per_write};
  L["federation.copy_retries"] = {static_cast<double>(copied.retried), "count",
                                  "replicator retries over the load windows and drains"};
  L["federation.replication_lag_s"] = {median(lags), "s",
                                       "load stop -> every file replicated, queue empty (median)"};
  if (options_.trace) {
    L["rpc.response_bytes"] = {static_cast<double>(read_response_bytes_.load()), "bytes",
                               "XML-RPC file.read answer from a storage node"};
  }
  L["discovery.converge_s"] = {median(converge_s_), "s",
                               "head ring holds both nodes (median of set-ups)"};
  std::printf("fed_files: replication lag per round:");
  for (double lag : lags) std::printf(" %.3fs", lag);
  std::printf("; %llu copy retries, %llu tasks parked\n",
              static_cast<unsigned long long>(copied.retried),
              static_cast<unsigned long long>(copied.parked));
}

}  // namespace

void run_fed_files(const Options& options, RunResult& result) {
  FedFiles bench(options, result);
  bench.run();
}

}  // namespace perfbench
