// bulk_get: ranged HTTP GETs of MiB-scale blocks at seeded offsets over
// a seeded file set, served by a standalone server. GETs always leave
// through a worker and sendfile(2). Each op checks its length and
// sampled bytes; a seeded subset is checked in full.
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "client/client.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "servers.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr int kCallers = 2;
constexpr std::int64_t kMiB = 1 << 20;
constexpr std::int64_t kMaxBlock = 4 * kMiB;

class BulkGet {
 public:
  BulkGet(const Options& options, RunResult& result)
      : options_(options), result_(result), pki_(options.seed, kCallers) {}

  void run();

 private:
  void make_files();
  void start();
  void stop();
  OpOutcome op(int caller, SpanLog* log, int parent, std::uint64_t op_id);

  const Options& options_;
  RunResult& result_;
  Pki pki_;
  std::string root_;
  std::string state_dir_;
  std::int64_t file_size_ = 0;
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> keys_;
  std::unique_ptr<core::ClarensServer> server_;
  std::vector<std::unique_ptr<GetClient>> clients_;
  std::vector<Rng> rngs_;
};

void BulkGet::make_files() {
  root_ = options_.work_dir + "/files";
  std::filesystem::create_directories(root_);
  const int files = options_.smoke ? 2 : 4;
  file_size_ = (options_.smoke ? 8 : 32) * kMiB;
  Rng rng(options_.seed ^ 0xb01c);
  std::vector<std::uint8_t> chunk(static_cast<std::size_t>(kMiB));
  for (int f = 0; f < files; ++f) {
    char name[32];
    std::snprintf(name, sizeof(name), "%012llx.dat",
                  static_cast<unsigned long long>(rng.next() & 0xffffffffffffull));
    paths_.push_back(std::string("/bulk/") + name);
    keys_.push_back(hash_str(paths_.back(), options_.seed));
    std::ofstream out(root_ + "/" + name, std::ios::binary);
    for (std::int64_t at = 0; at < file_size_; at += kMiB) {
      fill_pattern(keys_.back(), static_cast<std::uint64_t>(at), chunk.data(), chunk.size());
      out.write(reinterpret_cast<const char*>(chunk.data()), static_cast<std::streamsize>(chunk.size()));
    }
    if (!out) throw std::runtime_error("cannot write the bulk file set");
  }
}

void BulkGet::start() {
  core::ClarensConfig config = paper_config(pki_);
  core::FileAcl read_only;
  read_only.read = allow_anyone();
  config.initial_file_acls = {{"/bulk", read_only}};
  config.file_roots = {{"/bulk", root_}};
  config.data_dir = state_dir_;
  server_ = std::make_unique<core::ClarensServer>(std::move(config));
  server_->start();
  for (int c = 0; c < kCallers; ++c) {
    // Log in through the client library, then GET over a lean keep-alive
    // connection that reads each body straight into a reused buffer.
    client::ClientOptions options;
    options.port = server_->port();
    options.credential = pki_.users[static_cast<std::size_t>(c)];
    options.trust = &pki_.trust;
    client::ClarensClient login(options);
    login.connect();
    clients_[static_cast<std::size_t>(c)]->connect(server_->port(), login.authenticate());
  }
}

void BulkGet::stop() {
  for (auto& client : clients_) client->close();
  server_->stop();
  server_.reset();
}

OpOutcome BulkGet::op(int caller, SpanLog* log, int parent, std::uint64_t op_id) {
  Rng& rng = rngs_[static_cast<std::size_t>(caller)];
  std::size_t file = static_cast<std::size_t>(rng.below(paths_.size()));
  std::int64_t length = kMiB << rng.below(3);  // 1, 2 or 4 MiB (kMaxBlock)
  std::int64_t offset = static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>((file_size_ - length) / 4096 + 1))) *
                        4096;
  bool full_check = rng.below(16) == 0;
  std::uint64_t sample_seed = rng.next();
  GetClient& client = *clients_[static_cast<std::size_t>(caller)];
  std::string target = paths_[file] + "?offset=" + std::to_string(offset) +
                       "&length=" + std::to_string(length);
  int status = replay(log, "client.call", parent, op_id, [&] { return client.get(target); });
  if (log) {
    replay(log, "http.parse", parent, op_id, [&] {
      http::RequestParser parser;
      parser.feed(std::string_view(client.last_request()));
      return parser.next();
    });
    auto session = replay(log, "core.session_lookup", parent, op_id, [&] {
      return server_->sessions().lookup_shared(client.session());
    });
    replay(log, "core.file_resolve", parent, op_id, [&] {
      server_->files().resolve_for_read(paths_[file], session->identity_dn);
      return server_->files().stat(paths_[file], session->identity_dn);
    });
  }
  if (status != 200) return "GET status " + std::to_string(status);
  std::size_t size = client.body_size();
  if (static_cast<std::int64_t>(size) != length) {
    return "GET returned " + std::to_string(size) + " bytes";
  }
  const std::uint8_t* data = client.body();
  if (full_check) {
    if (check_pattern(keys_[file], static_cast<std::uint64_t>(offset), data, size) != size) {
      return "GET bytes differ from the file (full check)";
    }
    return OpOutcome::delivered(size);
  }
  Rng samples(sample_seed);
  for (int i = 0; i < 64; ++i) {
    std::size_t at = static_cast<std::size_t>(samples.below(size - 8));
    if (check_pattern(keys_[file], static_cast<std::uint64_t>(offset) + at, data + at, 8) != 8) {
      return "GET bytes differ from the file (sampled)";
    }
  }
  return OpOutcome::delivered(size);
}

void BulkGet::run() {
  result_.reports_goodput = true;
  make_files();
  state_dir_ = options_.work_dir + "/state";
  make_session_store(state_dir_, options_.seed ^ 0xb01c, session_population(options_), {});
  for (int c = 0; c < kCallers; ++c) {
    rngs_.emplace_back(options_.seed * 0x100 + static_cast<std::uint64_t>(c));
    clients_.push_back(std::make_unique<GetClient>(static_cast<std::size_t>(kMaxBlock)));
  }
  closed_loop_rounds(
      options_, result_, kCallers, options_.smoke ? 4 : 8,
      [this](int caller, SpanLog* log, int parent, std::uint64_t op_id) {
        return op(caller, log, parent, op_id);
      },
      [this]() -> core::ClarensServer& {
        start();
        return *server_;
      },
      [this] { stop(); });
}

}  // namespace

void run_bulk_get(const Options& options, RunResult& result) {
  BulkGet bench(options, result);
  bench.run();
}

}  // namespace perfbench
