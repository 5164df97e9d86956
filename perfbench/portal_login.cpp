// portal_login: the TLS login path. Each op opens a new mutual-TLS
// connection, calls system.auth, one system.list_methods and then
// system.logout — the write side of the session layer (create and
// destroy) over a persisted session store.
#include <memory>

#include "bench.hpp"
#include "client/client.hpp"
#include "crypto/rsa.hpp"
#include "rpc/protocol.hpp"
#include "servers.hpp"
#include "util/clock.hpp"

namespace perfbench {

namespace {

constexpr int kCallers = 2;

class PortalLogin {
 public:
  PortalLogin(const Options& options, RunResult& result)
      : options_(options), result_(result), pki_(options.seed, kCallers) {}

  void run();

 private:
  void make_sessions();
  void start();
  void stop();
  OpOutcome op(int caller, SpanLog* log, int parent, std::uint64_t op_id);

  const Options& options_;
  RunResult& result_;
  Pki pki_;
  std::string state_dir_;
  std::unique_ptr<core::ClarensServer> server_;
  std::vector<std::string> methods_;
};

void PortalLogin::make_sessions() {
  // Other users' sessions; the logins add and remove their own.
  state_dir_ = options_.work_dir + "/state";
  make_session_store(state_dir_, options_.seed ^ 0x9047a1, session_population(options_), {});
}

void PortalLogin::start() {
  core::ClarensConfig config = paper_config(pki_);
  config.data_dir = state_dir_;
  config.use_tls = true;
  config.require_client_cert = true;
  config.credential = pki_.server;
  server_ = std::make_unique<core::ClarensServer>(std::move(config));
  server_->start();
  methods_ = server_->registry().list();
}

void PortalLogin::stop() {
  server_->stop();
  server_.reset();
}

OpOutcome PortalLogin::op(int caller, SpanLog* log, int parent, std::uint64_t op_id) {
  const pki::Credential& user = pki_.users[static_cast<std::size_t>(caller)];
  client::ClientOptions options;
  options.port = server_->port();
  options.use_tls = true;
  options.credential = user;
  options.trust = &pki_.trust;
  client::ClarensClient client(options);
  replay(log, "tls.connect", parent, op_id, [&] {
    client.connect();
    return 0;
  });
  std::string session = replay(log, "core.auth", parent, op_id, [&] { return client.authenticate(); });
  if (session.empty()) return "system.auth returned no session";
  rpc::Value listed = replay(log, "client.call", parent, op_id, [&] {
    return client.call("system.list_methods");
  });
  std::vector<std::string> names;
  for (const rpc::Value& v : listed.as_array()) names.push_back(v.as_string());
  if (names != methods_) return "list_methods response differs from the registry";
  bool logged_out = replay(log, "client.logout", parent, op_id, [&] {
    return client.call("system.logout").as_bool();
  });
  if (!logged_out) return "system.logout did not destroy the session";

  if (log) {
    // Replays of the crypto, PKI and session-store calls a login implies.
    std::string nonce = session.substr(0, 32);
    std::vector<std::uint8_t> signature = replay(log, "crypto.rsa_sign", parent, op_id, [&] {
      return crypto::rsa_sign(user.private_key, nonce);
    });
    bool signed_ok = replay(log, "crypto.rsa_verify", parent, op_id, [&] {
      return crypto::rsa_verify(user.certificate.public_key(), nonce, signature);
    });
    bool chain_ok = replay(log, "pki.chain_verify", parent, op_id, [&] {
      return pki_.trust.verify({user.certificate}, clarens::util::unix_now()).ok;
    });
    core::Session created = replay(log, "core.session_create", parent, op_id, [&] {
      return server_->sessions().create(user.dn().str(), false);
    });
    bool destroyed = replay(log, "core.session_destroy", parent, op_id, [&] {
      return server_->sessions().destroy(created.id);
    });
    if (!signed_ok || !chain_ok || !destroyed) return "layer replay failed";
  }
  return {};
}

void PortalLogin::run() {
  make_sessions();
  closed_loop_rounds(
      options_, result_, kCallers, options_.smoke ? 4 : 10,
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

void run_portal_login(const Options& options, RunResult& result) {
  PortalLogin bench(options, result);
  bench.run();
}

}  // namespace perfbench
