#include "core/transfer_service.hpp"

#include "client/client.hpp"
#include "client/peer_pool.hpp"

namespace clarens::core {

namespace {

// Pulls the file as the owner and verifies it; `t` carries the endpoints.
task::Step transfer_step(FileService& files, const pki::TrustStore& trust,
                         ProxyService::StoredProxy credential) {
  return [&files, &trust, credential = std::move(credential)](
             task::Record& t) {
    const rpc::Value& f = t.fields;
    std::string source_path = f.at("source_path").as_string();
    std::string dest_path = f.at("dest_path").as_string();
    pki::DistinguishedName owner = pki::DistinguishedName::parse(t.owner);
    std::int64_t bytes = 0;
    bool verified = false;
    try {
      // Authenticate to the source as the user (proxy chain).
      client::ClientOptions options;
      options.host = f.at("source_host").as_string();
      options.port = static_cast<std::uint16_t>(f.at("source_port").as_int());
      options.use_tls = f.at("source_tls").as_bool();
      options.credential = credential.proxy;
      options.chain = {credential.user_cert};
      options.trust = &trust;
      client::ClarensClient source(options);
      source.connect();
      source.authenticate();

      // Destination writes are ACL-checked as the owner.
      files.pull(source, source_path, dest_path, source.file_md5(source_path),
                 owner, bytes);
      verified = true;
    } catch (const std::exception& e) {
      t.error = e.what();
    }
    t.fields.set("bytes", bytes);
    t.fields.set("verified", verified);
    return verified;
  };
}

Transfer to_transfer(const task::Record& record) {
  const rpc::Value& f = record.fields;
  Transfer t;
  t.id = record.id;
  t.owner = record.owner;
  t.source_host = f.at("source_host").as_string();
  t.source_port = static_cast<std::uint16_t>(f.at("source_port").as_int());
  t.source_tls = f.at("source_tls").as_bool();
  t.source_path = f.at("source_path").as_string();
  t.dest_path = f.at("dest_path").as_string();
  t.state = record.state;
  t.bytes = f.at("bytes").as_int();
  t.verified = f.at("verified").as_bool();
  t.error = record.error;
  t.submitted = record.submitted;
  t.finished = record.finished;
  return t;
}

}  // namespace

// The delegated credential is never stored (passwords are not retained),
// so a transfer a restart interrupted cannot resume: it fails, and its
// owner resubmits.
TransferService::TransferService(task::Engine& engine, FileService& files,
                                 ProxyService& proxies,
                                 const pki::TrustStore& trust)
    : engine_(engine),
      files_(files),
      proxies_(proxies),
      trust_(trust),
      kind_{.table = "transfers",
            .noun = "transfer",
            .restart = task::Restart::Fail} {
  engine_.declare(kind_);
}

std::string TransferService::start(const pki::DistinguishedName& owner,
                                   const std::string& source_url,
                                   const std::string& source_path,
                                   const std::string& dest_path,
                                   const std::string& proxy_password) {
  client::PeerEndpoint source = client::PeerEndpoint::parse(source_url);
  // Unlock the delegation now; the password itself is dropped.
  ProxyService::StoredProxy credential =
      proxies_.retrieve(owner.str(), proxy_password);

  task::Record record;
  record.owner = owner.str();
  record.fields.set("source_host", source.host);
  record.fields.set("source_port", static_cast<std::int64_t>(source.port));
  record.fields.set("source_tls", source.tls);
  record.fields.set("source_path", source_path);
  record.fields.set("dest_path", dest_path);
  record.fields.set("bytes", std::int64_t{0});
  record.fields.set("verified", false);
  return engine_.submit(kind_, std::move(record),
                        transfer_step(files_, trust_, std::move(credential)));
}

Transfer TransferService::status(const std::string& transfer_id,
                                 const pki::DistinguishedName& who) const {
  return to_transfer(engine_.get(kind_, transfer_id, who.str()));
}

std::vector<Transfer> TransferService::list(
    const pki::DistinguishedName& owner) const {
  std::vector<Transfer> out;
  for (const auto& record : engine_.list(kind_, owner.str())) {
    out.push_back(to_transfer(record));
  }
  return out;
}

bool TransferService::cancel(const std::string& transfer_id,
                             const pki::DistinguishedName& who) {
  return engine_.cancel(kind_, transfer_id, who.str());
}

Transfer TransferService::wait(const std::string& transfer_id,
                               const pki::DistinguishedName& who,
                               int timeout_ms) {
  return to_transfer(engine_.wait(kind_, transfer_id, who.str(), timeout_ms));
}

}  // namespace clarens::core
