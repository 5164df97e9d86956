// Third-party file transfer (paper §6: "robust file transfer between
// different mass storage facilities").
//
// A client asks the *destination* server to pull a file from a *source*
// Clarens server. The destination authenticates to the source **as the
// requesting user**, using the proxy credential the user previously
// stored on the destination (proxy.store) — exactly the delegation use
// case §2.6 describes ("allows the proxy to be used on behalf of the
// user by others"). Both ends therefore enforce their own ACLs against
// the user's identity: the source checks read access, the destination
// checks write access.
//
// Robustness: DB-backed transfer records, run as tasks on the server's
// task::Engine; chunked streaming in bounded memory and post-transfer MD5
// verification against the source's file.md5(), in FileService::pull.
// The delegated proxy lives only in the queued task's step, never in the
// store, so a transfer a restart interrupted ends FAILED and its owner
// resubmits it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/file_service.hpp"
#include "core/proxy_service.hpp"
#include "task/engine.hpp"

namespace clarens::core {

using TransferState = task::State;

struct Transfer {
  std::string id;
  std::string owner;  // DN string (the delegated identity)
  std::string source_host;
  std::uint16_t source_port = 0;
  bool source_tls = false;
  std::string source_path;
  std::string dest_path;
  TransferState state = TransferState::Queued;
  std::int64_t bytes = 0;
  bool verified = false;  // md5 matched after completion
  std::string error;
  std::int64_t submitted = 0;
  std::int64_t finished = 0;
};

class TransferService {
 public:
  /// `proxies` supplies delegated credentials; `files` is the local
  /// (destination) file service; `trust` verifies the remote server.
  /// Transfers run on `engine`, whose store keeps the records.
  TransferService(task::Engine& engine, FileService& files,
                  ProxyService& proxies, const pki::TrustStore& trust);

  TransferService(const TransferService&) = delete;
  TransferService& operator=(const TransferService&) = delete;

  /// Queue a pull. `proxy_password` unlocks the owner's stored proxy;
  /// it is used immediately to retrieve the credential and never stored.
  /// Throws AuthError when no usable proxy exists.
  std::string start(const pki::DistinguishedName& owner,
                    const std::string& source_url,
                    const std::string& source_path,
                    const std::string& dest_path,
                    const std::string& proxy_password);

  Transfer status(const std::string& transfer_id,
                  const pki::DistinguishedName& who) const;

  std::vector<Transfer> list(const pki::DistinguishedName& owner) const;

  bool cancel(const std::string& transfer_id,
              const pki::DistinguishedName& who);

  Transfer wait(const std::string& transfer_id,
                const pki::DistinguishedName& who, int timeout_ms = 30000);

 private:
  task::Engine& engine_;
  FileService& files_;
  ProxyService& proxies_;
  const pki::TrustStore& trust_;
  const task::Kind kind_;
};

}  // namespace clarens::core
