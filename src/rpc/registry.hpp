// Method registry and dispatcher.
//
// Methods have hierarchical dotted names (module.method or
// module.submodule.method, paper §2.2); the registry stores handlers
// under those names and exposes the listing that system.list_methods —
// the method the paper's Figure-4 benchmark calls — returns.
//
// Two registration paths exist:
//   * add()  — raw: a Handler working on untyped Value vectors, with
//     hand-written help/signature strings (tests, ad-hoc embedding);
//   * bind() — typed: a C++ callable whose parameters are unmarshalled
//     from the wire values by the binding layer (rpc/binding.hpp). The
//     signature string is *derived* from the C++ parameter types so
//     system.method_signature can never drift from the code, and type
//     mismatches surface uniformly as kFaultType faults.
//
// Every entry carries per-method metadata (MethodInfo) that drives the
// server's pre-dispatch checks: is_public marks methods callable without
// a session (they create the session, or are pure liveness probes), and
// acl_path overrides the path used for the method-ACL walk.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rpc/value.hpp"
#include "util/sync.hpp"

namespace clarens::rpc {

/// Per-call context threaded to every handler.
struct CallContext {
  /// Authenticated identity DN string; empty when unauthenticated.
  std::string identity;
  /// Session identifier; empty when no session established.
  std::string session_id;
  /// True when the identity was established via a proxy certificate.
  bool via_proxy = false;
  /// Serial of a delegated stored proxy riding with the call ("" = none);
  /// forwarded across federation hops inside node tickets.
  std::string proxy_serial;
  /// Wire protocol name ("xmlrpc", "jsonrpc", "soap") for diagnostics.
  std::string protocol;

  /// Federation: set when the caller was authorized by a head-minted
  /// node ticket instead of a session. The dispatcher verified signature
  /// and expiry; handlers must enforce the ticket's namespace scope and
  /// write bit against the path they touch (the ticket is a capability
  /// for one prefix, not a blanket identity).
  bool via_ticket = false;
  std::string ticket_scope;
  bool ticket_write = false;

  /// A resolved on-disk byte range a handler may hand back instead of a
  /// materialized result, letting the transport stream it zero-copy
  /// (sendfile(2)) inside the RPC framing.
  struct FileRegionResult {
    std::string path;
    std::int64_t offset = 0;
    std::int64_t length = 0;
  };
  /// Set by the dispatcher when the transport can stream a file region
  /// (binary protocol + plaintext-capable response path). Handlers that
  /// don't opt in just ignore it.
  bool offer_file_region = false;
  /// Filled by a handler (with a Nil return value) to claim the offer;
  /// mutable because handlers receive the context by const reference.
  mutable std::optional<FileRegionResult> file_region;
};

using Handler = std::function<Value(const CallContext&, const std::vector<Value>&)>;

/// Per-method metadata. For bound methods the signature is derived from
/// the handler's C++ types; is_public / acl_path drive the server's
/// pre-dispatch session and ACL checks.
struct MethodInfo {
  std::string name;
  std::string help;       // one-line description
  std::string signature;  // e.g. "string (string path, int offset, int len)"
  bool is_public = false;  // callable without a session (auth bootstrap)
  std::string acl_path;    // ACL walk path; empty = the method name itself
};

/// Registration options for Registry::bind().
struct BindSpec {
  std::string help;
  /// Display names for the derived signature, positionally. Types come
  /// from the C++ handler; only the names are supplied here.
  std::vector<std::string> params;
  bool is_public = false;
  std::string acl_path;
};

/// An immutable registered method: what Registry::find() hands the
/// dispatch loop (one lookup covers metadata checks and the call).
struct Method {
  Handler handler;
  MethodInfo info;
};

class Registry {
 public:
  /// Register a raw handler; replaces any existing registration of `name`.
  void add(const std::string& name, Handler handler, std::string help = "",
           std::string signature = "");

  /// Register a raw handler with full metadata.
  void add(const std::string& name, Handler handler, MethodInfo info);

  /// Register a typed callable. Parameters are unmarshalled from the wire
  /// values (mismatch => kFaultType fault), the signature string is
  /// derived from the C++ types, and `spec` supplies help text, display
  /// parameter names and the pre-dispatch metadata. Defined in
  /// rpc/binding.hpp.
  template <typename F>
  void bind(const std::string& name, F fn, BindSpec spec = {});

  void remove(const std::string& name);

  bool has(const std::string& name) const;

  /// Sorted method names. This is the >30-string array the paper's
  /// benchmark serializes on every call.
  std::vector<std::string> list() const;

  /// Sorted names under a module prefix (e.g. "file").
  std::vector<std::string> list_module(const std::string& module) const;

  MethodInfo info(const std::string& name) const;  // throws NotFound fault

  /// Single-lookup access to handler + metadata (the RPC hot path does
  /// this once per request). Returns nullptr for unknown names.
  std::shared_ptr<const Method> find(const std::string& name) const;

  /// Look up and invoke. Throws Fault(kFaultBadMethod) for unknown names;
  /// handler exceptions propagate.
  Value dispatch(const std::string& name, const CallContext& context,
                 const std::vector<Value>& params) const;

  std::size_t size() const;

 private:
  // Reader/writer split: every RPC does a find() (shared), while add()/
  // bind()/remove() are registration-time or administrative (exclusive).
  // Entries are immutable shared_ptr<const Method>, so a looked-up method
  // stays valid across a concurrent rebind of the same name.
  mutable util::SharedMutex mutex_{util::LockLevel::kRpcRegistry};
  std::map<std::string, std::shared_ptr<const Method>> methods_
      CLARENS_GUARDED_BY(mutex_);
};

}  // namespace clarens::rpc

// Defines Registry::bind (traits + invoker live there; the include is at
// the bottom so the binding layer sees the full Registry declaration).
#include "rpc/binding.hpp"
