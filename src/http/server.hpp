// HTTP server: epoll reactor front end + adaptive inline / worker-pool
// request execution.
//
// The paper's PClarens runs inside Apache's event-driven front end with a
// pool of worker processes; this server mirrors that shape and then
// erases the mandatory handoff for the paper's hot path (small
// authenticated RPCs, §4):
//
//   * a single reactor thread owns the listening socket and every
//     connection fd (non-blocking, plaintext and TLS alike): it accepts,
//     reads, feeds the incremental request parser, and writes every
//     response byte. TLS bytes pass through a per-connection sans-IO
//     tls::Engine that only the reactor touches, so handshakes, record
//     decryption and encryption are all driven by readiness events;
//   * complete requests are queued per connection and run one at a time.
//     Small, measured-cheap requests run *inline* on the reactor thread
//     (adaptive dispatch: per-method EWMA cost, body-size cap, per-epoll-
//     tick budget). Everything else becomes one `util::ThreadPool` task
//     that only computes: it runs the handler, takes ownership of the
//     body, opens any file region, and posts the Response back;
//   * one write path serves both: the reactor serializes the head,
//     encrypts on TLS connections, and writes non-blockingly, parking any
//     unsent tail in a per-connection outbox drained on EPOLLOUT. File
//     bodies are pumped from EPOLLOUT too — non-blocking sendfile(2) on
//     plaintext (the zero-copy path §2.3 credits for file throughput),
//     64 KiB pread chunks through the outbox on TLS. A connection
//     dispatches its next request only when the outbox and the pump are
//     empty, which keeps pipelined responses in order with nothing shared
//     between threads.
//
// File regions may carry an RPC envelope (FileRegion::head/tail), so
// large binary file.read responses bypass the serialization arena too.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "tls/channel.hpp"
#include "tls/engine.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace clarens::http {

/// What the transport layer knows about the requester.
struct Peer {
  /// TLS-verified identity, when the connection is encrypted and the
  /// client presented a certificate.
  std::optional<pki::TrustStore::Result> tls_identity;
  std::vector<pki::Certificate> chain;
  bool encrypted = false;
};

using HandlerFn = std::function<Response(const Request&, const Peer&)>;

/// Inline-dispatch policy (DESIGN.md "Dispatch policy"). The reactor runs
/// a request inline iff cost_key() returns a non-empty key, the body is
/// small, the key's EWMA cost is under the limit, and this epoll tick's
/// inline budget is not exhausted; otherwise the request spills to the
/// worker pool. The limits are constants in server.cpp.
struct DispatchOptions {
  /// Master switch; off = every request takes the worker handoff (the
  /// pre-inline behavior, kept benchmarkable as the ablation).
  bool inline_dispatch = true;
  /// Maps a parsed request to its cost-tracking key ("" = never inline).
  /// Unset = inline dispatch disabled: only the embedder knows which
  /// handlers are safe to run on the reactor thread.
  std::function<std::string(const Request&)> cost_key;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral
  std::optional<tls::TlsConfig> tls;
  std::size_t max_connections = 1024;
  DispatchOptions dispatch;
};

class Server {
 public:
  Server(ServerOptions options, HandlerFn handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the reactor + worker pool. Throws on bind
  /// failure.
  void start();

  /// Close the listener and all live connections; join every thread.
  void stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Served request count (all connections).
  std::uint64_t requests_served() const { return requests_.load(); }

  /// Requests executed inline on the reactor thread (subset of
  /// requests_served; dispatch-policy telemetry).
  std::uint64_t requests_inlined() const { return inlined_.load(); }

 private:
  /// A file body opened by the thread that ran the handler: the reactor
  /// sends `length` bytes from `offset`, then `tail`.
  struct FileBody {
    net::Fd fd;
    std::int64_t offset = 0;
    std::size_t length = 0;
    std::string tail;  // RPC framing after the file bytes
    bool copy = false;  // pread through the outbox instead of sendfile
  };

  /// A handler's outcome, ready for emit().
  struct Reply {
    Response response;
    std::optional<FileBody> file;
    double handler_us = 0;
  };

  /// Per-connection state. Every field is touched by the reactor thread
  /// only; a pool task reads `peer` (set before any request is parsed)
  /// and hands its Reply back through Reactor::post.
  struct Conn {
    explicit Conn(net::TcpConnection c) : tcp(std::move(c)) {}
    net::TcpConnection tcp;
    Peer peer;
    /// Latches the one-shot post-handshake peer assignment (an anonymous
    /// TLS peer leaves the fields empty, so they can't serve as the guard).
    bool peer_set = false;
    RequestParser parser;
    /// Sans-IO TLS state machine; null on plaintext connections.
    std::unique_ptr<tls::Engine> engine;
    /// Unwritten response/handshake bytes.
    util::Buffer outbox;
    /// The file body being sent, after `outbox` drains.
    std::optional<FileBody> pump;
    /// Current epoll interest (Reactor::kRead / kWrite bits).
    std::uint32_t interest = net::Reactor::kRead;

    /// A parsed request plus its dispatch-cost key (computed once at
    /// parse time; "" = never inline).
    struct Pending {
      Request request;
      std::string cost_key;
    };
    /// Parsed, not yet handled.
    std::deque<Pending> ready;
    /// A pool task is computing the response to this connection's
    /// current request.
    bool busy = false;
    /// Answer what is queued, then close; reads stop.
    bool closing = false;
    /// Malformed stream: answer 400 when drained.
    bool bad = false;
  };

  void on_acceptable();
  void admit(net::TcpConnection tcp);
  void on_event(const std::shared_ptr<Conn>& conn, std::uint32_t ready);
  void on_readable(const std::shared_ptr<Conn>& conn);
  /// Runs queued requests while the connection has nothing in flight.
  void maybe_dispatch(const std::shared_ptr<Conn>& conn);
  void spill(const std::shared_ptr<Conn>& conn, Conn::Pending item);
  Reply run_handler(const Request& request, const Peer& peer);
  /// The one write path: head, body and file pump for either dispatch mode.
  void emit(const std::shared_ptr<Conn>& conn, const Request& request,
            Reply reply);
  /// Writes plaintext bytes, encrypting first on TLS connections.
  bool send(const std::shared_ptr<Conn>& conn,
            std::span<const std::string_view> chunks);
  /// Non-blocking write; parks the unsent tail in the outbox and arms
  /// EPOLLOUT. Returns true when fully written.
  bool write_or_park(const std::shared_ptr<Conn>& conn,
                     std::span<const std::string_view> chunks);
  /// Drains the outbox, then the file pump. Returns true once both are
  /// empty; false while waiting for EPOLLOUT or after closing on error.
  bool flush(const std::shared_ptr<Conn>& conn);
  /// Stops reads; the queue drains, then the connection closes.
  void set_closing(Conn& conn);
  /// Re-arms epoll: reads unless closing, EPOLLOUT when `write`.
  void watch(Conn& conn, bool write);
  void close_conn(const std::shared_ptr<Conn>& conn);

  bool inline_eligible(const Conn::Pending& item);
  void note_cost(const std::string& key, double us);

  ServerOptions options_;
  HandlerFn handler_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> inlined_{0};

  std::unique_ptr<net::Reactor> reactor_;
  util::Thread reactor_thread_;
  std::unique_ptr<util::ThreadPool> pool_;

  // Reactor thread only (and stop(), after the reactor has joined).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  // Per-method EWMA handler cost in microseconds, recorded on the reactor
  // after every run (inline, or posted back by a worker).
  std::unordered_map<std::string, double> costs_;
  // Inline budget accounting.
  std::uint64_t budget_tick_ = 0;
  double budget_spent_us_ = 0;
};

}  // namespace clarens::http
