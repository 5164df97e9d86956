#include "http/server.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

#include "http/parser.hpp"
#include "util/buffer.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace clarens::http {

namespace {

// Inline-dispatch limits (DESIGN.md "Dispatch policy").
/// Requests with bodies above this never run inline.
constexpr std::size_t kInlineMaxBody = 16 * 1024;
/// A method whose EWMA cost exceeds this spills (microseconds).
constexpr double kInlineCostLimitUs = 500.0;
/// Total inline handler time allowed per epoll tick (microseconds); past
/// it the rest of the tick spills, bounding how long the reactor defers
/// its read loop.
constexpr double kInlineBudgetUs = 5000.0;

/// File bytes per pread on the copy path (TLS, or a kernel that refuses
/// sendfile): the outbox never holds more than one chunk of them.
constexpr std::size_t kFileChunk = 64 * 1024;
/// File bytes the thread that opens a region asks the kernel to read ahead;
/// bounds how much page cache one response can claim up front.
constexpr std::size_t kReadaheadBytes = 16 * 1024 * 1024;
/// File bytes one flush may send to a reader that keeps pace before the
/// reactor turns to its other connections; EPOLLOUT resumes the pump on
/// the next tick. A slower reader fills the socket buffer first.
constexpr std::size_t kPumpTurnBytes = 4 * 1024 * 1024;

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

Server::Server(ServerOptions options, HandlerFn handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  listener_ = net::TcpListener::listen(options_.port, options_.host);
  port_ = listener_.local_port();
  listener_.set_nonblocking(true);

  // The reactor thread occupies one core; handlers get the rest. On a
  // single-core host one worker minimizes scheduler churn between the
  // reader and the handler.
  std::size_t cores = util::Thread::hardware_concurrency();
  pool_ = std::make_unique<util::ThreadPool>(cores > 1 ? cores - 1 : 1);
  reactor_ = std::make_unique<net::Reactor>();
  reactor_->add(listener_.fd(), net::Reactor::kRead,
                [this](std::uint32_t) { on_acceptable(); });
  reactor_thread_ = util::Thread([this] { reactor_->run(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Once the reactor has joined, no thread touches a connection: workers
  // only compute, and the replies they post now wait in a reactor that
  // never runs them.
  listener_.shutdown();
  reactor_->stop();
  // clarens-lint: allow(reactor-blocking): stop() runs on a control thread, never on the reactor it is joining.
  if (reactor_thread_.joinable()) reactor_thread_.join();
  pool_.reset();
  conns_.clear();
  // The reactor's callbacks and unrun tasks hold the last connection
  // references; dropping them closes every fd.
  reactor_.reset();
  listener_.close();
}

void Server::on_acceptable() {
  for (;;) {
    std::optional<net::TcpConnection> tcp;
    try {
      tcp = listener_.accept_nonblocking();
    } catch (const SystemError&) {
      return;  // listener shut down, or transient accept failure
    }
    if (!tcp) return;
    if (!running_.load()) return;

    if (conns_.size() >= options_.max_connections) {
      // Shed load. Best-effort and non-blocking: a slow or hostile
      // client must not stall the accept path.
      try {
        tcp->set_nonblocking(true);
        std::string wire = Response::make(503, "server busy\n").serialize();
        tcp->write_some(as_bytes(wire));
      } catch (const SystemError&) {
      }
      continue;  // destructor closes; client sees 503 then EOF
    }
    admit(std::move(*tcp));
  }
}

void Server::admit(net::TcpConnection tcp) {
  try {
    tcp.set_nonblocking(true);
    // RPC traffic is small request/response pairs; never batch them
    // behind Nagle while the peer sits on a delayed ACK.
    tcp.set_nodelay(true);
  } catch (const SystemError&) {
    return;
  }
  auto conn = std::make_shared<Conn>(std::move(tcp));
  if (options_.tls) {
    // TLS connections join the reactor like plaintext ones: the sans-IO
    // engine turns readable ciphertext into handshake flights and
    // plaintext without ever blocking for the peer.
    conn->engine =
        std::make_unique<tls::Engine>(tls::Engine::Role::Server, *options_.tls);
    conn->peer.encrypted = true;
  }
  int fd = conn->tcp.fd();
  conns_[fd] = conn;
  reactor_->add(fd, net::Reactor::kRead, [this, conn](std::uint32_t ready) {
    on_event(conn, ready);
  });
}

void Server::on_event(const std::shared_ptr<Conn>& conn, std::uint32_t ready) {
  if (!conn->tcp.valid()) return;
  if (ready & net::Reactor::kWrite) flush(conn);
  if (!conn->tcp.valid()) return;  // flush may have closed the connection
  if (ready & net::Reactor::kRead) {
    // Reads stop once a connection is closing, so this is a hang-up or a
    // socket error: nobody is left to answer.
    if (conn->closing) {
      close_conn(conn);
      return;
    }
    on_readable(conn);
  }
  maybe_dispatch(conn);
}

void Server::on_readable(const std::shared_ptr<Conn>& conn) {
  std::array<std::uint8_t, 64 * 1024> chunk;
  auto parse = [&](std::size_t n) {
    conn->parser.feed(std::span<const std::uint8_t>(chunk.data(), n));
    while (std::optional<Request> request = conn->parser.next()) {
      Conn::Pending item;
      const DispatchOptions& d = options_.dispatch;
      if (d.inline_dispatch && d.cost_key &&
          request->body.size() <= kInlineMaxBody) {
        item.cost_key = d.cost_key(*request);
      }
      item.request = std::move(*request);
      conn->ready.push_back(std::move(item));
    }
  };

  bool eof = false;
  try {
    for (;;) {
      std::optional<std::size_t> n = conn->tcp.read_some(chunk);
      if (!n) break;  // drained the socket buffer
      if (*n == 0) {
        eof = true;  // client closed
        break;
      }
      if (!conn->engine) {
        parse(*n);
      } else {
        thread_local util::Buffer flight;
        flight.clear();
        try {
          conn->engine->feed(std::span<const std::uint8_t>(chunk.data(), *n),
                             flight);
        } catch (const Error& e) {
          CLARENS_LOG(Debug) << "TLS failure: " << e.what();
          // Best-effort alert, unless response bytes are queued ahead of it.
          try {
            if (flight.readable() != 0 && conn->outbox.readable() == 0 &&
                !conn->pump) {
              conn->tcp.write_some(flight.peek());
            }
          } catch (const SystemError&) {
          }
          // A failed engine can seal no further record, so nothing still
          // queued, computing or pumping could reach the peer: close now.
          close_conn(conn);
          return;
        }
        if (flight.readable() != 0) {
          std::array<std::string_view, 1> out = {flight.peek_view()};
          write_or_park(conn, out);
        }
        if (conn->engine->handshake_done() && !conn->peer_set) {
          conn->peer_set = true;
          conn->peer.tls_identity = conn->engine->peer();
          conn->peer.chain = conn->engine->peer_chain();
        }
        while (conn->engine->plain_available() > 0) {
          parse(conn->engine->read_plain(chunk));
        }
      }
      // A short read almost always means the buffer is drained; skip the
      // EAGAIN probe. Level-triggered epoll re-reports any residue.
      if (*n < chunk.size()) break;
    }
  } catch (const ParseError&) {
    conn->bad = true;
    eof = true;
  } catch (const SystemError&) {
    eof = true;
  }
  if (eof) set_closing(*conn);
}

void Server::maybe_dispatch(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    // A response being computed, or one waiting for EPOLLOUT, holds the
    // queue: that is what keeps pipelined responses in order.
    if (!conn->tcp.valid() || conn->busy ||
        (conn->interest & net::Reactor::kWrite)) {
      return;
    }
    // Starts the file pump an inline emit() left behind.
    if (!flush(conn)) return;
    if (conn->ready.empty()) {
      if (!conn->closing) return;
      if (!conn->bad) {
        close_conn(conn);
        return;
      }
      // Malformed stream: answer 400, then close once it has drained.
      Request malformed;
      malformed.headers.set("Connection", "close");
      Reply refusal;
      refusal.response = Response::make(400, "malformed request\n");
      emit(conn, malformed, std::move(refusal));
      continue;
    }

    Conn::Pending item = std::move(conn->ready.front());
    conn->ready.pop_front();
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (!inline_eligible(item)) {
      spill(conn, std::move(item));
      return;
    }
    inlined_.fetch_add(1, std::memory_order_relaxed);
    // The body may view the handler's arena; emit() writes or parks it
    // before the reactor runs another handler.
    Reply reply = run_handler(item.request, conn->peer);
    budget_spent_us_ += reply.handler_us;
    note_cost(item.cost_key, reply.handler_us);
    emit(conn, item.request, std::move(reply));
  }
}

void Server::spill(const std::shared_ptr<Conn>& conn, Conn::Pending item) {
  conn->busy = true;
  pool_->submit([this, conn, item = std::move(item)]() mutable {
    auto reply = std::make_shared<Reply>(run_handler(item.request, conn->peer));
    // A body view points into the handler's thread-local arena, which this
    // worker overwrites on its next request: the reply must own its bytes.
    Response& response = reply->response;
    if (response.body_view) {
      response.body.assign(*response.body_view);
      response.body_view.reset();
    }
    reactor_->post([this, conn, item = std::move(item), reply] {
      conn->busy = false;
      note_cost(item.cost_key, reply->handler_us);
      if (!conn->tcp.valid()) return;  // closed while the handler ran
      emit(conn, item.request, std::move(*reply));
      maybe_dispatch(conn);
    });
  });
}

Server::Reply Server::run_handler(const Request& request, const Peer& peer) {
  Reply reply;
  util::Stopwatch watch;
  try {
    reply.response = handler_(request, peer);
  } catch (const std::exception& e) {
    reply.response = Response::make(500, std::string(e.what()) + "\n");
  }
  reply.handler_us = watch.seconds() * 1e6;
  if (!reply.response.file) return reply;

  // Resolve the file region on this thread, so the reactor never opens or
  // stats a file: it gets an open fd and a clamped range, or a 404.
  Response& response = reply.response;
  Response::FileRegion region = std::move(*response.file);
  response.file.reset();
  net::Fd fd(::open(region.path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) {
    response = Response::make(404, "file not found\n");
    return reply;
  }
  FileBody file;
  if (region.head.empty()) {
    // GET-style region: clamp to the file as it is now.
    struct stat st{};
    if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
      response = Response::make(404, "not a regular file\n");
      return reply;
    }
    file.offset = std::clamp<std::int64_t>(region.offset, 0, st.st_size);
    std::int64_t length = region.length;
    if (length < 0 || length > st.st_size - file.offset) {
      length = st.st_size - file.offset;
    }
    file.length = static_cast<std::size_t>(length);
  } else {
    // RPC envelope: the handler clamped the range, and head/tail carry
    // the serialized framing around the raw bytes.
    file.offset = region.offset;
    file.length = static_cast<std::size_t>(region.length);
  }
  if (file.length != 0) {
    // Start the disk read here, off the reactor, so the pump's sendfile or
    // pread finds the range cached or already in flight. Sequential advice
    // widens the kernel's own readahead past the first window.
    ::posix_fadvise(fd.get(), file.offset, 0, POSIX_FADV_SEQUENTIAL);
    ::posix_fadvise(fd.get(), file.offset,
                    static_cast<off_t>(std::min(file.length, kReadaheadBytes)),
                    POSIX_FADV_WILLNEED);
  }
  file.fd = std::move(fd);
  file.tail = std::move(region.tail);
  response.body = std::move(region.head);
  response.body_view.reset();
  reply.file = std::move(file);
  return reply;
}

void Server::emit(const std::shared_ptr<Conn>& conn, const Request& request,
                  Reply reply) {
  Response& response = reply.response;
  if (!request.keep_alive()) {
    response.headers.set("Connection", "close");
    conn->ready.clear();
    conn->bad = false;
    set_closing(*conn);
  }
  std::string_view body = response.effective_body();
  std::size_t length = body.size();
  if (reply.file) length += reply.file->length + reply.file->tail.size();
  thread_local util::Buffer head;
  head.clear();
  response.serialize_head_into(head, length);
  bool head_only = request.method == "HEAD";
  std::array<std::string_view, 2> chunks = {
      head.peek_view(), head_only ? std::string_view() : body};
  try {
    send(conn, chunks);
  } catch (const SystemError&) {
    close_conn(conn);  // peer vanished mid-write
    return;
  }
  if (reply.file && !head_only) conn->pump = std::move(reply.file);
}

bool Server::send(const std::shared_ptr<Conn>& conn,
                  std::span<const std::string_view> chunks) {
  if (!conn->engine) return write_or_park(conn, chunks);
  if (!conn->engine->handshake_done()) {
    throw SystemError("TLS channel is not established");
  }
  thread_local util::Buffer wire;
  wire.clear();
  conn->engine->encrypt(chunks, wire);
  std::array<std::string_view, 1> sealed = {wire.peek_view()};
  return write_or_park(conn, sealed);
}

bool Server::write_or_park(const std::shared_ptr<Conn>& conn,
                           std::span<const std::string_view> chunks) {
  std::size_t written = 0;
  if (conn->outbox.readable() == 0) {
    written = conn->tcp.writev_some(chunks);
  }
  // Park whatever the socket did not take (everything, if earlier bytes
  // are already parked — ordering is the outbox's whole point).
  std::size_t skip = written;
  bool parked = false;
  for (std::string_view chunk : chunks) {
    if (skip >= chunk.size()) {
      skip -= chunk.size();
      continue;
    }
    conn->outbox.write(chunk.substr(skip));
    skip = 0;
    parked = true;
  }
  if (!parked) return true;
  watch(*conn, true);
  return false;
}

bool Server::flush(const std::shared_ptr<Conn>& conn) {
  std::size_t turn = 0;
  try {
    if (conn->outbox.readable() != 0) {
      conn->outbox.consume(conn->tcp.write_some(conn->outbox.peek()));
      if (conn->outbox.readable() != 0) {
        watch(*conn, true);
        return false;
      }
    }
    while (conn->pump) {
      FileBody& file = *conn->pump;
      if (file.length == 0) {
        std::string tail = std::move(file.tail);
        conn->pump.reset();
        std::array<std::string_view, 1> chunks = {tail};
        if (!send(conn, chunks)) return false;
        break;
      }
      if (turn >= kPumpTurnBytes) {
        watch(*conn, true);  // the socket is still writable: resume next tick
        return false;
      }
      if (!conn->engine && !file.copy) {
        std::optional<std::size_t> sent =
            conn->tcp.sendfile_some(file.fd.get(), file.offset, file.length);
        if (!sent) {
          file.copy = true;  // the kernel refuses sendfile for this file
          continue;
        }
        if (*sent == 0) {
          watch(*conn, true);
          return false;
        }
        file.offset += static_cast<std::int64_t>(*sent);
        file.length -= *sent;
        turn += *sent;
        continue;
      }
      std::array<char, kFileChunk> chunk;
      ssize_t n = ::pread(file.fd.get(), chunk.data(),
                          std::min(file.length, chunk.size()), file.offset);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        // The Content-Length is committed; a file truncated since it was
        // opened can only be answered by killing the connection.
        throw SystemError("file region shrank mid-response");
      }
      std::size_t got = static_cast<std::size_t>(n);
      file.offset += n;
      file.length -= got;
      turn += got;
      std::array<std::string_view, 1> chunks = {
          std::string_view(chunk.data(), got)};
      if (!send(conn, chunks)) return false;
    }
  } catch (const SystemError&) {
    close_conn(conn);
    return false;
  }
  conn->outbox.compact();
  watch(*conn, false);
  return true;
}

void Server::set_closing(Conn& conn) {
  conn.closing = true;
  watch(conn, (conn.interest & net::Reactor::kWrite) != 0);
}

void Server::watch(Conn& conn, bool write) {
  // A closing connection reads no more; EPOLLHUP/EPOLLERR still arrive.
  std::uint32_t interest = 0;
  if (!conn.closing) interest |= net::Reactor::kRead;
  if (write) interest |= net::Reactor::kWrite;
  if (interest == conn.interest || !conn.tcp.valid()) return;
  reactor_->modify(conn.tcp.fd(), interest);
  conn.interest = interest;
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (!conn->tcp.valid()) return;  // already torn down (idempotent)
  int fd = conn->tcp.fd();
  reactor_->remove(fd);
  conn->tcp.close();
  conn->pump.reset();  // close the file now, not when the last reference goes
  conns_.erase(fd);
}

bool Server::inline_eligible(const Conn::Pending& item) {
  if (item.cost_key.empty()) return false;
  std::uint64_t tick = reactor_->ticks();
  if (tick != budget_tick_) {
    budget_tick_ = tick;
    budget_spent_us_ = 0;
  }
  if (budget_spent_us_ >= kInlineBudgetUs) return false;
  // Unknown methods get the optimistic answer: run inline once, measure,
  // and let the EWMA evict them if they turn out slow.
  auto it = costs_.find(item.cost_key);
  return it == costs_.end() || it->second < kInlineCostLimitUs;
}

void Server::note_cost(const std::string& key, double us) {
  if (key.empty()) return;
  auto [it, fresh] = costs_.try_emplace(key, us);
  if (!fresh) it->second = 0.7 * it->second + 0.3 * us;
}

}  // namespace clarens::http
