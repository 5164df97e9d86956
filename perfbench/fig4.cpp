// rpc_fig4: the paper's Fig. 4 — keep-alive connections driven from one
// epoll thread, each calling system.list_methods over XML-RPC under a
// session, with the two access checks per call. The benchmark's own
// driver times every call and checks every response.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/server.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "rpc/protocol.hpp"
#include "servers.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr const char* kMethod = "system.list_methods";

struct Conn {
  int fd = -1;
  std::string session;
  std::string request;  // wire bytes, identical for every call
  std::size_t sent = 0;
  std::string in;
  std::int64_t t0 = 0;
  std::uint64_t op_id = 0;
  int op_span = -1;
  int call_span = -1;
  bool active = false;
};

std::string request_wire(const std::string& session) {
  rpc::Request call;
  call.method = kMethod;
  call.id = rpc::Value(std::int64_t{1});
  http::Request request;
  request.method = "POST";
  request.target = "/clarens";
  request.headers.set("Content-Type", rpc::content_type(rpc::Protocol::XmlRpc));
  request.headers.set("Host", "127.0.0.1");
  request.headers.set("X-Clarens-Session", session);
  request.body = rpc::serialize_request(rpc::Protocol::XmlRpc, call);
  return request.serialize();
}

class Fig4 {
 public:
  Fig4(const Options& options, RunResult& result)
      : options_(options), result_(result), pki_(options.seed, 0) {}

  void run();

 private:
  void make_sessions();
  void start_server();
  void stop_server();
  /// Drive every connection closed-loop: until `calls` calls completed
  /// (warm-up, deadline 0) or until the window's deadline passes.
  OpLog drive(std::uint64_t calls, double seconds, SpanLog* log,
              Window* window);
  std::string complete(Conn& conn, int status,
                       std::string_view body, SpanLog* log);
  void replay_layers(Conn& conn, std::string_view body, SpanLog* log);
  void issue(Conn& conn, SpanLog* log);

  const Options& options_;
  RunResult& result_;
  Pki pki_;
  std::string state_dir_;
  std::vector<std::string> tokens_;
  std::unique_ptr<core::ClarensServer> server_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  std::string expected_body_;
  std::uint64_t next_op_ = 0;
  std::size_t response_bytes_ = 0;
};

void Fig4::make_sessions() {
  // Each connection calls under one session of the seeded population.
  state_dir_ = options_.work_dir + "/state";
  const std::uint64_t population = session_population(options_);
  Rng rng(options_.seed ^ 0xf164);
  std::vector<std::uint64_t> picks;
  for (int i = 0; i < kConnections; ++i) picks.push_back(rng.below(population));
  tokens_ = make_session_store(state_dir_, options_.seed, population, picks);
}

void Fig4::start_server() {
  core::ClarensConfig config = paper_config(pki_);
  config.data_dir = state_dir_;
  server_ = std::make_unique<core::ClarensServer>(std::move(config));
  server_->start();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  conns_.assign(kConnections, Conn{});
  for (int c = 0; c < kConnections; ++c) {
    Conn& conn = conns_[static_cast<std::size_t>(c)];
    conn.fd = tcp_connect(server_->port());
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    conn.session = tokens_[static_cast<std::size_t>(c)];
    conn.request = request_wire(conn.session);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(c);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
  }
}

void Fig4::stop_server() {
  for (Conn& conn : conns_) ::close(conn.fd);
  conns_.clear();
  ::close(epoll_fd_);
  server_->stop();
  server_.reset();
}

void Fig4::issue(Conn& conn, SpanLog* log) {
  conn.op_id = ++next_op_;
  conn.t0 = now_ns();
  conn.op_span = log ? log->begin("op", -1, conn.op_id) : -1;
  conn.call_span = log ? log->begin("client.call", conn.op_span, conn.op_id) : -1;
  conn.sent = 0;
  conn.active = true;
  while (conn.sent < conn.request.size()) {
    ssize_t n = ::send(conn.fd, conn.request.data() + conn.sent,
                       conn.request.size() - conn.sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      // A request of a few hundred bytes fits any socket buffer; a full
      // buffer here means the server stopped reading.
      throw std::runtime_error("send() failed or would block");
    }
  }
}

void Fig4::replay_layers(Conn& conn, std::string_view body, SpanLog* log) {
  const std::uint64_t op = conn.op_id;
  const int parent = conn.op_span;
  std::optional<http::Request> request = replay(log, "http.parse", parent, op, [&] {
    http::RequestParser parser;
    parser.feed(std::string_view(conn.request));
    return parser.next();
  });
  rpc::Request call = replay(log, "rpc.decode", parent, op, [&] {
    return rpc::parse_request(rpc::Protocol::XmlRpc, request->body);
  });
  auto session = replay(log, "core.session_lookup", parent, op, [&] {
    return server_->sessions().lookup_shared(conn.session);
  });
  bool allowed = replay(log, "core.acl_check", parent, op, [&] {
    return server_->acl().check_method(call.method, session->identity_dn);
  });
  rpc::Value value = replay(log, "core.dispatch", parent, op, [&] {
    std::shared_ptr<const rpc::Method> method = server_->registry().find(call.method);
    rpc::CallContext context;
    context.identity = session->identity;
    context.session_id = session->id;
    context.protocol = "xmlrpc";
    return method->handler(context, call.params);
  });
  std::string encoded = replay(log, "rpc.encode", parent, op, [&] {
    return rpc::serialize_response(rpc::Protocol::XmlRpc,
                                   rpc::Response::success(std::move(value)));
  });
  response_bytes_ = encoded.size();
  if (!allowed || encoded.size() != body.size()) {
    throw std::runtime_error("layer replay disagrees with the live call");
  }
}

std::string Fig4::complete(Conn& conn, int status,
                           std::string_view body, SpanLog* log) {
  if (log) log->end(conn.call_span);
  std::string failure;
  if (status != 200) {
    failure = "http status " + std::to_string(status);
  } else if (expected_body_.empty()) {
    // The first answer is decoded and checked against the registry; every
    // later one must match it byte for byte.
    rpc::Response response = rpc::parse_response(rpc::Protocol::XmlRpc, body);
    std::vector<std::string> names;
    if (!response.is_fault) {
      for (const rpc::Value& v : response.result.as_array()) names.push_back(v.as_string());
    }
    if (names.empty() || names != server_->registry().list()) {
      failure = "list_methods response differs from the registry";
    } else {
      expected_body_ = body;
    }
  } else if (body != expected_body_) {
    failure = "list_methods response differs from the registry";
  } else if (log) {
    replay_layers(conn, body, log);
  }
  if (log) log->end(conn.op_span);
  return failure;
}

OpLog Fig4::drive(std::uint64_t calls, double seconds, SpanLog* log,
                  Window* window) {
  OpLog ops;
  std::int64_t deadline = 0;
  if (window) {
    window->begin();
    deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  }
  std::uint64_t issued = 0;
  auto more = [&] {
    return window ? now_ns() < deadline : issued < calls;
  };
  int active = 0;
  for (Conn& conn : conns_) {
    if (!more()) break;
    issue(conn, log);
    ++issued;
    ++active;
  }
  epoll_event events[kConnections];
  char buffer[64 * 1024];
  while (active > 0) {
    int n = ::epoll_wait(epoll_fd_, events, kConnections, 5000);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server stopped answering");
    for (int i = 0; i < n; ++i) {
      Conn& conn = conns_[events[i].data.u32];
      for (;;) {
        ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          conn.in.append(buffer, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("server closed a keep-alive connection");
      }
      ResponseHead head;
      if (!conn.active || !parse_head(conn.in, &head) ||
          conn.in.size() < head.header_bytes + head.content_length) {
        continue;
      }
      std::size_t body_len = head.content_length;
      std::size_t total = head.header_bytes + body_len;
      std::string failure;
      try {
        failure = complete(conn, head.status,
                           std::string_view(conn.in).substr(head.header_bytes, body_len), log);
      } catch (const std::exception& e) {
        failure = std::string("exception: ") + e.what();
      }
      ops.latency.add_ns(now_ns() - conn.t0);
      ++ops.attempted;
      if (!failure.empty()) ops.fail(failure);
      conn.in.erase(0, total);
      conn.active = false;
      --active;
      if (more()) {
        issue(conn, log);
        ++issued;
        ++active;
      }
    }
  }
  if (window) window->end();
  return ops;
}

void Fig4::run() {
  make_sessions();
  const std::uint64_t warm_calls = options_.smoke ? 400 : 1000;
  const double window_s = RunResult::window_seconds(options_);
  if (options_.trace) result_.spans.emplace_back(0);
  Counters counters;
  for (int rep = 0; rep < options_.rounds; ++rep) {
    result_.begin_round();
    std::int64_t t0 = now_ns();
    start_server();
    if (expected_body_.empty() && drive(1, 0, nullptr, nullptr).failed) {
      result_.problem("first list_methods answer is wrong");
      stop_server();
      return;
    }
    if (drive(warm_calls, 0, nullptr, nullptr).failed) result_.problem("warm-up calls failed");
    result_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    Counters before = Counters::of({server_.get()});
    Window window;
    OpLog ops = drive(0, window_s, nullptr, &window);
    result_.add_window(window, ops);
    counters += Counters::of({server_.get()}) - before;
    if (options_.trace) {
      Window traced;
      OpLog traced_ops = drive(0, window_s, &result_.spans[0], &traced);
      result_.add_traced(traced, traced_ops);
    }
    stop_server();
    result_.end_round();
  }
  counters.report(result_, "");
  if (options_.trace) {
    result_.layers["rpc.response_bytes"] = {static_cast<double>(response_bytes_), "bytes",
                                            "XML-RPC list_methods response body"};
  }
  std::filesystem::remove_all(state_dir_);
}

}  // namespace

void run_fig4(const Options& options, RunResult& result) {
  Fig4 bench(options, result);
  bench.run();
}

}  // namespace perfbench
