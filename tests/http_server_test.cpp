// Reactor/worker-pool server behaviours that the basic end-to-end tests
// in http_test.cpp do not pin down: keep-alive pipelining (multiple
// requests in one TCP segment, responses in order), requests arriving in
// arbitrary partial pieces, Connection: close semantics, the non-blocking
// 503 load-shed path, many concurrent keep-alive connections, prompt
// stop() with idle connections still open, clients that never read their
// file bodies, workers handing arena-backed bodies to the reactor, and a
// TLS peer whose channel fails while its response is still on the way.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "net/socket.hpp"
#include "test_fixtures.hpp"
#include "tls/channel.hpp"
#include "util/sync.hpp"

namespace clarens::http {
namespace {

Server make_echo_server(ServerOptions options = {}) {
  return Server(std::move(options), [](const Request& request, const Peer&) {
    return Response::make(200, "echo:" + request.body);
  });
}

/// Read responses off `conn` until `count` have parsed (or EOF).
std::vector<Response> read_responses(net::TcpConnection& conn,
                                     std::size_t count) {
  std::vector<Response> out;
  ResponseParser parser;
  std::array<std::uint8_t, 8192> buf;
  while (out.size() < count) {
    while (auto response = parser.next()) {
      out.push_back(std::move(*response));
      if (out.size() == count) return out;
    }
    std::size_t n = conn.read(buf);
    if (n == 0) break;
    parser.feed(std::span<const std::uint8_t>(buf.data(), n));
  }
  while (auto response = parser.next()) out.push_back(std::move(*response));
  return out;
}

std::string post(const std::string& body) {
  return "POST / HTTP/1.1\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

TEST(ServerPipelining, TwoRequestsInOneSegmentAnsweredInOrder) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  // One write_all → very likely one TCP segment; either way both requests
  // sit in the parser before the first response is produced.
  conn.write_all(post("one") + post("two"));
  std::vector<Response> responses = read_responses(conn, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:one");
  EXPECT_EQ(responses[1].body, "echo:two");
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
}

TEST(ServerPipelining, DeepPipelineStaysOrdered) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire;
  for (int i = 0; i < 20; ++i) wire += post("r" + std::to_string(i));
  conn.write_all(wire);
  std::vector<Response> responses = read_responses(conn, 20);
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i].body, "echo:r" + std::to_string(i));
  }
  server.stop();
}

TEST(ServerPipelining, PartialRequestAcrossManyWrites) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire = post("split-fed body");
  // Dribble the request a few bytes at a time; the reactor must keep the
  // parser state across reads and only dispatch once it completes.
  for (std::size_t i = 0; i < wire.size(); i += 5) {
    conn.write_all(std::string_view(wire).substr(i, 5));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:split-fed body");
  server.stop();
}

TEST(ServerPipelining, ConnectionCloseHonored) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.write_all(std::string_view(
      "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye"));
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:bye");
  EXPECT_EQ(responses[0].headers.get_or("Connection", ""), "close");
  // Server closes: the next read reaches EOF rather than blocking.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(conn.read(buf), 0u);
  server.stop();
}

TEST(ServerPipelining, Http10ImpliesClose) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.write_all(std::string_view("GET / HTTP/1.0\r\n\r\n"));
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(conn.read(buf), 0u);
  server.stop();
}

TEST(ServerLoadShed, OverLimitConnectionGets503WithoutBlocking) {
  ServerOptions options;
  options.max_connections = 1;
  Server server = make_echo_server(std::move(options));
  server.start();

  // Complete a request on the first connection so it is fully admitted
  // before the second one arrives.
  net::TcpConnection first =
      net::TcpConnection::connect("127.0.0.1", server.port());
  first.write_all(post("hold"));
  ASSERT_EQ(read_responses(first, 1).size(), 1u);

  net::TcpConnection second =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::vector<Response> responses = read_responses(second, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  // Shed connections are closed right after the refusal.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(second.read(buf), 0u);

  // The admitted connection keeps working.
  first.write_all(post("still here"));
  std::vector<Response> again = read_responses(first, 1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].body, "echo:still here");
  server.stop();
}

TEST(ServerConcurrency, ManyKeepAliveConnectionsInParallel) {
  Server server = make_echo_server();
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 10;
  std::atomic<int> failures{0};
  std::vector<util::Thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::TcpConnection conn =
            net::TcpConnection::connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsEach; ++i) {
          std::string body = std::to_string(c) + ":" + std::to_string(i);
          conn.write_all(post(body));
          std::vector<Response> responses = read_responses(conn, 1);
          if (responses.size() != 1 || responses[0].body != "echo:" + body) {
            ++failures;
            return;
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  server.stop();
}

// --- Adaptive inline dispatch -------------------------------------------
//
// With a cost key configured, measured-cheap requests run directly on the
// reactor thread; everything else (no key, measured-slow, over budget)
// takes the worker-pool handoff. The split must be invisible on the wire:
// per-connection ordering and response bytes are identical either way.

ServerOptions inline_options(
    std::function<std::string(const Request&)> cost_key) {
  ServerOptions options;
  options.dispatch.inline_dispatch = true;
  options.dispatch.cost_key = std::move(cost_key);
  return options;
}

TEST(ServerInlineDispatch, CheapRequestsRunOnTheReactor) {
  Server server = make_echo_server(
      inline_options([](const Request& request) { return request.target; }));
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    conn.write_all(post("ping" + std::to_string(i)));
    std::vector<Response> responses = read_responses(conn, 1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].body, "echo:ping" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 10u);
  // An unknown method is optimistically inlined and the echo handler is
  // far cheaper than the cost ceiling, so every request stays inline.
  EXPECT_EQ(server.requests_inlined(), 10u);
  server.stop();
}

TEST(ServerInlineDispatch, PipelinedMixOfInlineAndSpilledStaysOrdered) {
  // Odd-length bodies get no cost key, forcing the worker-pool path;
  // even ones are inline-eligible. All 20 ride one TCP segment, starting
  // with an eligible request so the reactor takes the queue first; the
  // first odd body then hands the busy token (and the rest of the queue)
  // to a worker. Responses must come back in request order regardless of
  // which side produced them.
  Server server = make_echo_server(inline_options([](const Request& request) {
    return request.body.size() % 2 == 0 ? "cheap" : std::string();
  }));
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    wire += post(std::string(static_cast<std::size_t>(i) + 2, 'a'));
  }
  conn.write_all(wire);
  std::vector<Response> responses = read_responses(conn, 20);
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i].body,
              "echo:" + std::string(static_cast<std::size_t>(i) + 2, 'a'));
  }
  EXPECT_EQ(server.requests_served(), 20u);
  std::uint64_t inlined = server.requests_inlined();
  EXPECT_GT(inlined, 0u);
  EXPECT_LT(inlined, 20u);
  server.stop();
}

TEST(ServerInlineDispatch, MeasuredSlowMethodsStopBeingInlined) {
  ServerOptions options;
  options.dispatch.inline_dispatch = true;
  options.dispatch.cost_key = [](const Request&) { return "slow.method"; };
  Server server(std::move(options), [](const Request& request, const Peer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return Response::make(200, "echo:" + request.body);
  });
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 8; ++i) {
    conn.write_all(post("r" + std::to_string(i)));
    ASSERT_EQ(read_responses(conn, 1).size(), 1u);
  }
  EXPECT_EQ(server.requests_served(), 8u);
  // The first call is optimistically inlined (unknown cost); its 3 ms
  // measurement lands far above the 500 µs ceiling, so the EWMA keeps
  // every later call on the worker pool.
  EXPECT_LE(server.requests_inlined(), 2u);
  server.stop();
}

TEST(ServerInlineDispatch, DisabledMeansEveryRequestTakesAWorker) {
  ServerOptions options =
      inline_options([](const Request&) { return "cheap"; });
  options.dispatch.inline_dispatch = false;
  Server server = make_echo_server(std::move(options));
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    conn.write_all(post("x"));
    ASSERT_EQ(read_responses(conn, 1).size(), 1u);
  }
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(server.requests_inlined(), 0u);
  server.stop();
}

TEST(ServerStop, ReturnsPromptlyWithIdleConnectionOpen) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection idle =
      net::TcpConnection::connect("127.0.0.1", server.port());
  // Serve one request so the connection is definitely registered.
  idle.write_all(post("x"));
  ASSERT_EQ(read_responses(idle, 1).size(), 1u);

  auto begin = std::chrono::steady_clock::now();
  server.stop();
  auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // The idle connection was torn down, not leaked to a detached thread.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(idle.read(buf), 0u);
}

// --- Workers compute, the reactor writes ---------------------------------

TEST(ServerSlowClients, NonReadingClientsCannotStarveThePool) {
  // A sparse 32 MiB file: far more than the socket buffers hold.
  testing::TempDir tmp;
  std::string path = tmp.path() + "/big.bin";
  {
    net::Fd out(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
    ASSERT_TRUE(out.valid());
    ASSERT_EQ(::ftruncate(out.get(), 32 << 20), 0);
  }
  // No cost key: every request spills to the worker pool.
  Server server(ServerOptions{}, [&path](const Request& request, const Peer&) {
    if (request.target != "/big") return Response::make(200, "echo:" + request.body);
    Response response = Response::make(200, "", "application/octet-stream");
    response.file = Response::FileRegion{path, 0, -1};
    return response;
  });
  server.start();

  // As many clients as there are cores (the pool has one worker fewer)
  // ask for the file and never read it.
  std::vector<net::TcpConnection> stalled;
  unsigned clients = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < clients; ++i) {
    stalled.push_back(net::TcpConnection::connect("127.0.0.1", server.port()));
    stalled.back().write_all(std::string_view("GET /big HTTP/1.1\r\n\r\n"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  net::TcpConnection fresh =
      net::TcpConnection::connect("127.0.0.1", server.port());
  fresh.write_all(post("fresh"));
  pollfd pfd{fresh.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "spilled request starved";
  std::vector<Response> responses = read_responses(fresh, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:fresh");

  auto begin = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(2));
}

TEST(ServerHandoff, WorkerArenaBodiesReachTheirOwnRequests) {
  // The handler answers from a thread-local arena, as core::ClarensServer
  // does; a worker overwrites it on its next request, so a body must
  // leave the worker owned. Fixed-size payloads keep the arena's storage
  // in place, so a missing copy shows up as a wrong reply.
  Server server(ServerOptions{}, [](const Request& request, const Peer&) {
    thread_local std::string arena;
    arena.assign(4096, '.');
    arena.replace(0, request.body.size(), request.body);
    Response response;
    response.body_view = arena;
    return response;
  });
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 200;
  std::atomic<int> mismatches{0};
  std::vector<util::Thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::TcpConnection conn =
            net::TcpConnection::connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsEach; ++i) {
          std::string body = "client " + std::to_string(c) + " request " +
                             std::to_string(i);
          conn.write_all(post(body));
          std::vector<Response> responses = read_responses(conn, 1);
          if (responses.size() != 1 ||
              responses[0].body.compare(0, body.size(), body) != 0) {
            ++mismatches;
          }
        }
      } catch (...) {
        ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.requests_inlined(), 0u);
  server.stop();
}

// --- A failed TLS channel closes at once ----------------------------------

/// A TLS server whose handler streams a sparse 64 MiB file for /big (more
/// than loopback socket buffers hold, so the pump is still running), takes
/// 300 ms for /slow, and echoes anything else.
class ServerTlsFailure : public ::testing::Test {
 protected:
  ServerTlsFailure() : path_(tmp_.path() + "/big.bin") {
    net::Fd out(::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
    EXPECT_TRUE(out.valid());
    EXPECT_EQ(::ftruncate(out.get(), 64 << 20), 0);
    const testing::TestPki& pki = testing::TestPki::instance();
    ServerOptions options;
    tls::TlsConfig tls;
    tls.credential = pki.server;
    tls.trust = &pki.trust;
    options.tls = std::move(tls);
    server_ = std::make_unique<Server>(
        std::move(options), [this](const Request& request, const Peer&) {
          if (request.target == "/slow") {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
          }
          if (request.target != "/big") {
            return Response::make(200, "echo:" + request.target);
          }
          Response response = Response::make(200, "", "application/octet-stream");
          response.file = Response::FileRegion{path_, 0, -1};
          return response;
        });
    server_->start();
  }

  /// A TLS client; `raw_fd` receives the socket under it.
  std::unique_ptr<tls::SecureChannel> connect(int* raw_fd = nullptr) {
    auto tcp = std::make_unique<net::TcpConnection>(
        net::TcpConnection::connect("127.0.0.1", server_->port()));
    int bytes = 64 * 1024;
    ::setsockopt(tcp->fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    if (raw_fd) *raw_fd = tcp->fd();
    tls::TlsConfig tls;
    tls.trust = &testing::TestPki::instance().trust;
    return tls::SecureChannel::connect(std::move(tcp), tls);
  }

  /// Writes a record the server's engine must reject straight onto the
  /// socket, then reads until the server closes it.
  static void corrupt_and_drain(int fd) {
    std::string garbage = std::string("\x02\x00\x00\x00\x20", 5) +
                          std::string(32, '\xab');
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    std::array<char, 64 * 1024> buf;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "server kept the failed channel open";
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 100) != 1) continue;
      if (::recv(fd, buf.data(), buf.size(), 0) <= 0) return;  // EOF or reset
    }
  }

  /// Another client still gets answers.
  void expect_serving() {
    std::unique_ptr<tls::SecureChannel> other = connect();
    other->write_all(std::string_view("GET /ping HTTP/1.1\r\n\r\n"));
    ResponseParser parser;
    std::array<std::uint8_t, 8192> buf;
    for (;;) {
      if (auto response = parser.next()) {
        EXPECT_EQ(response->body, "echo:/ping");
        return;
      }
      std::size_t n = other->read(buf);
      ASSERT_NE(n, 0u) << "no response";
      parser.feed(std::span<const std::uint8_t>(buf.data(), n));
    }
  }

  testing::TempDir tmp_;
  std::string path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTlsFailure, CorruptRecordMidFileBodyClosesOnlyThatConnection) {
  int fd = -1;
  std::unique_ptr<tls::SecureChannel> client = connect(&fd);
  client->write_all(std::string_view("GET /big HTTP/1.1\r\n\r\n"));
  // Take part of the body so the file pump is mid-transfer.
  std::array<std::uint8_t, 16 * 1024> buf;
  std::size_t got = 0;
  while (got < 256 * 1024) {
    std::size_t n = client->read(buf);
    ASSERT_NE(n, 0u);
    got += n;
  }
  corrupt_and_drain(fd);
  expect_serving();
  server_->stop();
}

TEST_F(ServerTlsFailure, CorruptRecordWhileSpilledRequestsWaitClosesOnlyThatConnection) {
  int fd = -1;
  std::unique_ptr<tls::SecureChannel> client = connect(&fd);
  // One request computing on a worker, one queued behind it.
  client->write_all(std::string_view(
      "GET /slow HTTP/1.1\r\n\r\nGET /next HTTP/1.1\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  corrupt_and_drain(fd);
  // The worker's reply lands on a connection that is already gone.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  expect_serving();
  server_->stop();
}

}  // namespace
}  // namespace clarens::http
