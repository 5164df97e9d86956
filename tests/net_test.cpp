// Unit tests for sockets and the epoll reactor.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <fstream>
#include <optional>
#include <thread>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "test_fixtures.hpp"
#include "util/sync.hpp"

namespace clarens::net {
namespace {

TEST(Tcp, ListenerPicksEphemeralPort) {
  TcpListener listener = TcpListener::listen(0);
  EXPECT_GT(listener.local_port(), 0);
}

TEST(Tcp, EchoRoundTrip) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    std::array<std::uint8_t, 64> buf;
    std::size_t n = conn.read(buf);
    conn.write_all(std::span<const std::uint8_t>(buf.data(), n));
  });

  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  client.write_all(std::string_view("hello"));
  std::array<std::uint8_t, 64> buf;
  std::size_t n = client.read(buf);
  EXPECT_EQ(std::string(buf.begin(), buf.begin() + n), "hello");
  server.join();
}

TEST(Tcp, ReadReturnsZeroOnPeerClose) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    conn.close();
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  std::array<std::uint8_t, 8> buf;
  EXPECT_EQ(client.read(buf), 0u);
  server.join();
}

TEST(Tcp, ConnectToClosedPortThrows) {
  TcpListener listener = TcpListener::listen(0);
  std::uint16_t dead_port = listener.local_port();
  listener.close();
  EXPECT_THROW(TcpConnection::connect("127.0.0.1", dead_port), SystemError);
}

TEST(Tcp, InvalidAddressThrows) {
  EXPECT_THROW(TcpConnection::connect("not-an-ip", 80), SystemError);
}

TEST(Tcp, NonblockingReadReturnsNulloptWhenEmpty) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    conn.write_all(std::string_view("x"));
    // Hold the connection briefly so the client can read.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  client.set_nonblocking(true);
  std::array<std::uint8_t, 8> buf;
  EXPECT_EQ(client.read_some(buf), std::nullopt);  // nothing yet
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto n = client.read_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  server.join();
}

TEST(Udp, DatagramRoundTrip) {
  UdpSocket receiver = UdpSocket::bind(0);
  UdpSocket sender = UdpSocket::bind(0);
  sender.send_to("127.0.0.1", receiver.local_port(), std::string_view("ping"));
  auto got = receiver.recv(1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ping");
}

TEST(Udp, RecvTimesOut) {
  UdpSocket receiver = UdpSocket::bind(0);
  EXPECT_EQ(receiver.recv(50), std::nullopt);
}

TEST(Reactor, DispatchesReadEvents) {
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();
  served.set_nonblocking(true);

  Reactor reactor;
  std::atomic<int> events{0};
  reactor.add(served.fd(), Reactor::kRead, [&](std::uint32_t ready) {
    EXPECT_TRUE(ready & Reactor::kRead);
    std::array<std::uint8_t, 16> buf;
    served.read_some(buf);
    events.fetch_add(1);
  });
  EXPECT_TRUE(reactor.watching(served.fd()));

  client.write_all(std::string_view("a"));
  int handled = 0;
  for (int i = 0; i < 50 && events.load() == 0; ++i) {
    handled += reactor.poll(20);
  }
  EXPECT_EQ(events.load(), 1);
  EXPECT_GE(handled, 1);

  reactor.remove(served.fd());
  EXPECT_FALSE(reactor.watching(served.fd()));
}

TEST(Reactor, CallbackMayRemoveItself) {
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();

  Reactor reactor;
  reactor.add(served.fd(), Reactor::kRead, [&](std::uint32_t) {
    reactor.remove(served.fd());
  });
  client.write_all(std::string_view("x"));
  for (int i = 0; i < 50 && reactor.watched() > 0; ++i) reactor.poll(20);
  EXPECT_EQ(reactor.watched(), 0u);
}

TEST(Reactor, StopInterruptsRun) {
  Reactor reactor;
  util::Thread runner([&reactor] { reactor.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  reactor.stop();
  runner.join();  // must return promptly
  SUCCEED();
}

TEST(Sendfile, TransfersFileRegion) {
  // Serve a slice of a file in non-blocking sendfile steps, each resuming
  // at the offset where the previous one stopped.
  testing::TempDir tmp;
  std::string path = tmp.path() + "/region.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "0123456789abcdef";
  }
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();
  served.set_nonblocking(true);
  Fd file(::open(path.c_str(), O_RDONLY));
  ASSERT_TRUE(file.valid());

  EXPECT_EQ(served.sendfile_some(file.get(), 4, 3), std::optional<std::size_t>(3));
  EXPECT_EQ(served.sendfile_some(file.get(), 7, 5), std::optional<std::size_t>(5));
  std::string got;
  std::array<std::uint8_t, 64> buf;
  while (got.size() < 8) {
    std::size_t n = client.read(buf);
    if (n == 0) break;
    got.append(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, "456789ab");
  // A region past the end of the file is an error, not a 0-byte step.
  EXPECT_THROW(served.sendfile_some(file.get(), 16, 8), SystemError);
}

TEST(Sendfile, StepsReportFullSocketAndRefusedSources) {
  testing::TempDir tmp;
  std::string path = tmp.path() + "/sparse.bin";
  constexpr std::size_t kSize = 64 * 1024 * 1024;
  {
    Fd out(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600));
    ASSERT_TRUE(out.valid());
    ASSERT_EQ(::ftruncate(out.get(), static_cast<off_t>(kSize)), 0);
  }
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();
  served.set_nonblocking(true);
  Fd file(::open(path.c_str(), O_RDONLY));
  ASSERT_TRUE(file.valid());

  // The client never reads: once both socket buffers fill, a step sends
  // nothing and returns instead of waiting.
  std::size_t sent = 0;
  std::optional<std::size_t> step;
  while (sent < kSize) {
    step = served.sendfile_some(file.get(), static_cast<std::int64_t>(sent),
                                kSize - sent);
    ASSERT_TRUE(step.has_value());
    if (*step == 0) break;
    sent += *step;
  }
  EXPECT_EQ(step, std::optional<std::size_t>(0));
  EXPECT_LT(sent, kSize);

  // A source the kernel will not sendfile from (EINVAL — here a
  // directory, in practice procfs-style files): the caller is told to
  // copy instead.
  Fd dir(::open(tmp.path().c_str(), O_RDONLY | O_DIRECTORY));
  ASSERT_TRUE(dir.valid());
  TcpConnection other = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection other_served = listener.accept();
  EXPECT_EQ(other_served.sendfile_some(dir.get(), 0, 1), std::nullopt);
}

}  // namespace
}  // namespace clarens::net
