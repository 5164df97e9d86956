#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace clarens::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SystemError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string h = (host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    throw SystemError("invalid IPv4 address: " + host);
  }
  return addr;
}

// sendfile(2) takes no MSG_NOSIGNAL flag. While it runs, SIGPIPE is
// blocked on the calling thread; one raised because the peer closed is
// taken off the thread's pending set before the mask is restored, so the
// caller sees EPIPE instead of a fatal signal. A SIGPIPE that was pending
// before is left alone.
class SigpipeBlock {
 public:
  SigpipeBlock() {
    sigemptyset(&pipe_);
    sigaddset(&pipe_, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_, &saved_);
    was_pending_ = pending();
  }
  ~SigpipeBlock() {
    int saved_errno = errno;
    if (!was_pending_ && pending()) {
      timespec zero{0, 0};
      while (sigtimedwait(&pipe_, nullptr, &zero) < 0 && errno == EINTR) {
      }
    }
    pthread_sigmask(SIG_SETMASK, &saved_, nullptr);
    errno = saved_errno;
  }
  SigpipeBlock(const SigpipeBlock&) = delete;
  SigpipeBlock& operator=(const SigpipeBlock&) = delete;

 private:
  static bool pending() {
    sigset_t set;
    sigemptyset(&set);
    return sigpending(&set) == 0 && sigismember(&set, SIGPIPE) == 1;
  }

  sigset_t pipe_;
  sigset_t saved_;
  bool was_pending_ = false;
};

// writev(2) that never raises SIGPIPE.
ssize_t sendmsg_nosignal(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

Fd::~Fd() {
  if (fd_ >= 0) ::close(fd_);
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port) {
  // Blackhole fault: pretend the host dropped off the network. Armed per
  // "host:port" detail by the cluster fault tests.
  if (CLARENS_FAULT("net.connect", host + ":" + std::to_string(port))) {
    throw SystemError("injected blackhole: connect to " + host + ":" +
                      std::to_string(port));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Fd owned(fd);
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  TcpConnection conn(std::move(owned));
  conn.set_nodelay(true);
  return conn;
}

TcpConnection TcpConnection::connect_nonblocking(const std::string& host,
                                                 std::uint16_t port) {
  if (CLARENS_FAULT("net.connect", host + ":" + std::to_string(port))) {
    throw SystemError("injected blackhole: connect to " + host + ":" +
                      std::to_string(port));
  }
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  if (raw < 0) throw_errno("socket");
  TcpConnection conn{Fd(raw)};
  conn.set_nonblocking(true);
  sockaddr_in addr = make_addr(host, port);
  if (::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  return conn;
}

bool TcpConnection::finish_connect(const std::string& host,
                                   std::uint16_t port) {
  // Re-issuing connect() reports the handshake state without needing a
  // prior readiness notification: EALREADY/EINPROGRESS while in flight,
  // EISCONN (or 0) once established, the real error on failure.
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) == 0 ||
      errno == EISCONN) {
    set_nodelay(true);
    return true;
  }
  if (errno == EALREADY || errno == EINPROGRESS || errno == EINTR ||
      errno == EAGAIN || errno == EWOULDBLOCK) {
    return false;
  }
  throw_errno("connect to " + host + ":" + std::to_string(port));
}

std::size_t TcpConnection::read(std::span<std::uint8_t> out) {
  for (;;) {
    ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw_errno("read");
  }
}

void TcpConnection::write_all(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_.get(), data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Stream::write_vec(std::span<const std::string_view> chunks) {
  for (std::string_view chunk : chunks) write_all(chunk);
}

void TcpConnection::write_vec(std::span<const std::string_view> chunks) {
  // One writev(2) in the common case: header + body leave the process in
  // a single syscall without gluing them into a temporary string.
  iovec iov[8];
  std::size_t count = 0;
  std::size_t total = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty()) continue;
    if (count == std::size(iov)) {  // overflow: flush what we have
      break;
    }
    iov[count].iov_base = const_cast<char*>(chunk.data());
    iov[count].iov_len = chunk.size();
    total += chunk.size();
    ++count;
  }
  if (count == 0) return;
  std::size_t sent = 0;
  std::size_t first = 0;
  while (sent < total) {
    ssize_t n = sendmsg_nosignal(fd_.get(), iov + first, count - first);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("writev");
    }
    sent += static_cast<std::size_t>(n);
    // Skip fully-sent iovecs; trim a partially-sent one.
    std::size_t done = static_cast<std::size_t>(n);
    while (first < count && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < count && done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  // Chunks beyond the iovec window (rare: >8 non-empty chunks) fall back.
  std::size_t consumed = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty()) continue;
    if (consumed == std::size(iov)) write_all(chunk);
    else ++consumed;
  }
}

void TcpConnection::close() { fd_.reset(); }

std::optional<std::size_t> TcpConnection::read_some(std::span<std::uint8_t> out) {
  for (;;) {
    ssize_t n = ::read(fd_.get(), out.data(), out.size());
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("read");
  }
}

std::size_t TcpConnection::write_some(std::span<const std::uint8_t> data) {
  for (;;) {
    ssize_t n = ::send(fd_.get(), data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("write");
  }
}

std::size_t TcpConnection::writev_some(
    std::span<const std::string_view> chunks) {
  iovec iov[8];
  std::size_t count = 0;
  for (std::string_view chunk : chunks) {
    if (chunk.empty() || count == std::size(iov)) continue;
    iov[count].iov_base = const_cast<char*>(chunk.data());
    iov[count].iov_len = chunk.size();
    ++count;
  }
  if (count == 0) return 0;
  for (;;) {
    ssize_t n = sendmsg_nosignal(fd_.get(), iov, count);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("writev");
  }
}

void TcpConnection::set_nonblocking(bool on) {
  int flags = fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_.get(), F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
}

void TcpConnection::set_nodelay(bool on) {
  int v = on ? 1 : 0;
  if (setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

std::optional<std::size_t> TcpConnection::sendfile_some(int file_fd,
                                                        std::int64_t offset,
                                                        std::size_t count) {
  SigpipeBlock no_sigpipe;
  off_t off = static_cast<off_t>(offset);
  for (;;) {
    ssize_t n = ::sendfile(fd_.get(), file_fd, &off, count);
    if (n > 0 || (n == 0 && count == 0)) return static_cast<std::size_t>(n);
    if (n == 0) throw SystemError("sendfile: file ends before the region");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EINVAL || errno == ENOSYS) return std::nullopt;
    throw_errno("sendfile");
  }
}

TcpListener TcpListener::listen(std::uint16_t port, const std::string& host,
                                int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  TcpListener listener;
  listener.fd_ = Fd(fd);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  listener.port_ = bound_port(fd);
  return listener;
}

TcpConnection TcpListener::accept() {
  for (;;) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      TcpConnection conn{Fd(fd)};
      conn.set_nodelay(true);
      return conn;
    }
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

void TcpListener::set_nonblocking(bool on) {
  int flags = fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_.get(), F_SETFL, flags) != 0) throw_errno("fcntl(F_SETFL)");
}

std::optional<TcpConnection> TcpListener::accept_nonblocking() {
  for (;;) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      TcpConnection conn{Fd(fd)};
      conn.set_nodelay(true);
      return conn;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("accept");
  }
}

void TcpListener::shutdown() {
  // ::shutdown() wakes a blocked accept() (plain close() does not on
  // Linux) and leaves fd_ untouched, so concurrent readers are safe.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void TcpListener::close() {
  shutdown();
  fd_.reset();
}

UdpSocket UdpSocket::bind(std::uint16_t port, const std::string& host) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket(udp)");
  UdpSocket sock;
  sock.fd_ = Fd(fd);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind udp " + host + ":" + std::to_string(port));
  }
  sock.port_ = bound_port(fd);
  return sock;
}

void UdpSocket::send_to(const std::string& host, std::uint16_t port,
                        std::span<const std::uint8_t> data) {
  sockaddr_in addr = make_addr(host, port);
  ssize_t n = ::sendto(fd_.get(), data.data(), data.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (n < 0) throw_errno("sendto");
}

std::optional<std::string> UdpSocket::recv(int timeout_ms) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) throw_errno("poll");
  if (rc == 0) return std::nullopt;
  char buf[65536];
  ssize_t n = ::recvfrom(fd_.get(), buf, sizeof(buf), 0, nullptr, nullptr);
  if (n < 0) throw_errno("recvfrom");
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace clarens::net
