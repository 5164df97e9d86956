// RAII TCP/UDP sockets.
//
// The Clarens architecture (Fig. 1) hands network I/O to the web server;
// this module is the socket substrate that the HTTP server, TLS channel,
// clients, and the UDP-based discovery publishers are built on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace clarens::net {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Abstract byte stream so the HTTP layer can run over plain TCP or over
/// the TLS-like secure channel interchangeably.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Blocking read; returns bytes read, 0 on orderly EOF.
  /// Throws clarens::SystemError on socket errors.
  virtual std::size_t read(std::span<std::uint8_t> out) = 0;

  /// Blocking write of the full span (blocking sockets only).
  virtual void write_all(std::span<const std::uint8_t> data) = 0;

  /// Scatter-gather write of all chunks, in order. The base implementation
  /// loops write_all (TLS streams must encrypt per record anyway); the TCP
  /// stream overrides it with a single writev(2) so a response's header and
  /// body leave in one syscall without being glued into a temporary.
  virtual void write_vec(std::span<const std::string_view> chunks);

  virtual void close() = 0;

  void write_all(std::string_view s) {
    write_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
};

class TcpConnection : public Stream {
 public:
  TcpConnection() = default;
  explicit TcpConnection(Fd fd) : fd_(std::move(fd)) {}

  /// Blocking connect to host:port (IPv4 dotted quad or "localhost").
  static TcpConnection connect(const std::string& host, std::uint16_t port);

  /// Begin a non-blocking connect: the socket is created O_NONBLOCK and
  /// the handshake is initiated but not awaited (EINPROGRESS is the
  /// normal outcome). Poll the fd for writability, then finish_connect().
  /// Immediate failures (bad address, no route) throw right here.
  static TcpConnection connect_nonblocking(const std::string& host,
                                           std::uint16_t port);

  /// Progress check after connect_nonblocking: true once the connection
  /// is established (TCP_NODELAY is applied then), false while the
  /// handshake is still in flight, throws SystemError when the connect
  /// failed (refused, timed out, unreachable).
  bool finish_connect(const std::string& host, std::uint16_t port);

  std::size_t read(std::span<std::uint8_t> out) override;
  void write_all(std::span<const std::uint8_t> data) override;
  using Stream::write_all;
  void write_vec(std::span<const std::string_view> chunks) override;
  void close() override;

  /// Non-blocking variants for the async client/reactor:
  /// read: returns nullopt on EAGAIN, 0 on EOF.
  std::optional<std::size_t> read_some(std::span<std::uint8_t> out);
  /// write: returns bytes accepted (possibly 0 on EAGAIN).
  std::size_t write_some(std::span<const std::uint8_t> data);
  /// Vectored non-blocking write: one writev(2) attempt over up to 8
  /// chunks; returns bytes accepted (possibly 0 on EAGAIN). The HTTP
  /// server's reactor sends every response with this and parks any
  /// remainder in a per-connection outbox instead of blocking.
  std::size_t writev_some(std::span<const std::string_view> chunks);

  void set_nonblocking(bool on);
  void set_nodelay(bool on);

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  /// One non-blocking sendfile(2) step: up to `count` bytes of `file_fd`
  /// from `offset` go to the socket without passing through userspace —
  /// the syscall the paper credits for low-CPU high-throughput file
  /// serving. Returns bytes sent, 0 when the socket buffer is full, or
  /// nullopt when the kernel refuses sendfile for this fd pair (the
  /// caller copies instead). A file that ends before `offset + count`
  /// throws SystemError; like every write here, a peer that has closed
  /// yields SystemError, never SIGPIPE.
  std::optional<std::size_t> sendfile_some(int file_fd, std::int64_t offset,
                                           std::size_t count);

 private:
  Fd fd_;
};

class TcpListener {
 public:
  /// Bind and listen. Port 0 picks an ephemeral port; local_port() then
  /// reports the chosen one. `host` defaults to loopback.
  static TcpListener listen(std::uint16_t port, const std::string& host = "127.0.0.1",
                            int backlog = 256);

  /// Blocking accept.
  TcpConnection accept();

  void set_nonblocking(bool on);
  /// Non-blocking accept; nullopt when no pending connection.
  std::optional<TcpConnection> accept_nonblocking();

  std::uint16_t local_port() const { return port_; }
  int fd() const { return fd_.get(); }

  /// Wake any thread blocked in accept() without releasing the fd —
  /// safe to call from another thread (close() is not: it mutates the
  /// descriptor while accept() reads it). Call close() after joining.
  void shutdown();
  void close();

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

class UdpSocket {
 public:
  /// Bind to a local port (0 = ephemeral).
  static UdpSocket bind(std::uint16_t port, const std::string& host = "127.0.0.1");

  void send_to(const std::string& host, std::uint16_t port,
               std::span<const std::uint8_t> data);
  void send_to(const std::string& host, std::uint16_t port, std::string_view s) {
    send_to(host, port,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// Blocking receive with timeout; nullopt on timeout.
  std::optional<std::string> recv(int timeout_ms);

  std::uint16_t local_port() const { return port_; }
  int fd() const { return fd_.get(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

}  // namespace clarens::net
