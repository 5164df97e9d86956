#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

int tcp_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool parse_head(std::string_view in, ResponseHead* head) {
  std::size_t end = in.find("\r\n\r\n");
  if (end == std::string_view::npos) return false;
  std::size_t line = in.find("\r\n");
  if (line < 12 || in.substr(0, 5) != "HTTP/") throw std::runtime_error("malformed status line");
  head->status = std::atoi(std::string(in.substr(9, 3)).c_str());
  bool found = false;
  for (line += 2; line < end;) {
    std::size_t eol = in.find("\r\n", line);
    std::string_view header = in.substr(line, eol - line);
    if (header.size() > 15 && strncasecmp(header.data(), "content-length:", 15) == 0) {
      head->content_length = std::strtoull(std::string(header.substr(15)).c_str(), nullptr, 10);
      found = true;
    }
    line = eol + 2;
  }
  if (!found) throw std::runtime_error("response without Content-Length");
  head->header_bytes = end + 4;
  return true;
}

GetClient::GetClient(std::size_t max_body)
    : max_body_(max_body), body_(new std::uint8_t[max_body]()) {}

void GetClient::connect(std::uint16_t port, std::string session) {
  close();
  fd_ = tcp_connect(port);
  session_ = std::move(session);
}

void GetClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int GetClient::get(const std::string& target) {
  request_ = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Clarens-Session: " +
             session_ + "\r\n\r\n";
  for (std::size_t sent = 0; sent < request_.size();) {
    ssize_t n = ::send(fd_, request_.data() + sent, request_.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send() failed");
    sent += static_cast<std::size_t>(n);
  }
  // Read the head in small steps so the body lands in its buffer directly.
  head_.clear();
  ResponseHead head;
  char chunk[4096];
  while (!parse_head(head_, &head)) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed before the response head");
    head_.append(chunk, static_cast<std::size_t>(n));
  }
  if (head.content_length > max_body_) throw std::runtime_error("response body too large");
  std::size_t have = head_.size() - head.header_bytes;
  if (have > head.content_length) throw std::runtime_error("unexpected bytes after the body");
  std::memcpy(body_.get(), head_.data() + head.header_bytes, have);
  while (have < head.content_length) {
    ssize_t n = ::recv(fd_, body_.get() + have, head.content_length - have, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed inside the body");
    have += static_cast<std::size_t>(n);
  }
  body_size_ = have;
  return head.status;
}

}  // namespace perfbench
