// Minimal HTTP/1.1 client pieces the workloads drive servers with
// directly, so client-side parsing and copying stay small next to the
// server path being measured.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// Blocking TCP connection to 127.0.0.1:port with TCP_NODELAY.
int tcp_connect(std::uint16_t port);

struct ResponseHead {
  int status = 0;
  std::size_t header_bytes = 0;  ///< status line + headers + blank line
  std::size_t content_length = 0;
};

/// Parse the response head at the front of `in`; false while incomplete.
/// Throws when the head is complete but has no Content-Length.
bool parse_head(std::string_view in, ResponseHead* head);

/// One keep-alive connection issuing GETs under a session; the body lands
/// in a buffer reused across calls (one copy, kernel to user). The buffer
/// is touched once up front and outlives reconnects, so the process's
/// peak RSS does not depend on when and where it gets mapped.
class GetClient {
 public:
  explicit GetClient(std::size_t max_body);
  ~GetClient() { close(); }
  /// (Re)connect to 127.0.0.1:port and GET under `session` from now on.
  void connect(std::uint16_t port, std::string session);
  void close();
  GetClient(const GetClient&) = delete;
  GetClient& operator=(const GetClient&) = delete;

  /// GET `target`; returns the status. body()/body_size() hold the body.
  int get(const std::string& target);
  const std::uint8_t* body() const { return body_.get(); }
  std::size_t body_size() const { return body_size_; }
  /// The request bytes of the last get().
  const std::string& last_request() const { return request_; }
  const std::string& session() const { return session_; }

 private:
  int fd_ = -1;
  std::string session_;
  std::size_t max_body_;
  std::unique_ptr<std::uint8_t[]> body_;
  std::size_t body_size_ = 0;
  std::string request_;
  std::string head_;
};

}  // namespace perfbench
