// HTTP/1.1 request and response models.
//
// Clarens rides on plain HTTP: XML-RPC/SOAP/JSON-RPC POSTs to the service
// endpoint, GETs for files and the browser portal (paper §2, §3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/buffer.hpp"

namespace clarens::http {

/// Ordered, case-insensitive-lookup header list. Lookups compare names
/// char-by-char (util::iequals) — no lowercase temporaries.
class Headers {
 public:
  void add(std::string name, std::string value);
  void set(std::string name, std::string value);  // replace or add
  /// First value, case-insensitive name match.
  std::optional<std::string> get(std::string_view name) const;
  std::string get_or(std::string_view name, std::string fallback) const;
  /// Allocation-free lookup: pointer to the stored value, or nullptr.
  const std::string* find(std::string_view name) const;
  bool has(std::string_view name) const { return find(name) != nullptr; }

  const std::vector<std::pair<std::string, std::string>>& all() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

struct Request {
  std::string method;   // GET, POST, ...
  std::string target;   // raw request target: /path?query
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  /// Decoded path component (without query, %xx decoded).
  std::string path() const;
  /// Decoded query parameters.
  std::map<std::string, std::string> query() const;

  bool keep_alive() const;

  /// Wire form.
  std::string serialize() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  /// When set, the body bytes live in an external arena (e.g. the handler
  /// thread's reusable serialization buffer) and `body` is ignored. The
  /// referenced storage must stay alive and unmodified until the response
  /// is written: the server writes an inline response in the same reactor
  /// turn, and copies a worker's body into `body` before handing it over.
  std::optional<std::string_view> body_view;

  std::string_view effective_body() const {
    return body_view ? *body_view : std::string_view(body);
  }

  /// When set, the server streams this file region as the body instead of
  /// `body`, using sendfile(2) on plaintext connections. The thread that
  /// ran the handler opens and clamps it; Content-Length is set
  /// automatically.
  struct FileRegion {
    std::string path;
    std::int64_t offset = 0;
    std::int64_t length = -1;  // -1 = to EOF
    /// When `head` is non-empty the region is an RPC-envelope response:
    /// `head` and `tail` bracket the raw file bytes inside the serialized
    /// RPC framing, offset/length are taken verbatim (the handler already
    /// clamped them, so `length` must be >= 0), and Content-Length covers
    /// head + region + tail. The file bytes never touch the serialization
    /// arena — plaintext connections send them with sendfile(2).
    std::string head;
    std::string tail;
  };
  std::optional<FileRegion> file;

  static Response make(int status, std::string body,
                       std::string content_type = "text/plain");

  std::string serialize_head(std::size_t content_length) const;
  /// Append the status line + headers + blank line to `out` without
  /// intermediate strings (the server's vectored-write hot path).
  void serialize_head_into(util::Buffer& out, std::size_t content_length) const;
  std::string serialize() const;
};

const char* reason_phrase(int status);

/// %xx-decode. Throws clarens::ParseError on malformed escapes.
std::string url_decode(std::string_view s);
std::string url_encode(std::string_view s);

}  // namespace clarens::http
