#include "rpc/jsonrpc.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>

#include "rpc/fault.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace clarens::rpc::jsonrpc {

namespace {

void write_json(util::Buffer& out, const Value& value);

constexpr std::array<bool, 256> make_escape_table() {
  std::array<bool, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[static_cast<std::size_t>(c)] = true;
  t['"'] = true;
  t['\\'] = true;
  return t;
}
constexpr std::array<bool, 256> kNeedsEscape = make_escape_table();

void write_json_string(util::Buffer& out, std::string_view s) {
  out.write_u8('"');
  // Emit maximal clean runs in one memcpy; escape the rare byte between.
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (!kNeedsEscape[c]) continue;
    out.write(s.data() + start, i - start);
    switch (c) {
      case '"': out.write("\\\""); break;
      case '\\': out.write("\\\\"); break;
      case '\b': out.write("\\b"); break;
      case '\f': out.write("\\f"); break;
      case '\n': out.write("\\n"); break;
      case '\r': out.write("\\r"); break;
      case '\t': out.write("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        char buf[6] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                       kHex[c & 0xf]};
        out.write(buf, sizeof(buf));
      }
    }
    start = i + 1;
  }
  out.write(s.data() + start, s.size() - start);
  out.write_u8('"');
}

void write_json(util::Buffer& out, const Value& value) {
  switch (value.type()) {
    case Value::Type::Nil: out.write("null"); break;
    case Value::Type::Bool:
      out.write(value.as_bool() ? std::string_view("true")
                                : std::string_view("false"));
      break;
    case Value::Type::Int: util::append_int(out, value.as_int()); break;
    case Value::Type::Double: {
      double d = value.as_double();
      if (!std::isfinite(d)) {
        // JSON cannot express NaN/Inf; null is the conventional fallback.
        out.write("null");
        break;
      }
      util::append_double(out, d);
      break;
    }
    case Value::Type::String: write_json_string(out, value.as_string()); break;
    case Value::Type::Binary: {
      out.write("{\"$base64\":\"");
      util::base64_encode_append(out, value.as_binary());
      out.write("\"}");
      break;
    }
    case Value::Type::DateTime:
      out.write("{\"$datetime\":");
      write_json_string(out, util::iso8601(value.as_datetime().unix_seconds));
      out.write_u8('}');
      break;
    case Value::Type::Array: {
      out.write_u8('[');
      bool first = true;
      for (const auto& element : value.as_array()) {
        if (!first) out.write_u8(',');
        write_json(out, element);
        first = false;
      }
      out.write_u8(']');
      break;
    }
    case Value::Type::Struct: {
      out.write_u8('{');
      bool first = true;
      for (const auto& [name, member] : value.members()) {
        if (!first) out.write_u8(',');
        write_json_string(out, name);
        out.write_u8(':');
        write_json(out, member);
        first = false;
      }
      out.write_u8('}');
      break;
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

  Value parse_value() {
    skip_space();
    if (eof()) fail("unexpected end of input");
    char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      expect("null");
      return Value::nil();
    }
    return parse_number();
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  void skip_space() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }
  void expect(std::string_view s) {
    if (text_.substr(pos_, s.size()) != s) {
      fail("expected '" + std::string(s) + "'");
    }
    pos_ += s.size();
  }

  Value parse_bool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Value(true);
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Value(false);
    }
    fail("invalid literal");
  }

  std::string parse_string() {
    expect("\"");
    // Fast path: most strings have no escapes — one find, one copy.
    std::size_t end = text_.find_first_of("\"\\", pos_);
    if (end == std::string_view::npos) fail("unterminated string");
    if (text_[end] == '"') {
      std::string out(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
      return out;
    }
    std::string out(text_.substr(pos_, end - pos_));
    pos_ = end;
    for (;;) {
      if (eof()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode (basic multilingual plane; surrogate pairs are
          // passed through as-is, adequate for this framework's use).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool is_double = false;
    while (!eof()) {
      char c = peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc() && p == token.data() + token.size()) return Value(v);
    }
    double d = 0;
    auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || p != token.data() + token.size()) {
      fail("invalid number '" + std::string(token) + "'");
    }
    return Value(d);
  }

  Value parse_array() {
    expect("[");
    // parse_value recurses through containers; cap attacker-controlled
    // depth before it becomes stack depth.
    if (++depth_ > kMaxDepth) fail("value nesting too deep");
    Value out = Value::array();
    skip_space();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return out;
    }
    for (;;) {
      out.push(parse_value());
      skip_space();
      if (eof()) fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') {
        --depth_;
        return out;
      }
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect("{");
    if (++depth_ > kMaxDepth) fail("value nesting too deep");
    Value out = Value::struct_();
    skip_space();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return detag(std::move(out));
    }
    for (;;) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(":");
      if (out.size() == 0 && key == "$base64") {
        if (std::optional<Value> blob = parse_base64_member()) return *blob;
      }
      out.set(key, parse_value());
      skip_space();
      if (eof()) fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') {
        --depth_;
        return detag(std::move(out));
      }
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  // The rest of {"$base64": "..."} when its string has no escapes: decode
  // straight from the input slice, with no string copy, and close the
  // object. Returns nullopt and consumes nothing otherwise (an escaped
  // string, since encoders may write '/' as "\/", a value of another
  // type, or a second member); the general path and detag handle those.
  std::optional<Value> parse_base64_member() {
    std::size_t start = pos_;
    skip_space();
    if (!eof() && peek() == '"') {
      // Two memchr scans: the closing quote, then no backslash before it.
      std::size_t end = text_.find('"', pos_ + 1);
      std::string_view b64 = text_.substr(pos_ + 1, end - pos_ - 1);
      if (end != std::string_view::npos &&
          b64.find('\\') == std::string_view::npos) {
        pos_ = end + 1;
        skip_space();
        if (!eof() && peek() == '}') {
          ++pos_;
          --depth_;
          return Value(util::base64_decode(b64));
        }
      }
    }
    pos_ = start;
    return std::nullopt;
  }

  // Recognize the {"$base64": ...} / {"$datetime": ...} tagging convention.
  static Value detag(Value object) {
    if (object.size() == 1) {
      if (const Value* b = object.find("$base64")) {
        return Value(util::base64_decode(b->as_string()));
      }
      if (const Value* d = object.find("$datetime")) {
        return Value(DateTime{util::parse_iso8601(d->as_string())});
      }
    }
    return object;
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void serialize_value(const Value& value, util::Buffer& out) {
  write_json(out, value);
}

std::string serialize_value(const Value& value) {
  util::Buffer out;
  write_json(out, value);
  return std::string(out.peek_view());
}

Value parse_value(std::string_view json) {
  JsonParser parser(json);
  return parser.parse_document();
}

void serialize_request(const Request& request, util::Buffer& out) {
  out.write("{\"method\":");
  write_json_string(out, request.method);
  out.write(",\"params\":[");
  bool first = true;
  for (const auto& p : request.params) {
    if (!first) out.write_u8(',');
    write_json(out, p);
    first = false;
  }
  out.write("],\"id\":");
  write_json(out, request.id);
  out.write_u8('}');
}

std::string serialize_request(const Request& request) {
  util::Buffer out;
  serialize_request(request, out);
  return std::string(out.peek_view());
}

Request parse_request(std::string_view body) {
  Value v = parse_value(body);
  if (!v.is_struct()) throw ParseError("JSON-RPC request must be an object");
  Request request;
  request.method = v.at("method").as_string();
  if (const Value* params = v.find("params")) {
    if (params->type() == Value::Type::Array) {
      request.params = params->as_array();
    } else if (!params->is_nil()) {
      throw ParseError("JSON-RPC params must be an array");
    }
  }
  if (const Value* id = v.find("id")) request.id = *id;
  return request;
}

void serialize_response(const Response& response, util::Buffer& out) {
  out.write("{\"result\":");
  if (response.is_fault) {
    out.write("null,\"error\":{\"code\":");
    util::append_int(out, response.fault_code);
    out.write(",\"message\":");
    write_json_string(out, response.fault_message);
    out.write_u8('}');
  } else {
    write_json(out, response.result);
    out.write(",\"error\":null");
  }
  out.write(",\"id\":");
  write_json(out, response.id);
  out.write_u8('}');
}

std::string serialize_response(const Response& response) {
  util::Buffer out;
  serialize_response(response, out);
  return std::string(out.peek_view());
}

Response parse_response(std::string_view body) {
  Value v = parse_value(body);
  if (!v.is_struct()) throw ParseError("JSON-RPC response must be an object");
  Response response;
  const Value* error = v.find("error");
  if (error && !error->is_nil()) {
    response.is_fault = true;
    response.fault_code = static_cast<int>(error->at("code").as_int());
    response.fault_message = error->at("message").as_string();
  } else {
    const Value* result = v.find("result");
    if (!result) throw ParseError("JSON-RPC response missing result");
    response.result = *result;
  }
  if (const Value* id = v.find("id")) response.id = *id;
  return response;
}

}  // namespace clarens::rpc::jsonrpc
