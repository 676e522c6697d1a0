#include "api/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace mcdc::api {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

}  // namespace

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::null) type_ = Type::object;
  if (type_ != Type::object) fail("operator[] on non-object");
  return object_[key];
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::object) fail("at(\"" + key + "\") on non-object");
  const auto it = object_.find(key);
  if (it == object_.end()) fail("missing key \"" + key + "\"");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::object && object_.count(key) > 0;
}

const std::map<std::string, Json>& Json::items() const {
  if (type_ != Type::object) fail("items() on non-object");
  return object_;
}

void Json::push_back(Json value) {
  if (type_ == Type::null) type_ = Type::array;
  if (type_ != Type::array) fail("push_back on non-array");
  array_.push_back(std::move(value));
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::array) fail("at(index) on non-array");
  if (index >= array_.size()) fail("array index out of range");
  return array_[index];
}

std::size_t Json::size() const {
  if (type_ == Type::array) return array_.size();
  if (type_ == Type::object) return object_.size();
  return 0;
}

bool Json::as_bool() const {
  if (type_ != Type::boolean) fail("as_bool on non-boolean");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::number) fail("as_double on non-number");
  return number_;
}

int Json::as_int() const {
  const double value = as_double();
  if (std::nearbyint(value) != value) fail("as_int on non-integral number");
  // Casting an out-of-range double to int is undefined behaviour; both int
  // bounds are exactly representable as doubles, so the comparison is safe.
  if (value < static_cast<double>(std::numeric_limits<int>::min()) ||
      value > static_cast<double>(std::numeric_limits<int>::max())) {
    fail("as_int out of int range");
  }
  return static_cast<int>(value);
}

const std::string& Json::as_string() const {
  if (type_ != Type::string) fail("as_string on non-string");
  return string_;
}

// --- dump -------------------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  char buf[32];
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  }
  out += buf;
}

void append_newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::null: out += "null"; return;
    case Type::boolean: out += bool_ ? "true" : "false"; return;
    case Type::number: append_number(out, number_); return;
    case Type::string: append_escaped(out, string_); return;
    case Type::array: {
      if (array_.empty()) { out += "[]"; return; }
      out += '[';
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_newline_indent(out, indent, depth + 1);
        item.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::object: {
      if (object_.empty()) { out += "{}"; return; }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        if (indent >= 0) append_newline_indent(out, indent, depth + 1);
        append_escaped(out, key);
        out += indent >= 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --- parse ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) error("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  // Containers recurse, so hostile input like ten thousand '[' would walk
  // the parser (and later the value's destructor) off the stack; no
  // legitimate report or model nests anywhere near this deep.
  static constexpr int kMaxDepth = 256;

  Json parse_value() {
    if (depth_ >= kMaxDepth) error("nesting too deep");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) error("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) error("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) error("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    ++depth_;
    Json out = Json::object();
    if (peek() == '}') { ++pos_; --depth_; return out; }
    while (true) {
      if (peek() != '"') error("expected object key");
      std::string key = parse_string();
      expect(':');
      out[key] = parse_value();
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == '}') { ++pos_; --depth_; return out; }
      error("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    ++depth_;
    Json out = Json::array();
    if (peek() == ']') { ++pos_; --depth_; return out; }
    while (true) {
      out.push_back(parse_value());
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == ']') { ++pos_; --depth_; return out; }
      error("expected ',' or ']'");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) error("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else error("bad \\u escape");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') { out += c; continue; }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            error("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate is only valid as the first half of a pair;
            // combine both halves into one supplementary code point rather
            // than emitting two 3-byte CESU-8 sequences.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              error("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              error("unpaired high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: error("bad escape");
      }
    }
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?. A greedy
  // stod would silently truncate "1..2" and accept a leading '+'; walking
  // the grammar explicitly rejects both.
  Json parse_number() {
    const std::size_t start = pos_;
    const auto digits = [&]() {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // a leading zero stands alone ("01" is not a JSON number)
    } else if (digits() == 0) {
      error("expected value");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) error("bad number: digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) error("bad number: digits required in exponent");
    }
    // strtod rather than stod: stod throws on *underflow* too, and a
    // subnormal (say a long-decayed histogram count, printed by dump())
    // must read back exactly. Only overflow to infinity is out of range.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) error("bad number");
    if (errno == ERANGE && std::isinf(value)) error("number out of range");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace mcdc::api
