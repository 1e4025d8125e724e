#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace utilrisk::obs::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json::Value: not a ") + wanted);
}

void write_number(std::ostream& out, double value) {
  // Counters/seeds/bucket counts round-trip as integers; everything else
  // keeps enough digits to reproduce the double.
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    out << static_cast<std::int64_t>(value);
    return;
  }
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; null is the conventional degradation.
    out << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out << buffer;
}

void write_indent(std::ostream& out, int depth) {
  for (int i = 0; i < depth; ++i) out << "  ";
}

}  // namespace

double Value::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(data_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  if (found == nullptr) {
    throw std::runtime_error("json::Value: missing key '" +
                             std::string(key) + "'");
  }
  return *found;
}

void Value::set(std::string key, Value value) {
  if (is_null()) data_ = Object{};
  if (!is_object()) type_error("object");
  auto& members = std::get<Object>(data_);
  for (auto& [k, v] : members) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
}

void Value::push_back(Value value) {
  if (is_null()) data_ = Array{};
  if (!is_array()) type_error("array");
  std::get<Array>(data_).push_back(std::move(value));
}

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_escaped(std::ostream& out, std::string_view text) {
  std::string escaped;
  append_escaped(escaped, text);
  out << escaped;
}

void Value::dump(std::ostream& out, int depth) const {
  if (is_null()) {
    out << "null";
  } else if (is_bool()) {
    out << (std::get<bool>(data_) ? "true" : "false");
  } else if (is_number()) {
    write_number(out, std::get<double>(data_));
  } else if (is_string()) {
    write_escaped(out, std::get<std::string>(data_));
  } else if (is_array()) {
    const Array& items = std::get<Array>(data_);
    if (items.empty()) {
      out << "[]";
    } else {
      out << "[\n";
      for (std::size_t i = 0; i < items.size(); ++i) {
        write_indent(out, depth + 1);
        items[i].dump(out, depth + 1);
        out << (i + 1 < items.size() ? ",\n" : "\n");
      }
      write_indent(out, depth);
      out << ']';
    }
  } else {
    const Object& members = std::get<Object>(data_);
    if (members.empty()) {
      out << "{}";
    } else {
      out << "{\n";
      for (std::size_t i = 0; i < members.size(); ++i) {
        write_indent(out, depth + 1);
        write_escaped(out, members[i].first);
        out << ": ";
        members[i].second.dump(out, depth + 1);
        out << (i + 1 < members.size() ? ",\n" : "\n");
      }
      write_indent(out, depth);
      out << '}';
    }
  }
  if (depth == 0) out << '\n';
}

std::string Value::dump_string() const {
  std::ostringstream out;
  dump(out);
  return out.str();
}

// ------------------------------------------------------------------ parse

namespace {

class Parser {
 public:
  /// Containers nest recursively; cap the depth so a hostile document of
  /// thousands of '[' bytes fails with ParseError instead of overflowing
  /// the stack (the serving layer parses attacker-supplied lines).
  static constexpr int kMaxDepth = 64;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  struct DepthGuard {
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxDepth) parser_->fail("nesting too deep");
    }
    ~DepthGuard() { --parser_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser* parser_;
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': {
        const DepthGuard guard(this);
        return parse_object();
      }
      case '[': {
        const DepthGuard guard(this);
        return parse_array();
      }
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object members;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(members));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(items));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our writer only escapes control characters; decode the BMP
          // code point as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end || begin == end) {
      pos_ = start;
      fail("bad number");
    }
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace utilrisk::obs::json
