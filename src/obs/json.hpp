// Minimal JSON value: build, serialise, parse.
//
// The observability layer writes machine-readable artefacts (run
// manifests, metric snapshots, bench JSON) and the obs test suite must
// round-trip them, so this module owns both directions. Deliberately
// tiny: objects preserve insertion order (manifests diff cleanly), all
// numbers are doubles (every value we emit — counters, seeds, seconds —
// fits a double exactly), and parse errors carry the offending offset.
// No external dependencies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace utilrisk::obs::json {

class Value;

/// Ordered sequence of values.
using Array = std::vector<Value>;
/// Object as an insertion-ordered key/value list (duplicate keys are not
/// rejected on parse; find() returns the first).
using Object = std::vector<std::pair<std::string, Value>>;

/// Thrown by parse() with a byte offset in the message.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}        // NOLINT(runtime/explicit)
  Value(bool b) : data_(b) {}                      // NOLINT(runtime/explicit)
  Value(double d) : data_(d) {}                    // NOLINT(runtime/explicit)
  Value(int i) : data_(static_cast<double>(i)) {}  // NOLINT(runtime/explicit)
  Value(std::int64_t i)                            // NOLINT(runtime/explicit)
      : data_(static_cast<double>(i)) {}
  Value(std::uint64_t i)                           // NOLINT(runtime/explicit)
      : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}  // NOLINT(runtime/explicit)
  Value(std::string s) : data_(std::move(s)) {}    // NOLINT(runtime/explicit)
  Value(Array a) : data_(std::move(a)) {}          // NOLINT(runtime/explicit)
  Value(Object o) : data_(std::move(o)) {}         // NOLINT(runtime/explicit)

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(data_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(data_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(data_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(data_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(data_);
  }

  // Typed access; throws std::runtime_error on a type mismatch so a
  // malformed manifest fails loudly instead of reading garbage.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup (first match), nullptr when absent or not an
  /// object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Object member lookup that throws (with the key name) when missing.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Appends (or replaces the first occurrence of) an object member.
  /// Converts a null value into an empty object first.
  void set(std::string key, Value value);

  /// Appends an array element. Converts a null value into an empty array.
  void push_back(Value value);

  /// Pretty-prints with two-space indentation and a trailing newline at
  /// depth 0. Numbers that hold integral values print without a decimal
  /// point.
  void dump(std::ostream& out, int depth = 0) const;
  [[nodiscard]] std::string dump_string() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      data_;
};

/// Parses one JSON document (trailing whitespace allowed, anything else
/// after the value is an error). Throws ParseError — including on
/// container nesting deeper than 64 levels, a guard against hostile
/// documents recursing the parser off the stack (the serve protocol
/// feeds this parser attacker-controlled bytes).
[[nodiscard]] Value parse(std::string_view text);

/// Appends `text` to `out` as a quoted, escaped JSON string literal.
void append_escaped(std::string& out, std::string_view text);

/// Writes `text` as a quoted, escaped JSON string literal.
void write_escaped(std::ostream& out, std::string_view text);

}  // namespace utilrisk::obs::json
