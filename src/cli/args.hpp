// Minimal declarative command-line parser for the utilrisk CLI tool.
//
// Supports `--flag`, `--option value`, `--option=value`, positional
// arguments, required/optional options with defaults, typed access with
// validation, and generated usage text. No external dependencies.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace utilrisk::cli {

/// Thrown for unknown options, missing values/required options, or failed
/// type conversions; the message is user-facing.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One declared option.
struct OptionSpec {
  std::string name;         ///< long name without the leading "--"
  std::string value_name;   ///< e.g. "N" in "--jobs N"; empty = boolean flag
  std::string help;
  std::string default_value;  ///< printed in help; used when absent
  bool required = false;
};

class ArgParser {
 public:
  /// `command` and `summary` feed the usage text.
  ArgParser(std::string command, std::string summary);

  /// Declares a value option. Returns *this for chaining.
  ArgParser& option(const std::string& name, const std::string& value_name,
                    const std::string& help,
                    const std::string& default_value = "",
                    bool required = false);

  /// Declares a boolean flag (present/absent).
  ArgParser& flag(const std::string& name, const std::string& help);

  /// Declares a positional argument (order of declaration).
  ArgParser& positional(const std::string& name, const std::string& help,
                        bool required = true);

  /// Parses argv (excluding the program/subcommand names). Throws ArgError
  /// on malformed input. Recognises `--help` and sets help_requested().
  void parse(const std::vector<std::string>& args);

  [[nodiscard]] bool help_requested() const { return help_requested_; }

  // --- typed access (after parse) --------------------------------------
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  /// The option as a finite number in [min, max]; anything else (not a
  /// number, `nan`, `inf`, or out of range) is an ArgError naming the
  /// option and its range.
  [[nodiscard]] double get_double(
      const std::string& name, double min,
      double max = std::numeric_limits<double>::max()) const;
  /// The option as an integer in [min, max]; anything else (not an
  /// integer, or out of range) is an ArgError naming the option and its
  /// range. Every integer option states its range here, so a negative or
  /// oversized value cannot wrap around in an unsigned or narrower field.
  [[nodiscard]] long get_int(
      const std::string& name, long min,
      long max = std::numeric_limits<long>::max()) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> positional_value(
      const std::string& name) const;

  /// Usage text for --help and error reporting.
  [[nodiscard]] std::string usage() const;

  /// Every declared option/flag/positional with the value this run
  /// actually used (parsed, or the default; flags as "true"/"false";
  /// absent optional positionals are skipped). Declaration order — feeds
  /// the `config` section of run manifests.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  effective_options() const;

 private:
  const OptionSpec* find_spec(const std::string& name) const;

  std::string command_;
  std::string summary_;
  std::vector<OptionSpec> options_;
  std::vector<OptionSpec> positionals_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;
  std::map<std::string, std::string> positional_values_;
  bool help_requested_ = false;
  bool parsed_ = false;
};

/// Splits "a,b,c" into trimmed tokens (used for --weights).
[[nodiscard]] std::vector<std::string> split_csv(const std::string& text);

}  // namespace utilrisk::cli
