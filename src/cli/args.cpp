#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace utilrisk::cli {

ArgParser::ArgParser(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

ArgParser& ArgParser::option(const std::string& name,
                             const std::string& value_name,
                             const std::string& help,
                             const std::string& default_value,
                             bool required) {
  if (value_name.empty()) {
    throw std::logic_error("ArgParser::option: empty value name (use flag)");
  }
  options_.push_back({name, value_name, help, default_value, required});
  return *this;
}

ArgParser& ArgParser::flag(const std::string& name, const std::string& help) {
  options_.push_back({name, "", help, "", false});
  return *this;
}

ArgParser& ArgParser::positional(const std::string& name,
                                 const std::string& help, bool required) {
  positionals_.push_back({name, "", help, "", required});
  return *this;
}

const OptionSpec* ArgParser::find_spec(const std::string& name) const {
  for (const OptionSpec& spec : options_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void ArgParser::parse(const std::vector<std::string>& args) {
  parsed_ = true;
  std::size_t next_positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string inline_value;
      bool has_inline = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline = true;
      }
      const OptionSpec* spec = find_spec(name);
      if (spec == nullptr) {
        throw ArgError("unknown option --" + name + "\n" + usage());
      }
      if (spec->value_name.empty()) {  // flag
        if (has_inline) {
          throw ArgError("flag --" + name + " takes no value");
        }
        flags_[name] = true;
        continue;
      }
      // Repeating a single-valued option is almost always a stale shell
      // history or a script bug; silently keeping the last value hid it.
      if (values_.contains(name)) {
        throw ArgError("option --" + name +
                       " given more than once (it takes a single value)");
      }
      if (has_inline) {
        values_[name] = inline_value;
        continue;
      }
      if (i + 1 >= args.size()) {
        throw ArgError("option --" + name + " needs a value\n" + usage());
      }
      values_[name] = args[++i];
      continue;
    }
    if (next_positional >= positionals_.size()) {
      throw ArgError("unexpected argument '" + arg + "'\n" + usage());
    }
    positional_values_[positionals_[next_positional].name] = arg;
    ++next_positional;
  }
  for (const OptionSpec& spec : options_) {
    if (spec.required && !values_.contains(spec.name)) {
      throw ArgError("missing required option --" + spec.name + "\n" +
                     usage());
    }
  }
  for (const OptionSpec& spec : positionals_) {
    if (spec.required && !positional_values_.contains(spec.name)) {
      throw ArgError("missing argument <" + spec.name + ">\n" + usage());
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return values_.contains(name);
}

std::string ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  const OptionSpec* spec = find_spec(name);
  if (spec == nullptr) {
    throw std::logic_error("ArgParser::get: undeclared option " + name);
  }
  return spec->default_value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string text = get(name);
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw ArgError("option --" + name + ": '" + text + "' is not a number");
  }
  return value;
}

long ArgParser::get_int(const std::string& name, long min, long max) const {
  const std::string text = get(name);
  long value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  const bool overflow = ec == std::errc::result_out_of_range;
  if (ptr != end || (ec != std::errc{} && !overflow)) {
    throw ArgError("option --" + name + ": '" + text +
                   "' is not an integer");
  }
  if (overflow || value < min || value > max) {
    throw ArgError("option --" + name + ": " + text + " is out of range " +
                   (max == std::numeric_limits<long>::max()
                        ? "(must be >= " + std::to_string(min) + ")"
                        : "[" + std::to_string(min) + ", " +
                              std::to_string(max) + "]"));
  }
  return value;
}

bool ArgParser::get_flag(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second;
}

std::optional<std::string> ArgParser::positional_value(
    const std::string& name) const {
  if (const auto it = positional_values_.find(name);
      it != positional_values_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << "usage: " << command_;
  for (const OptionSpec& spec : positionals_) {
    out << (spec.required ? " <" : " [") << spec.name
        << (spec.required ? ">" : "]");
  }
  if (!options_.empty()) out << " [options]";
  out << "\n  " << summary_ << '\n';
  for (const OptionSpec& spec : positionals_) {
    out << "  <" << spec.name << ">  " << spec.help << '\n';
  }
  for (const OptionSpec& spec : options_) {
    out << "  --" << spec.name;
    if (!spec.value_name.empty()) out << " <" << spec.value_name << ">";
    out << "  " << spec.help;
    if (!spec.default_value.empty()) {
      out << " (default: " << spec.default_value << ")";
    }
    if (spec.required) out << " [required]";
    out << '\n';
  }
  return out.str();
}

std::vector<std::pair<std::string, std::string>>
ArgParser::effective_options() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(options_.size() + positionals_.size());
  for (const OptionSpec& spec : positionals_) {
    if (const auto it = positional_values_.find(spec.name);
        it != positional_values_.end()) {
      out.emplace_back(spec.name, it->second);
    }
  }
  for (const OptionSpec& spec : options_) {
    if (spec.value_name.empty()) {
      out.emplace_back(spec.name, get_flag(spec.name) ? "true" : "false");
    } else {
      out.emplace_back(spec.name, get(spec.name));
    }
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, ',')) {
    const auto first = token.find_first_not_of(" \t");
    const auto last = token.find_last_not_of(" \t");
    out.push_back(first == std::string::npos
                      ? std::string()
                      : token.substr(first, last - first + 1));
  }
  return out;
}

}  // namespace utilrisk::cli
