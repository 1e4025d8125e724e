#include "cli/command.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <utility>

#include "exp/parallel.hpp"

namespace utilrisk::cli {

CommandRegistry::CommandRegistry(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CommandRegistry::add(Command command) {
  commands_.push_back(std::move(command));
}

const Command* CommandRegistry::find(const std::string& name) const {
  for (const Command& command : commands_) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

std::string CommandRegistry::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nsubcommands:\n";
  std::size_t width = 0;
  for (const Command& command : commands_) {
    width = std::max(width, command.name.size());
  }
  for (const Command& command : commands_) {
    out << "  " << command.name
        << std::string(width - command.name.size() + 2, ' ')
        << command.summary << '\n';
  }
  out << "\nrun '" << program_ << " <subcommand> --help' for options.\n";
  return out.str();
}

void add_shared_options(ArgParser& parser, const Command& command) {
  parser.option("log-level", "L", "trace verbosity: off|error|info|debug",
                "off");
  if (command.uses_workers) {
    parser.option("workers", "N",
                  "worker threads (0 = auto: REPRO_JOBS_PAR, else hardware "
                  "concurrency)",
                  "0");
  }
  if (command.emits_manifest) {
    parser.option("manifest-dir", "DIR",
                  "write the JSON run manifest here (empty disables)", ".");
  }
}

int CommandRegistry::run_command(const Command& command,
                                 const std::vector<std::string>& args) const {
  ArgParser parser(program_ + " " + command.name, command.summary);
  if (command.declare) command.declare(parser);
  add_shared_options(parser, command);
  parser.parse(args);
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }

  obs::MetricsRegistry metrics(/*enabled=*/true);
  obs::RunManifest manifest;
  manifest.command = command.name;
  manifest.argv = args;
  manifest.git_describe = obs::build_git_describe();
  manifest.started_at_utc = obs::utc_timestamp_now();
  manifest.config = parser.effective_options();

  CommandContext context{parser, metrics, manifest};
  context.log_level = sim::parse_log_level(parser.get("log-level"));
  if (command.uses_workers) {
    const long workers = parser.get_int("workers", 0);
    context.workers = workers == 0 ? exp::default_worker_count()
                                   : static_cast<std::size_t>(workers);
  }

  const auto start = std::chrono::steady_clock::now();
  const int status = command.handler(context);

  if (command.emits_manifest && !parser.get("manifest-dir").empty()) {
    manifest.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    manifest.metrics = metrics.snapshot();
    const std::string path =
        obs::write_manifest(manifest, parser.get("manifest-dir"));
    std::cout << "[manifest: " << path << "]\n";
  }
  return status;
}

int CommandRegistry::run(int argc, char** argv) const {
  if (argc < 2) {
    std::cout << usage();
    return 2;
  }
  std::string name = argv[1];
  if (name == "--help" || name == "-h" || name == "help") {
    std::cout << usage();
    return 0;
  }
  // `--version` aliases the `version` subcommand when one is registered.
  if (name == "--version" || name == "-V") name = "version";
  const Command* command = find(name);
  if (command == nullptr) {
    std::cerr << "unknown subcommand '" << name << "'\n";
    std::cout << usage();
    return 2;
  }
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    return run_command(*command, args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace utilrisk::cli
