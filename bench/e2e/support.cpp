#include "support.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace utilrisk::e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

namespace {

/// Nearest-rank index of quantile q over n sorted samples.
std::size_t rank_index(double q, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(rank == 0 ? 0 : rank - 1, n - 1);
}

}  // namespace

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  sort();
  return values_[rank_index(q, values_.size())];
}

bool Samples::supports(double q) const {
  if (values_.empty()) return false;
  return values_.size() - 1 - rank_index(q, values_.size()) >= 10;
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  sort();
  return values_.back();
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

double Report::percentile(const std::string& name, const Samples& samples,
                          double q) {
  if (enforce_support && !samples.supports(q)) {
    gate(false, name + ": " + std::to_string(samples.size()) +
                    " samples leave fewer than 10 beyond the percentile");
  }
  return samples.percentile(q);
}

void Report::add_percentile(const std::string& name, const Samples& samples,
                            double q, double scale, const std::string& unit) {
  add(name, percentile(name, samples, q) * scale, unit, samples.size());
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::count_attempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::uint32_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint32_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<std::uint32_t>(spans_.size());
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children grouped by parent, then each parent's covered time is the
  // union of its children's intervals clipped to the parent.
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i + 1);
  }
  std::map<std::string, Totals> totals;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (std::uint32_t child : children[i + 1]) {
      const Span& c = spans_[child - 1];
      const std::int64_t start = std::max(c.start_ns, span.start_ns);
      const std::int64_t end = std::min(c.end_ns, span.end_ns);
      if (end > start) covered.emplace_back(start, end);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : covered) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered_ns += end - from;
      reach = std::max(reach, end);
    }
    const std::int64_t duration = std::max<std::int64_t>(
        0, span.end_ns - span.start_ns);
    Totals& t = totals[span.name];
    ++t.calls;
    t.self_s += static_cast<double>(std::max<std::int64_t>(
                    0, duration - covered_ns)) *
                1e-9;
  }
  return totals;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i + 1 << ',' << s.parent << ',' << s.request << ',' << s.name
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

namespace {

double reference_work_cpu_s() {
  struct Record {
    double key = 0.0;
    double value = 0.0;
    std::uint64_t id = 0;
    std::vector<std::uint32_t> nodes;
  };
  constexpr std::uint32_t kRecords = 20000;
  const double start = thread_cpu_s();
  std::mt19937_64 rng(2007);
  std::vector<Record> records;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    Record record;
    record.key = std::generate_canonical<double, 53>(rng);
    record.value = std::log1p(record.key) * record.key;
    record.id = rng();
    record.nodes.assign(4, i);
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  std::unordered_map<std::uint64_t, double> index;
  for (const Record& record : records) index[record.id] = record.value;
  double sum = 0.0;
  for (const Record& record : records) sum += index[record.id];
  const double elapsed = thread_cpu_s() - start;
  if (!(sum > 0.0)) throw std::logic_error("reference work lost its records");
  return elapsed;
}

}  // namespace

double run_reference_work(std::size_t threads) {
  // Each thread runs the work twice untimed first: a fresh heap faults its
  // pages in over the first two runs, and the timed run should measure
  // the work, as it did when timed in a long-running process. The barrier
  // makes the timed runs overlap.
  std::vector<double> seconds(threads);
  std::barrier warm(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&seconds, &warm, i] {
      (void)reference_work_cpu_s();
      (void)reference_work_cpu_s();
      warm.arrive_and_wait();
      seconds[i] = reference_work_cpu_s();
    });
  }
  for (std::thread& worker : workers) worker.join();
  return std::accumulate(seconds.begin(), seconds.end(), 0.0) /
         static_cast<double>(threads);
}

double reference_cpu_s(std::size_t threads) {
  if (threads == 1) return reference_work_cpu_s();
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::string exe = "/proc/self/exe";
  std::string flag = kReferenceWorkFlag;
  std::string count = std::to_string(threads);
  char* argv[] = {exe.data(), flag.data(), count.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[64];
    ssize_t n = 0;
    while ((n = ::read(out[0], buffer, sizeof(buffer))) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) text.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(out[0]);
  int status = 0;
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("the reference work process failed");
  }
  return std::stod(text);
}

double normalised(double cpu_s, double before, double after) {
  return cpu_s * kReferenceNominalS / (0.5 * (before + after));
}

double steal_s() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string label;
  double ticks[8] = {};
  stat >> label;
  for (double& t : ticks) stat >> t;
  if (!stat || label != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace utilrisk::e2e
