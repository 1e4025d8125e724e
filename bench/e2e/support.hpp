// Shared plumbing of the end-to-end benchmark driver: clocks, sample
// summaries, the metric report and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace utilrisk::e2e {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds; every span and latency in the driver uses it.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(Clock::time_point start);

/// A sample of timings. Percentiles are nearest-rank; one is *supported*
/// only when at least ten samples lie beyond it, which is what the
/// benchmark demands of every percentile it reports.
class Samples {
 public:
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] bool supports(double q) const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;

 private:
  void sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

[[nodiscard]] double median(std::vector<double> values);

/// One reported number. `samples` is the count a percentile or median was
/// taken over (0 for a plain count or ratio).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Everything one workload run measured and checked.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  /// A percentile of `samples`, failing the run when the sample cannot
  /// support it; `name` labels the failure.
  [[nodiscard]] double percentile(const std::string& name,
                                  const Samples& samples, double q);
  /// Books a supported percentile as metric `name`.
  void add_percentile(const std::string& name, const Samples& samples,
                      double q, double scale, const std::string& unit);
  /// Records a correctness gate; a failed gate fails the run.
  void gate(bool ok, const std::string& what);
  void count_attempts(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Smoke runs use samples too small for tail percentiles; the
  /// ten-beyond rule is then not enforced.
  bool enforce_support = true;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced run. Spans are recorded only
/// by benchmark code, around calls into the program's layers, and written
/// out when the run ends. A disabled tracer records nothing and costs one
/// branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
  };
  struct Totals {
    std::uint64_t calls = 0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void reserve(std::size_t n) {
    if (enabled_) spans_.reserve(spans_.size() + n);
  }
  /// Records a finished span; returns its id (ids start at 1), or 0 when
  /// tracing is off.
  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent = 0,
                       std::uint64_t request = 0);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Per span name: calls and self time (duration minus the union of its
  /// children's intervals, clipped to the span).
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// One line per span: id,parent,request,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// CPU time of this process, and of the calling thread, in seconds.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// The machine's speed. On a shared virtual machine the CPU time of the
/// same work drifts by up to 40% within a minute, as other machines load
/// the host's caches and memory. A fixed piece of reference work --
/// allocating, sorting and hashing records, the mix of the program's
/// set-up and simulation -- slows by the same share (within about 5%),
/// while pure arithmetic or pure memory latency does not. It must run on
/// as many threads as the work it is compared with: a single-threaded
/// reference does not follow a 4-worker sweep pass. The reference work
/// lives here, so no change to the program moves it.
///
/// CPU seconds of one run of the reference work, on each of `threads`
/// threads at once, averaged over them. One thread runs it on the calling
/// thread, the one whose work it is compared with. More run it in a child
/// process (this program with kReferenceWorkFlag), so that their memory,
/// 3 MB a thread, stays out of this process's peak_rss_mb.
[[nodiscard]] double reference_cpu_s(std::size_t threads);
/// The same on `threads` new threads of this process: what the child runs.
[[nodiscard]] double run_reference_work(std::size_t threads);
constexpr const char* kReferenceWorkFlag = "--reference-work";
/// Reference CPU seconds on the nominal machine every end-to-end time is
/// scaled to.
constexpr double kReferenceNominalS = 0.005;
/// `cpu_s`, measured between two runs of the reference work that took
/// `before` and `after`, scaled to the nominal machine.
[[nodiscard]] double normalised(double cpu_s, double before, double after);

/// Steal time so far, summed over the machine's CPUs, in seconds: time a
/// virtual CPU wanted to run while the host ran something else
/// (/proc/stat; 0 where the kernel does not report it).
[[nodiscard]] double steal_s();

}  // namespace utilrisk::e2e
