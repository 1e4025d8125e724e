// Memoisation of simulation runs.
//
// Figures 3-8 (and 6-8) share one policies x scenarios x values sweep, and
// within a sweep the all-defaults run recurs in most scenarios. The store
// caches raw objective values keyed by the complete run configuration and
// optionally persists them to a CSV file so the per-figure bench binaries
// reuse each other's simulations.
//
// Thread safety: lookup/insert/size may be called concurrently (the
// sweep executor, exp::ExperimentRunner, shares one store across its pool
// workers). Reads take a shared lock; inserts take an exclusive lock and
// perform the single-writer append + flush to the backing file while
// holding it, so a crash can lose at most the record being written and
// never interleaves two records.
#pragma once

#include <atomic>
#include <fstream>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>

#include "core/objectives.hpp"

namespace utilrisk::exp {

class ResultStore {
 public:
  /// In-memory only.
  ResultStore() = default;

  /// Backed by `path`: existing entries are loaded eagerly (ignored if the
  /// file does not exist; malformed lines are skipped with a warning);
  /// every insert appends to the file and flushes, so a crash mid-run
  /// cannot tear an already-acknowledged record.
  ///
  /// The first line of the file is the schema header (kSchemaHeader). A
  /// file without the current header — produced before cache keys covered
  /// the failure knobs, or by a future incompatible version — is discarded
  /// wholesale and rewritten, so a stale cache self-invalidates instead of
  /// silently serving wrong objectives. Duplicate keys whose objective
  /// values disagree (two incompatible writers sharing one file) are
  /// dropped entirely and re-simulated rather than trusting either line.
  explicit ResultStore(std::string path);

  /// First line of every backing file. Bump the version whenever the line
  /// format or the run-key definition changes incompatibly.
  static constexpr const char* kSchemaHeader = "#utilrisk.result_store/2";

  [[nodiscard]] std::optional<core::ObjectiveValues> lookup(
      const std::string& key) const;

  void insert(const std::string& key, const core::ObjectiveValues& values);

  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mutex_);
    return entries_.size();
  }
  [[nodiscard]] std::size_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Lines of the backing file dropped by load() because they failed to
  /// parse (torn tail of a crashed run, manual edits) or carried a
  /// conflicting duplicate key.
  [[nodiscard]] std::size_t malformed_lines_skipped() const {
    return malformed_lines_skipped_;
  }
  /// Subset of malformed_lines_skipped(): lines dropped because the same
  /// key appeared with disagreeing objective values (both copies are
  /// dropped — re-simulation beats trusting a conflicting cache line).
  [[nodiscard]] std::size_t conflicting_lines_dropped() const {
    return conflicting_lines_dropped_;
  }
  /// True when load() discarded a backing file whose schema header was
  /// missing or outdated.
  [[nodiscard]] bool stale_cache_discarded() const {
    return stale_cache_discarded_;
  }

 private:
  /// Returns true when the backing file must be rewritten (missing, stale
  /// schema, or compaction after dropping conflicting lines).
  bool load();
  /// Truncates the backing file and writes header + surviving entries.
  void rewrite_file();

  std::string path_;      ///< empty = memory-only
  std::ofstream append_;  ///< held open across inserts (single writer)
  std::map<std::string, core::ObjectiveValues> entries_;
  mutable std::shared_mutex mutex_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::size_t malformed_lines_skipped_ = 0;
  std::size_t conflicting_lines_dropped_ = 0;
  bool stale_cache_discarded_ = false;
};

}  // namespace utilrisk::exp
