#include "serve/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"

namespace utilrisk::serve {

namespace {

/// SplitMix64 finalizer: the ring positions and key placements must be
/// stable across processes, so no std::hash (implementation-defined).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardRouter::ShardRouter(std::size_t shard_count)
    : shard_count_(std::max<std::size_t>(1, shard_count)) {
  ring_.reserve(shard_count_ * kVirtualPoints);
  for (std::size_t shard = 0; shard < shard_count_; ++shard) {
    for (std::size_t point = 0; point < kVirtualPoints; ++point) {
      // Double-mix so shard 0's points are not a shifted copy of shard
      // 1's (a single pass over `shard * K + point` correlates them).
      const std::uint64_t position =
          mix64(mix64(shard + 1) ^ (point * 0x9e3779b97f4a7c15ULL));
      ring_.emplace_back(position, static_cast<std::uint32_t>(shard));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::shard_for(std::uint64_t routing_key) const {
  if (shard_count_ == 1) return 0;
  const std::uint64_t point = mix64(routing_key);
  // First ring position at or after the key's point, wrapping past the
  // top of the ring back to the first entry.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::uint64_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

namespace {

/// `<root>/shard-000i`: where shard `shard_index` journals.
[[nodiscard]] std::string shard_journal_dir(const std::string& root,
                                            std::size_t shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu", shard_index);
  return (std::filesystem::path(root) / name).string();
}

/// Validates the journal root before any shard recovers from it, and
/// writes `shards.meta` when absent. Refuses `journal-*.ndjson` directly
/// under the root (the flat layout, which recovery would skip) and a
/// marker recording another shard count: re-routing journalled tenants
/// onto different shards would silently change their simulation state.
void check_shard_journal_layout(const std::string& root,
                                std::size_t shard_count) {
  namespace fs = std::filesystem;
  std::error_code ec;
  // Before the marker: older flat journals carry one reading `shards 1`.
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("journal-") && name.ends_with(".ndjson")) {
      throw JournalError("journal " + root + " holds " + name +
                         " in the flat layout of older --shards 1 servers; "
                         "recovery reads only " + root +
                         "/shard-000i and would skip it — point --journal "
                         "at a fresh directory");
    }
  }
  const fs::path meta_path = fs::path(root) / "shards.meta";
  if (fs::exists(meta_path, ec)) {
    std::ifstream in(meta_path);
    std::size_t recorded = 0;
    std::string label;
    if (!(in >> label >> recorded) || label != "shards" || recorded == 0) {
      throw JournalError("unreadable shard marker " + meta_path.string());
    }
    if (recorded != shard_count) {
      throw JournalError(
          "journal " + root + " was written with --shards " +
          std::to_string(recorded) + " but the server was started with " +
          "--shards " + std::to_string(shard_count) +
          " — re-routing journalled tenants onto different shards would " +
          "change their simulation state; recover with the original shard " +
          "count or point --journal at a fresh directory");
    }
    return;
  }
  fs::create_directories(root, ec);
  std::ofstream out(meta_path, std::ios::trunc);
  out << "shards " << shard_count << '\n';
  if (!out) {
    throw JournalError("cannot write shard marker " + meta_path.string());
  }
}

}  // namespace

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : router_(config.shards) {
  const std::size_t count = router_.shard_count();
  if (!config.engine.journal_dir.empty()) {
    check_shard_journal_layout(config.engine.journal_dir, count);
  }
  engines_.reserve(count);
  routed_metrics_.reserve(count);
  depth_metrics_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    EngineConfig engine_config = config.engine;
    engine_config.shard_index = static_cast<int>(i);
    if (!engine_config.journal_dir.empty()) {
      engine_config.journal_dir =
          shard_journal_dir(config.engine.journal_dir, i);
    }
    engines_.push_back(std::make_unique<AdmissionEngine>(engine_config));
    const std::string prefix = "serve.shard." + std::to_string(i);
    routed_metrics_.push_back(
        obs::counter_or_null(config.engine.metrics, prefix + ".routed"));
    depth_metrics_.push_back(
        obs::gauge_or_null(config.engine.metrics, prefix + ".queue_depth"));
  }
  if (auto* shards_gauge =
          obs::gauge_or_null(config.engine.metrics, "serve.shards")) {
    shards_gauge->set(static_cast<double>(count));
  }
}

void ShardedEngine::start() {
  for (const auto& engine : engines_) engine->start();
}

bool ShardedEngine::submit(const Request& request, Completion completion) {
  const std::size_t index = router_.shard_for(routing_key(request));
  AdmissionEngine& engine = *engines_[index];
  const bool queued = engine.submit(request, std::move(completion));
  if (queued && routed_metrics_[index] != nullptr) {
    routed_metrics_[index]->inc();
  }
  if (depth_metrics_[index] != nullptr) {
    depth_metrics_[index]->set(static_cast<double>(engine.queue_depth()));
  }
  return queued;
}

Response ShardedEngine::make_busy_response(const Request& request) const {
  const std::size_t index = router_.shard_for(routing_key(request));
  Response response = engines_[index]->make_busy_response(request);
  response.shard = static_cast<int>(index);
  return response;
}

void ShardedEngine::set_release_listener(ReleaseListener* listener) {
  for (const auto& engine : engines_) engine->set_release_listener(listener);
}

EngineStats ShardedEngine::drain() {
  if (drained_) return merged_;
  shard_stats_.clear();
  shard_stats_.reserve(engines_.size());
  for (const auto& engine : engines_) {
    shard_stats_.push_back(engine->drain());
  }
  EngineStats merged;
  for (const EngineStats& stats : shard_stats_) {
    merged.processed += stats.processed;
    merged.accepted += stats.accepted;
    merged.rejected += stats.rejected;
    merged.fulfilled += stats.fulfilled;
    merged.violated += stats.violated;
    merged.batches += stats.batches;
    merged.events_dispatched += stats.events_dispatched;
    merged.shed += stats.shed;
    merged.advise_queries += stats.advise_queries;
    merged.advisor_evaluations += stats.advisor_evaluations;
    merged.policy_switches += stats.policy_switches;
    merged.virtual_end_time =
        std::max(merged.virtual_end_time, stats.virtual_end_time);
    merged.digest.merge(stats.digest);
  }
  merged.decision_digest = verify::to_hex(merged.digest.value());
  merged_ = merged;
  drained_ = true;
  return merged_;
}

RecoveryStats ShardedEngine::recovery() const {
  RecoveryStats merged;
  verify::UnorderedDigest digest;
  for (const auto& engine : engines_) {
    const RecoveryStats& stats = engine->recovery();
    merged.attempted = merged.attempted || stats.attempted;
    merged.replayed += stats.replayed;
    merged.digest_match = merged.digest_match && stats.digest_match;
    merged.segments += stats.segments;
    merged.truncated_records += stats.truncated_records;
    merged.truncated_bytes += stats.truncated_bytes;
    // Per-shard replay digests merge into the session digest the banner
    // prints — comparable with a pre-crash client's merged digest. (Safe
    // before start(): recovery replays on the constructing thread.)
    digest.merge(engine->decision_digest_snapshot());
  }
  if (merged.replayed > 0) {
    merged.replayed_digest = verify::to_hex(digest.value());
    merged.journal_digest = merged.replayed_digest;  // each shard verified
  }
  return merged;
}

JournalStats ShardedEngine::journal_stats() const {
  JournalStats merged;
  for (const auto& engine : engines_) {
    const JournalStats stats = engine->journal_stats();
    merged.requests += stats.requests;
    merged.ticks += stats.ticks;
    merged.switches += stats.switches;
    merged.fsyncs += stats.fsyncs;
    merged.rotations += stats.rotations;
    merged.bytes += stats.bytes;
  }
  return merged;
}

}  // namespace utilrisk::serve
