// Sharded serving: N admission engines behind one consistent-hash router.
//
// `utilrisk serve --shards N` partitions the tenant/scenario space across
// N AdmissionEngine instances, each with its own engine thread, Simulator
// worlds, bounded queue and write-ahead journal. The router hashes the
// request's routing key (protocol.hpp routing_key: tenant, else scenario
// hash, else 0) onto a consistent-hash ring of virtual points, so the
// same key always lands on the same shard — across connections, restarts
// and recoveries.
//
// Digest semantics: each shard keeps its own order-independent decision
// digest; the session digest is their verify::UnorderedDigest::merge.
// Because the engine isolates simulation state per routing key
// (engine.hpp), a request's decision is a pure function of its own key's
// request subsequence — so the merged digest is invariant under shard
// count *and* under how requests interleave across shards. `--shards 1`
// and `--shards 4` over the same request stream produce the same merged
// digest, which is how the golden/replay harness keeps gating the sharded
// server (docs/SERVING.md, docs/DETERMINISM.md).
//
// Journals: shard i appends under `<journal_dir>/shard-000i` at every
// shard count, `--shards 1` included. A `shards.meta` marker records the
// shard count; recovery with a different `--shards` refuses to start
// instead of silently re-routing journalled tenants onto different
// simulation states. Segments directly under the root are the flat layout
// older `--shards 1` servers wrote; they are refused, never skipped.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace utilrisk::serve {

/// Consistent-hash ring: `shard_count` shards, each contributing
/// `kVirtualPoints` points. Deterministic across processes/platforms
/// (fixed mix function, no seeding) — routing must reproduce after a
/// crash for per-shard journal recovery to replay the right requests.
class ShardRouter {
 public:
  static constexpr std::size_t kVirtualPoints = 64;

  explicit ShardRouter(std::size_t shard_count);

  [[nodiscard]] std::size_t shard_for(std::uint64_t routing_key) const;
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

 private:
  std::size_t shard_count_;
  /// (ring position, shard) sorted by position; lookup is a binary search
  /// for the first point at or after hash(key), wrapping at the end.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

struct ShardedEngineConfig {
  /// Per-shard engine template. `queue_capacity` is per shard;
  /// `journal_dir` is the *root* directory (per-shard segment
  /// subdirectories are derived); `shard_index` is overwritten per shard.
  EngineConfig engine;
  std::size_t shards = 1;
};

/// N engines behind the router, presenting the single-engine surface
/// (EngineApi) to the server front end. Construction recovers every
/// shard's journal (digest-verified, like the single engine) and throws
/// JournalError on a shard-count mismatch with the journal's
/// `shards.meta` or on flat segments in the journal root.
class ShardedEngine : public EngineApi {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);

  void start() override;
  [[nodiscard]] bool submit(const Request& request,
                            Completion completion) override;
  [[nodiscard]] Response make_busy_response(
      const Request& request) const override;
  /// Every shard's engine thread tells `listener` after its own ticks.
  void set_release_listener(ReleaseListener* listener) override;
  /// Drains every shard and merges: counters sum, virtual end time is the
  /// max, and the session decision digest is the order-independent merge
  /// of the per-shard digests.
  EngineStats drain() override;

  [[nodiscard]] std::size_t shard_count() const { return engines_.size(); }
  [[nodiscard]] AdmissionEngine& shard(std::size_t index) {
    return *engines_[index];
  }
  [[nodiscard]] const ShardRouter& router() const { return router_; }

  /// Merged crash-recovery outcome: replay totals summed across shards,
  /// digest fields carrying the *merged* post-replay decision digest
  /// (what the recovery banner prints; comparable with a client's merged
  /// session digest).
  [[nodiscard]] RecoveryStats recovery() const;
  /// Summed journal write totals across shards.
  [[nodiscard]] JournalStats journal_stats() const;
  /// Per-shard drain stats (valid after drain()).
  [[nodiscard]] const std::vector<EngineStats>& shard_stats() const {
    return shard_stats_;
  }

 private:
  ShardRouter router_;
  std::vector<std::unique_ptr<AdmissionEngine>> engines_;
  std::vector<EngineStats> shard_stats_;
  EngineStats merged_;
  bool drained_ = false;

  // serve.shard.* instruments (null when metrics are absent/disabled).
  std::vector<obs::Counter*> routed_metrics_;
  std::vector<obs::Gauge*> depth_metrics_;
};

}  // namespace utilrisk::serve
