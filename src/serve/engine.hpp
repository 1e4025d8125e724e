// Admission engine: the long-lived simulation backend of `utilrisk serve`.
//
// Turns the offline ComputingService + policy/economy engine into an
// online decision maker. One dedicated engine thread owns a live
// Simulator and ComputingService for the whole server session; IO threads
// hand it requests through a bounded queue (bounded_queue.hpp) and the
// engine coalesces whatever is in flight into a batch, advances the
// virtual clock tick by tick, and answers each request with the policy's
// admission decision, the quoted price and a load-risk index. The queue's
// capacity is the one backpressure knob: submit() refuses when it is full
// and the caller answers `busy`.
//
// Determinism (docs/SERVING.md): each request carries its own virtual
// submission instant `t`; the engine clamps it monotonically
// (virtual_now = max(virtual_now, t)) and the policy decides from
// simulation state alone, so decisions are a pure function of the request
// sequence — *not* of wall-clock timing, batch boundaries or worker
// count. A seeded closed-loop client therefore gets bit-identical
// decisions on every run, digest-checked with verify::UnorderedDigest.
// Interleaving across concurrent connections is the one nondeterminism
// the engine cannot remove; single-connection (or replayed) streams are
// fully reproducible.
//
// Tenant isolation: each routing key (serve/protocol.hpp routing_key —
// the tenant, or the scenario hash, or 0 for legacy traffic) owns its own
// Simulator/ComputingService/virtual clock, created lazily on first use.
// A decision therefore depends only on the prior requests of its *own*
// key, which is what makes the sharded server's merged decision digest
// invariant under shard count and request routing (serve/shard.hpp):
// however tenants are partitioned across engines, every tenant's decision
// stream is bit-identical. Key-0 traffic uses a single state, so legacy
// single-tenant sessions behave exactly as before.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "advise/advisor_engine.hpp"
#include "policy/factory.hpp"
#include "policy/policy.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "service/computing_service.hpp"
#include "sim/simulator.hpp"
#include "verify/digest.hpp"

namespace utilrisk::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace utilrisk::obs

namespace utilrisk::serve {

struct EngineConfig {
  policy::PolicyKind policy = policy::PolicyKind::Libra;
  economy::EconomicModel model = economy::EconomicModel::CommodityMarket;
  cluster::MachineConfig machine;  ///< node_count defaults per cluster/node.hpp
  economy::PricingParams pricing;
  policy::FirstRewardParams first_reward;
  /// Bounded admission queue capacity, the one cap on queue depth: a
  /// full queue is backpressure (`busy`).
  std::size_t queue_capacity = 1024;
  /// Max requests coalesced into one simulation tick.
  std::size_t max_batch = 64;
  /// Hint clients receive with a `busy` response.
  double retry_after_ms = 50.0;
  /// Write-ahead journal directory. Empty = journaling off. When set, the
  /// constructor first replays any surviving journal from this directory
  /// (deterministic crash recovery, digest-verified against the last tick
  /// record) and then appends the new session to a fresh segment.
  std::string journal_dir;
  FsyncPolicy fsync = FsyncPolicy::Batch;
  std::size_t journal_segment_records = 4096;
  /// Group-commit window for FsyncPolicy::Batch: under sustained backlog
  /// the engine fsyncs at most once per this many milliseconds, holding
  /// the covered ticks' completions until the sync (no client ever learns
  /// a decision before it is durable). When the queue empties the engine
  /// syncs immediately, so an idle or closed-loop client never waits out
  /// the window.
  double group_commit_ms = 8.0;
  /// Optional registry for the serve.* instruments (may be null).
  obs::MetricsRegistry* metrics = nullptr;
  sim::LogLevel log_level = sim::LogLevel::Off;
  /// Which shard this engine is in a sharded deployment (-1 = unsharded).
  /// Stamped on every response's `shard` hint; never digested.
  int shard_index = -1;
  /// Online risk advisor (docs/ADVISOR.md). The observe path (rolling
  /// window + live estimators) is always on; scheduled evaluations run
  /// when advisor.scheduled() and live policy switching additionally
  /// needs advisor.auto_switch. Switch points are per routing key (every
  /// advisor.effective_every() decided requests of that key's own
  /// subsequence), so they reproduce identically under replay, shard
  /// count and interleaving.
  advise::OnlineAdvisorConfig advisor;
};

/// Delivered on the engine thread once the decision for a request exists.
using Completion = std::function<void(const Response&)>;

/// Told by an engine thread each time it has released completions: after
/// the fsync that covers a tick, and after the deferred tail at drain. The
/// server buffers what completions answer and flushes it here, once per
/// connection per tick.
class ReleaseListener {
 public:
  virtual void completions_released() = 0;

 protected:
  ~ReleaseListener() = default;
};

/// Session totals, snapshotted at drain time.
struct EngineStats {
  std::uint64_t processed = 0;  ///< requests that reached the engine
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  /// Jobs whose SLA settled fulfilled/violated by the time of the drain.
  std::uint64_t fulfilled = 0;
  std::uint64_t violated = 0;
  std::uint64_t batches = 0;
  std::uint64_t events_dispatched = 0;
  /// Requests dropped unsimulated because their `deadline_ms` decision
  /// budget expired in the queue (wall-clock artefact; not digested).
  std::uint64_t shed = 0;
  /// `advise` protocol queries answered (read-only; never digested).
  std::uint64_t advise_queries = 0;
  /// Scheduled advisor evaluations at switch points.
  std::uint64_t advisor_evaluations = 0;
  /// Live policy switches performed (advise-auto mode).
  std::uint64_t policy_switches = 0;
  double virtual_end_time = 0.0;
  /// Order-independent digest over (request id, decision, price, tenant)
  /// — equal across runs iff the admission decisions were identical.
  std::string decision_digest;
  /// The digest's raw accumulator — mergeable across shards
  /// (verify::UnorderedDigest::merge) into the combined session digest.
  verify::UnorderedDigest digest;
};

/// Outcome of the constructor's journal replay (all zeros / empty when no
/// journal directory was configured or the directory held no records).
struct RecoveryStats {
  bool attempted = false;    ///< a journal directory was configured
  std::uint64_t replayed = 0;  ///< journalled requests re-decided
  /// True when the replayed decision digest matched the digest recorded
  /// in the journal's last tick record (vacuously true when the journal
  /// held no tick). A mismatch throws from the constructor instead — a
  /// server must never serve on top of a divergent recovery.
  bool digest_match = true;
  std::string journal_digest;   ///< digest the pre-crash process recorded
  std::string replayed_digest;  ///< digest after replay, at the same point
  std::uint64_t segments = 0;
  std::uint64_t truncated_records = 0;  ///< torn-tail records dropped
  std::uint64_t truncated_bytes = 0;
};

/// The surface the server front end (server.hpp) needs from a decision
/// backend. AdmissionEngine is the single-engine implementation; the
/// sharded router (serve/shard.hpp ShardedEngine) fans the same calls out
/// across N engines, so the transport code is shard-agnostic.
class EngineApi {
 public:
  virtual ~EngineApi() = default;

  /// Launches the decision thread(s). Idempotent.
  virtual void start() = 0;

  /// Enqueues a request; `completion` runs on an engine thread with the
  /// decision. Returns false on backpressure (bounded queue full or
  /// draining) — the caller answers `busy` itself. Thread-safe.
  [[nodiscard]] virtual bool submit(const Request& request,
                                    Completion completion) = 0;

  /// The canonical backpressure response for `request`.
  [[nodiscard]] virtual Response make_busy_response(
      const Request& request) const = 0;

  /// Attaches the listener every engine thread tells after it released
  /// completions (null detaches). Safe while the engine runs.
  virtual void set_release_listener(ReleaseListener* listener) = 0;

  /// Graceful shutdown: stop accepting, answer everything queued, settle
  /// the simulation(s), return session totals. Idempotent.
  virtual EngineStats drain() = 0;
};

class AdmissionEngine : public EngineApi {
 public:
  /// Constructs the engine; when `config.journal_dir` is set, loads and
  /// replays the surviving journal first (see RecoveryStats) and opens a
  /// fresh journal segment for this session. Throws JournalError when the
  /// journal is unreadable/corrupt or the replayed decision digest
  /// diverges from the journal's own record of the pre-crash digest.
  explicit AdmissionEngine(const EngineConfig& config);
  /// Joins the engine thread; pending completions fire first (drain() is
  /// the polite path — the destructor is the safety net).
  ~AdmissionEngine();

  AdmissionEngine(const AdmissionEngine&) = delete;
  AdmissionEngine& operator=(const AdmissionEngine&) = delete;

  /// Launches the engine thread. Idempotent.
  void start() override;

  /// Enqueues a request; `completion` runs on the engine thread with the
  /// decision. Returns false when the bounded queue is full or the engine
  /// is draining — the caller answers `busy` itself (make_busy_response
  /// builds the canonical one). Thread-safe.
  [[nodiscard]] bool submit(const Request& request,
                            Completion completion) override;

  /// The canonical backpressure response for `request`.
  [[nodiscard]] Response make_busy_response(
      const Request& request) const override;

  void set_release_listener(ReleaseListener* listener) override {
    release_listener_.store(listener, std::memory_order_release);
  }

  /// Graceful shutdown: stop accepting, process everything already
  /// queued (every completion fires), run the simulation to quiescence so
  /// accepted jobs settle, and return the session totals. Idempotent —
  /// later calls return the same stats.
  EngineStats drain() override;

  /// Test hook: while paused the engine consumes nothing from the queue
  /// (the hold gate lives inside the queue's pop, so pausing is exact
  /// regardless of where the engine thread currently blocks) and the
  /// queue observably fills — the backpressure tests use this to force
  /// `busy` deterministically. Draining resumes automatically.
  void pause();
  void resume();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const {
    return queue_.capacity();
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// Crash-recovery outcome (defaults when no journal was configured).
  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }
  /// The running decision digest's raw accumulator. Only safe before
  /// start() (e.g. right after a journal recovery, for the sharded
  /// recovery banner) or after drain() — it is engine-thread state.
  [[nodiscard]] const verify::UnorderedDigest& decision_digest_snapshot()
      const {
    return decision_digest_;
  }
  /// The online advisor behind `advise` answers. Engine-thread state, like
  /// the digest above: only safe before start() or after drain().
  [[nodiscard]] const advise::AdvisorEngine& advisor() const {
    return *advisor_;
  }
  /// Journal write totals for this session (zeros when journaling is off).
  [[nodiscard]] JournalStats journal_stats() const {
    return journal_ != nullptr ? journal_->stats() : JournalStats{};
  }
  /// Journal bytes the last fsync made durable (JournalWriter::
  /// synced_bytes; 0 when journaling is off). Safe from any thread.
  [[nodiscard]] std::uint64_t journal_synced_bytes() const {
    return journal_ != nullptr ? journal_->synced_bytes() : 0;
  }

 private:
  struct Pending {
    Request request;
    Completion completion;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// One routing key's isolated simulation world (see the header comment:
  /// isolation per key is what makes sharded digests merge-invariant).
  struct TenantState {
    sim::Simulator simulator;
    std::unique_ptr<service::ComputingService> service;
    double virtual_now = 0.0;
    workload::JobId next_job_id = 1;
    /// Processor-seconds of accepted work, totalled at admission;
    /// together with Policy::delivered_proc_seconds() this yields the
    /// outstanding backlog behind the risk index in O(1).
    double accepted_work = 0.0;
    /// Outcomes settled under *previous* policies of this key: a live
    /// switch rebuilds the ComputingService, so the pre-switch totals are
    /// folded in here first (all ObjectiveInputs fields are additive).
    /// Live estimates and drain totals = settled + the current service's
    /// collectors.
    core::ObjectiveInputs settled_inputs;
    std::uint64_t settled_fulfilled = 0;
    std::uint64_t settled_violated = 0;
  };

  void engine_loop();
  /// Tells the release listener, if one is attached, that completions
  /// went out.
  void tell_release_listener();
  /// The pure decision path: clamp the virtual clock, simulate, digest,
  /// feed the advisor and act on its switch points. Everything wall-clock
  /// (queue-wait metrics, sheds, completions, journaling) lives outside
  /// so recovery replay and live serving share one code path and stay
  /// bit-identical.
  [[nodiscard]] Response decide(const Request& request);
  /// Answers a read-only `advise` query (never journalled or digested).
  [[nodiscard]] Response answer_advise(const Request& request);
  /// Executes a live policy switch for one key: quiesces the key's
  /// simulator, folds the old service's settled outcomes into the
  /// TenantState accumulators, rebuilds the service under the new policy,
  /// folds the switch event into the decision digest and (live sessions
  /// only — journal_ is null during recovery replay) journals it.
  void apply_policy_switch(std::uint64_t key, TenantState& state,
                           const advise::Evaluation& evaluation);
  void recover_from_journal();
  /// Lazily creates the isolated state for one routing key.
  [[nodiscard]] TenantState& state_for(std::uint64_t key);
  [[nodiscard]] double risk_index(const TenantState& state,
                                  const workload::Job& job) const;

  EngineConfig config_;
  BoundedQueue<Pending> queue_;

  // --- engine-thread-only state ----------------------------------------
  /// Isolated per-routing-key worlds (std::map: node-based, so TenantState
  /// — whose Simulator is not movable — stays pinned; deterministic
  /// iteration order for the drain pass). Key 0 is the legacy shared
  /// state for unattributed traffic.
  std::map<std::uint64_t, TenantState> tenants_;
  EngineStats stats_;
  verify::UnorderedDigest decision_digest_;
  /// Write-ahead journal (null when journaling is off). Engine-thread-only
  /// after construction.
  std::unique_ptr<JournalWriter> journal_;
  RecoveryStats recovery_;
  /// Online advisor: always constructed (the observe path is cheap and
  /// keeps `advise` queries answerable); scheduled evaluations and
  /// switching are gated by config_.advisor. Engine-thread-only.
  std::unique_ptr<advise::AdvisorEngine> advisor_;
  /// Switches performed this process lifetime (replay included), in
  /// decision order — recovery verifies the journalled switches are a
  /// prefix of these.
  std::vector<SwitchRecord> session_switches_;

  // --- cross-thread coordination ----------------------------------------
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  std::atomic<ReleaseListener*> release_listener_{nullptr};
  std::mutex drain_mutex_;  ///< serialises drain() callers
  std::thread thread_;

  // serve.* instruments (null when metrics are absent/disabled).
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* accepted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::Counter* busy_metric_ = nullptr;
  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* advise_metric_ = nullptr;
  obs::Counter* evaluations_metric_ = nullptr;
  obs::Counter* switches_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Histogram* queue_wait_metric_ = nullptr;
  obs::Histogram* batch_size_metric_ = nullptr;
  obs::Histogram* tick_seconds_metric_ = nullptr;
};

}  // namespace utilrisk::serve
