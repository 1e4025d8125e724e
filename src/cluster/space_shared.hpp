// Space-shared cluster executor: one task per processor, jobs occupy
// `procs` dedicated nodes from start to completion (the execution model of
// the backfilling policies and FirstReward).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/free_index.hpp"
#include "cluster/node.hpp"
#include "sim/entity.hpp"
#include "workload/job.hpp"

namespace utilrisk::cluster {

/// Snapshot of one running job, exposed so schedulers can compute EASY
/// backfilling shadow reservations from *estimated* completions.
struct RunningJobInfo {
  workload::JobId id = 0;
  std::uint32_t procs = 0;
  sim::SimTime start_time = 0.0;
  /// start_time + estimated_runtime: what the scheduler believes.
  sim::SimTime estimated_finish = 0.0;
  /// start_time + actual_runtime: ground truth (hidden from policies; used
  /// by tests and metrics only).
  sim::SimTime actual_finish = 0.0;
};

/// Dedicated-processor executor.
///
/// The executor runs jobs; *deciding* which job runs next is the policy's
/// concern (policy/queue_policy.hpp). Completion callbacks fire inside the
/// simulation event that completes the job, before any later event.
///
/// Failure semantics: node_down(id) removes the node from the free pool
/// and — because allocations are dedicated and jobs are rigid and
/// non-preemptible — kills the job occupying it (all of the job's nodes
/// are freed). node_up(id) restores the node. Placement is deterministic
/// (lowest free node ids first), so runs without failures are
/// bit-identical to the pre-occupancy-tracking executor.
class SpaceSharedCluster : public sim::Entity {
 public:
  /// Called when a job completes; receives the job id and completion time.
  using CompletionCallback =
      std::function<void(workload::JobId, sim::SimTime)>;

  SpaceSharedCluster(sim::Simulator& simulator, MachineConfig machine);

  /// Free processors right now (excludes down nodes).
  [[nodiscard]] std::uint32_t free_procs() const { return free_procs_; }

  [[nodiscard]] std::uint32_t total_procs() const {
    return machine_.node_count;
  }

  /// Processors currently up (total minus down nodes).
  [[nodiscard]] std::uint32_t up_procs() const {
    return machine_.node_count - down_count_;
  }

  [[nodiscard]] bool can_start(std::uint32_t procs) const {
    return procs <= free_procs_;
  }

  /// Starts `job` now on `job.procs` dedicated processors. Throws
  /// std::logic_error if insufficient processors are free (callers must
  /// check can_start). Completion fires at now + job.actual_runtime.
  void start(const workload::Job& job, CompletionCallback on_complete);

  /// Terminates a running job immediately (deadline enforcement / the
  /// preemption ablation): frees its processors, suppresses the pending
  /// completion, and does NOT invoke the completion callback. Returns
  /// false if the job is not running. Delivered work up to now is still
  /// accounted.
  bool cancel(workload::JobId id);

  /// Takes `id` out of service. If a job occupied the node, the whole job
  /// is killed (rigid, non-preemptive: losing one task loses the job) and
  /// returned with the work it completed; its other nodes return to the
  /// free pool. Throws std::logic_error if the node is already down.
  std::optional<FailureKill> node_down(NodeId id);

  /// Returns a repaired node to the free pool. Throws std::logic_error if
  /// the node is not down.
  void node_up(NodeId id);

  [[nodiscard]] bool is_up(NodeId id) const;
  [[nodiscard]] std::uint32_t down_count() const { return down_count_; }

  /// Running jobs sorted by (estimated finish time, id) — a walk of the
  /// incrementally maintained finish index, no per-call sort.
  [[nodiscard]] std::vector<RunningJobInfo> running_jobs() const;

  /// Number of currently running jobs.
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }

  /// Earliest time at which at least `procs` processors are *estimated* to
  /// be free, assuming running jobs finish at their estimated completions
  /// and nothing new starts: the EASY "shadow time". Returns now() when
  /// already free. Jobs that have overrun their estimate are treated as
  /// finishing immediately (their estimated finish is in the past).
  /// Returns kTimeNever while down nodes leave fewer than `procs`
  /// processors in service.
  [[nodiscard]] sim::SimTime estimated_availability(std::uint32_t procs) const;

  /// Processors *estimated* to be free at `when` (free now, plus every
  /// running job whose estimated finish is at or before `when`, within the
  /// kernel time epsilon), capped at total_procs(). The EASY backfill
  /// "extra" query, answered from the finish index prefix in O(matching
  /// jobs) instead of a full running-set rescan.
  [[nodiscard]] std::uint32_t estimated_procs_free_by(sim::SimTime when) const;

  /// Processor-seconds actually delivered so far (utilisation accounting).
  [[nodiscard]] double busy_proc_seconds(sim::SimTime now) const;

 private:
  struct Running {
    workload::Job job;
    sim::SimTime start_time = 0.0;
    sim::SimTime estimated_finish = 0.0;  ///< key into finish_index_
    CompletionCallback on_complete;
    sim::EventHandle completion_event;
    std::vector<NodeId> nodes;  ///< dedicated nodes, ascending
  };

  /// Finish-time index entry; ordered by (estimated_finish, id), the same
  /// total order running_jobs() used to sort into. The remaining fields
  /// ride along so index walks need no running_ lookups.
  struct FinishEntry {
    sim::SimTime estimated_finish = 0.0;
    workload::JobId id = 0;
    std::uint32_t procs = 0;
    sim::SimTime start_time = 0.0;
    sim::SimTime actual_finish = 0.0;

    bool operator<(const FinishEntry& other) const {
      if (estimated_finish != other.estimated_finish) {
        return estimated_finish < other.estimated_finish;
      }
      return id < other.id;
    }
  };

  void complete(workload::JobId id);
  void release_nodes(const Running& entry);
  void erase_finish_entry(const Running& entry, workload::JobId id);

  MachineConfig machine_;
  std::uint32_t free_procs_ = 0;
  std::uint32_t down_count_ = 0;
  FreeNodeIndex free_nodes_;  ///< up and unoccupied, min() = lowest id
  std::vector<char> down_;
  /// occupant_[node] = running job id, or kNoOccupant.
  std::vector<workload::JobId> occupant_;
  std::map<workload::JobId, Running> running_;
  /// Incremental (estimated_finish, id) order over running_, one entry per
  /// running job; maintained on start/complete/cancel/node_down so
  /// earliest-finish queries are a prefix walk. A sorted contiguous array:
  /// the EASY queries walk it on every backfill decision, and an insert or
  /// erase moves at most one entry per running job, where a tree allocated
  /// a node per start and chased a pointer per step (DESIGN.md §4).
  std::vector<FinishEntry> finish_index_;
  double delivered_proc_seconds_ = 0.0;

  static constexpr workload::JobId kNoOccupant =
      static_cast<workload::JobId>(-1);
};

}  // namespace utilrisk::cluster
