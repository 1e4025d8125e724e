// Time-shared proportional-share cluster executor — the execution model of
// the Libra family (paper §5.2).
//
// Each job admitted with share s = estimate / deadline-duration places one
// task on each of `procs` distinct nodes. A node runs its tasks
// concurrently; admission keeps the committed share sum <= 1. Execution is
// work-conserving: leftover capacity is redistributed proportionally, so
// the instantaneous rate of task i on a node is
//     rate_i = share_i / sum_j share_j   (>= share_i).
// A task finishes when its integrated rate reaches the job's *actual*
// runtime; the job finishes when its last task does. Jobs are
// non-preemptible: shares stay committed until task completion, which is
// exactly how under-estimated jobs poison later admissions (Set B).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/node.hpp"
#include "sim/entity.hpp"
#include "workload/job.hpp"

namespace utilrisk::cluster {

/// Read-only view of a task, integrated up to "now", for admission logic
/// (Libra+$ pricing, LibraRiskD risk projection) and tests.
struct TaskView {
  workload::JobId job = 0;
  double share = 0.0;
  /// Scheduler-visible work target (estimated runtime, seconds of
  /// dedicated-processor time).
  double estimated_work = 0.0;
  /// Work integrated so far.
  double done_work = 0.0;
  /// Absolute deadline of the owning job.
  sim::SimTime deadline = 0.0;
  /// True once done_work exceeds estimated_work while the task still runs:
  /// the estimate was too small, remaining work is unknowable to the
  /// scheduler (LibraRiskD's risk signal).
  [[nodiscard]] bool overran_estimate() const {
    return done_work > estimated_work + 1e-9;
  }
};

/// Proportional-share executor.
class TimeSharedCluster : public sim::Entity {
 public:
  using CompletionCallback =
      std::function<void(workload::JobId, sim::SimTime)>;

  TimeSharedCluster(sim::Simulator& simulator, MachineConfig machine);

  [[nodiscard]] std::uint32_t node_count() const {
    return machine_.node_count;
  }

  /// Committed share on `node` (sum of task shares), without integration —
  /// shares only change at start/completion events.
  [[nodiscard]] double committed_share(NodeId node) const;

  /// Visits each task on `node`, in residence order, as a TaskView
  /// integrated to the current simulation time (projected without
  /// mutating the node), until `visit` returns false. Throws
  /// std::out_of_range for a bad node. Template visitor, no task vector:
  /// Libra+$ and LibraRiskD call this per candidate node on the admission
  /// hot path.
  template <typename Visit>
  void for_each_task(NodeId node, Visit&& visit) const {
    if (node >= nodes_.size()) {
      throw std::out_of_range("TimeSharedCluster::for_each_task: bad node");
    }
    const NodeState& state = nodes_[node];
    const double elapsed = now() - state.last_integrated;
    for (const Task& task : state.tasks) {
      const double rate =
          state.total_share > 0.0 ? task.share / state.total_share : 0.0;
      const TaskView view{.job = task.job,
                          .share = task.share,
                          .estimated_work = task.estimated_work,
                          .done_work = task.done + rate * elapsed,
                          .deadline = task.deadline};
      if (!visit(view)) return;
    }
  }

  /// Starts `job` with per-node share `share` on the given distinct nodes
  /// (exactly job.procs of them). Throws std::logic_error on violated
  /// preconditions (duplicate nodes, share overflow past 1 + epsilon,
  /// wrong node count). Admission decisions belong to the policy; the
  /// executor only enforces physical feasibility.
  void start(const workload::Job& job, const std::vector<NodeId>& nodes,
             double share, CompletionCallback on_complete);

  /// Terminates a running job (deadline enforcement / preemption
  /// ablation): removes all its tasks, frees their shares, re-plans the
  /// affected nodes, and does NOT invoke the completion callback. Returns
  /// false if the job is not running.
  bool cancel(workload::JobId id);

  /// Takes `id` out of service: every job with a task on it is killed
  /// entirely (rigid jobs lose all tasks when one dies), their shares are
  /// released on all nodes, and the kills are returned with each job's
  /// completed work (the minimum integrated work across its tasks — a
  /// restart must redo the slowest task's remainder). A down node accepts
  /// no new tasks and its committed share is 0, so Sigma-share accounting
  /// excludes it. Throws std::logic_error if the node is already down.
  std::vector<FailureKill> node_down(NodeId id);

  /// Returns a repaired node to service. Throws std::logic_error if the
  /// node is not down.
  void node_up(NodeId id);

  [[nodiscard]] bool is_up(NodeId id) const;
  [[nodiscard]] std::uint32_t down_count() const { return down_count_; }

  /// Number of jobs with at least one unfinished task.
  [[nodiscard]] std::size_t running_count() const { return jobs_.size(); }

  /// Processor-seconds delivered so far across all nodes. Walks only
  /// nodes that have ever hosted a task (identical sum: untouched nodes
  /// contribute exactly 0.0).
  [[nodiscard]] double busy_proc_seconds() const;

  /// Visits up nodes in best-fit order — committed share descending, node
  /// id ascending, the exact order Libra's node selection sorts into —
  /// until `visit` returns false. Nodes whose committed share exceeds
  /// `max_committed_bound` are skipped wholesale; callers pass a
  /// conservative bound (strictly above their true eligibility cutoff)
  /// and re-check the exact predicate per node, so the skip can never
  /// change which nodes are chosen. Template visitor (not std::function):
  /// this sits on the admission hot path.
  template <typename Visit>
  void for_each_up_node_best_fit(double max_committed_bound,
                                 Visit&& visit) const {
    // Entries above the bound sort strictly before this probe; entries at
    // exactly the bound are still visited (callers pass a conservative
    // bound, so the boundary is never load-bearing).
    ShareEntry probe;
    probe.committed = max_committed_bound;
    probe.id = 0;
    for (auto it = share_index_.lower_bound(probe);
         it != share_index_.end(); ++it) {
      if (!visit(it->id, it->committed)) return;
    }
  }

  /// Share-capacity headroom tolerance: admission comparisons use this to
  /// absorb floating-point accumulation.
  static constexpr double kShareEpsilon = 1e-9;

 private:
  struct Task {
    workload::JobId job = 0;
    double share = 0.0;
    double estimated_work = 0.0;
    double actual_work = 0.0;  ///< ground truth completion target
    double done = 0.0;
    sim::SimTime deadline = 0.0;
  };

  struct NodeState {
    std::vector<Task> tasks;
    double total_share = 0.0;
    sim::SimTime last_integrated = 0.0;
    sim::EventHandle next_completion;
    double delivered = 0.0;  ///< proc-seconds completed on this node
  };

  struct JobState {
    workload::Job job;  ///< kept so an outage kill can report/resubmit it
    std::uint32_t remaining_tasks = 0;
    CompletionCallback on_complete;
    /// Hosting nodes, ascending — job teardown visits exactly these
    /// instead of rescanning the whole cluster.
    std::vector<NodeId> nodes;
  };

  /// Share-index entry ordered best-fit first: committed share
  /// descending, node id ascending (Libra's selection order).
  struct ShareEntry {
    double committed = 0.0;
    NodeId id = 0;

    bool operator<(const ShareEntry& other) const {
      if (committed != other.committed) return committed > other.committed;
      return id < other.id;
    }
  };

  void integrate(NodeState& node);
  /// Points the node's completion event at its earliest task finish:
  /// moves the pending event in place (no allocation, no tombstone) and
  /// schedules a new one only when none is pending.
  void reschedule(NodeState& node, NodeId id);
  void handle_node_event(NodeId id);
  void task_finished(workload::JobId job);
  /// Integrates every node in `hosting` (ascending), removes `job`'s
  /// tasks, and returns the minimum done work across them (0 when the job
  /// hosts no tasks).
  double remove_job_tasks(workload::JobId job,
                          const std::vector<NodeId>& hosting);
  /// Re-keys node `id`'s share-index entry to its current total_share,
  /// reusing the tree node (extract, re-key, re-insert: no allocation).
  /// Call after mutating the share. No-op for down nodes.
  void share_index_update(NodeId id);

  MachineConfig machine_;
  std::vector<NodeState> nodes_;
  std::vector<char> down_;
  std::uint32_t down_count_ = 0;
  /// Never iterated (find/emplace/erase only), so hashed lookup is safe:
  /// no observable order depends on this container.
  std::unordered_map<workload::JobId, JobState> jobs_;
  /// Up nodes keyed by (committed share desc, id asc); maintained around
  /// every total_share mutation so best-fit selection needs no full scan.
  std::set<ShareEntry> share_index_;
  /// Each up node's entry in share_index_, so the erase half of an update
  /// skips the O(log n) key search (set iterators stay valid across other
  /// inserts/erases). Valid iff the node is up.
  std::vector<std::set<ShareEntry>::iterator> share_iters_;
  /// Nodes that have ever hosted a task; the only ones that can carry a
  /// non-zero delivered term in busy_proc_seconds().
  std::set<NodeId> ever_tasked_;
  /// Membership mirror of ever_tasked_, so the hot start path pays the
  /// set insert only on a node's first-ever task.
  std::vector<char> ever_tasked_flag_;
  /// Reused by handle_node_event for the ids of finished jobs.
  std::vector<workload::JobId> finished_scratch_;
};

}  // namespace utilrisk::cluster
