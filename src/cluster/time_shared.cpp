#include "cluster/time_shared.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/logger.hpp"

namespace utilrisk::cluster {

namespace {

/// Work-completion slack: a task is done when its remaining work drops
/// below this many processor-seconds (absorbs rate-integration rounding).
constexpr double kWorkEpsilon = 1e-6;

/// From 2^34 s (about 545 years) on, half an ulp of the clock exceeds
/// kWorkEpsilon: a task can then hold more remaining work than the slack
/// forgives, yet too little for its completion time to differ from now.
/// Below this instant the slack catches every such task.
constexpr double kCoarseClock = 17179869184.0;

}  // namespace

TimeSharedCluster::TimeSharedCluster(sim::Simulator& simulator,
                                     MachineConfig machine)
    : Entity(simulator, "time-shared-cluster"),
      machine_(machine),
      share_index_(machine.node_count) {
  machine_.validate();
  nodes_.resize(machine_.node_count);
  down_.assign(machine_.node_count, 0);
  ever_tasked_flag_.assign(machine_.node_count, 0);
}

void TimeSharedCluster::share_index_update(NodeId id) {
  if (down_[id] != 0) return;
  share_index_.update(id, nodes_[id].total_share);
}

double TimeSharedCluster::committed_share(NodeId node) const {
  if (node >= nodes_.size()) {
    throw std::out_of_range("TimeSharedCluster::committed_share: bad node");
  }
  return nodes_[node].total_share;
}

void TimeSharedCluster::start(const workload::Job& job,
                              const std::vector<NodeId>& nodes, double share,
                              CompletionCallback on_complete) {
  if (nodes.size() != job.procs) {
    throw std::logic_error(
        "TimeSharedCluster::start: node list size != job.procs");
  }
  if (share <= 0.0 || share > 1.0 + kShareEpsilon) {
    throw std::logic_error("TimeSharedCluster::start: share outside (0,1]");
  }
  if (jobs_.contains(job.id)) {
    throw std::logic_error("TimeSharedCluster::start: job already running");
  }
  // Every check runs before any node is touched (strong exception
  // guarantee). Duplicate detection rides on the sorted copy job teardown
  // needs anyway.
  std::vector<NodeId> sorted_nodes = nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  if (std::adjacent_find(sorted_nodes.begin(), sorted_nodes.end()) !=
      sorted_nodes.end()) {
    throw std::logic_error("TimeSharedCluster::start: duplicate node");
  }
  for (NodeId id : nodes) {
    if (id >= nodes_.size()) {
      throw std::logic_error("TimeSharedCluster::start: bad node id");
    }
    if (down_[id] != 0) {
      throw std::logic_error("TimeSharedCluster::start: node is down");
    }
    if (nodes_[id].total_share + share > 1.0 + kShareEpsilon) {
      throw std::logic_error(
          "TimeSharedCluster::start: share capacity exceeded on node");
    }
  }

  JobState job_state;
  job_state.job = job;
  job_state.remaining_tasks = job.procs;
  job_state.on_complete = std::move(on_complete);
  job_state.nodes = std::move(sorted_nodes);
  jobs_.emplace(job.id, std::move(job_state));

  UTILRISK_ELOG(sim::LogLevel::Debug, "start job " << job.id << " share=" << share << " on "
                            << nodes.size() << " nodes");

  for (NodeId id : nodes) {
    NodeState& node = nodes_[id];
    integrate(node);
    Task task;
    task.job = job.id;
    task.share = share;
    task.estimated_work = job.estimated_runtime;
    task.actual_work = job.actual_runtime;
    task.deadline = job.absolute_deadline();
    node.tasks.push_back(task);
    node.total_share += share;
    share_index_update(id);
    if (ever_tasked_flag_[id] == 0) {
      ever_tasked_flag_[id] = 1;
      if (ever_tasked_sorted_ == ever_tasked_.size() &&
          (ever_tasked_.empty() || ever_tasked_.back() < id)) {
        ++ever_tasked_sorted_;
      }
      ever_tasked_.push_back(id);
    }
    reschedule(node, id);
  }
}

void TimeSharedCluster::integrate(NodeState& node) {
  const sim::SimTime t = now();
  const double elapsed = t - node.last_integrated;
  node.last_integrated = t;
  if (elapsed <= 0.0 || node.tasks.empty() || node.total_share <= 0.0) {
    return;
  }
  for (Task& task : node.tasks) {
    const double rate = task.share / node.total_share;
    task.done += rate * elapsed;
    node.delivered += rate * elapsed;
  }
}

void TimeSharedCluster::reschedule(NodeState& node, NodeId id) {
  if (node.tasks.empty()) {
    node.next_completion.cancel();
    return;
  }
  double min_dt = std::numeric_limits<double>::infinity();
  for (const Task& task : node.tasks) {
    const double rate = task.share / node.total_share;
    const double remaining = std::max(0.0, task.actual_work - task.done);
    min_dt = std::min(min_dt, remaining / rate);
  }
  const double delay = std::max(0.0, min_dt);
  // A move takes the next sequence number, as cancel + push would, so
  // the dispatch order is the same either way. The node's own event, while
  // it is being dispatched, re-arms in place the same way; a new event is
  // pushed only when the node was idle.
  if (!simulator().reschedule_in(node.next_completion, delay)) {
    node.next_completion =
        after(delay, [this, id] { handle_node_event(id); });
  }
}

void TimeSharedCluster::handle_node_event(NodeId id) {
  NodeState& node = nodes_[id];
  integrate(node);
  // Complete every task whose work target is met (ties complete together).
  // On a coarse clock a task whose remaining time cannot advance the
  // clock completes too; otherwise it would re-arm at this same instant
  // forever. The id buffer is taken, not borrowed: completion callbacks
  // may re-enter the executor.
  const sim::SimTime t = now();
  const bool coarse_clock = t >= kCoarseClock;
  const double total_share = node.total_share;
  std::vector<workload::JobId> finished = std::move(finished_scratch_);
  finished.clear();
  for (auto it = node.tasks.begin(); it != node.tasks.end();) {
    if (it->done + kWorkEpsilon >= it->actual_work ||
        (coarse_clock &&
         t + (it->actual_work - it->done) / (it->share / total_share) == t)) {
      node.total_share -= it->share;
      finished.push_back(it->job);
      it = node.tasks.erase(it);
    } else {
      ++it;
    }
  }
  if (node.total_share < kShareEpsilon && node.tasks.empty()) {
    node.total_share = 0.0;  // clear accumulated float dust
  }
  share_index_update(id);
  reschedule(node, id);
  // Notify after the node is consistent: completion callbacks may admit
  // new jobs onto this node.
  for (workload::JobId job : finished) task_finished(job);
  finished_scratch_ = std::move(finished);
}

void TimeSharedCluster::task_finished(workload::JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    throw std::logic_error("TimeSharedCluster: task for unknown job");
  }
  if (--it->second.remaining_tasks == 0) {
    CompletionCallback callback = std::move(it->second.on_complete);
    jobs_.erase(it);
    UTILRISK_ELOG(sim::LogLevel::Debug, "finish job " << job);
    if (callback) callback(job, now());
  }
}

double TimeSharedCluster::remove_job_tasks(
    workload::JobId job, const std::vector<NodeId>& hosting) {
  double done_min = std::numeric_limits<double>::infinity();
  // `hosting` is ascending, so events reschedule in the same node-id
  // order the old whole-cluster scan produced.
  for (NodeId node_id : hosting) {
    NodeState& node = nodes_[node_id];
    bool touched = false;
    // Settle progress at the old rates before removing the task.
    for (const Task& task : node.tasks) {
      if (task.job == job) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    integrate(node);
    for (auto task = node.tasks.begin(); task != node.tasks.end();) {
      if (task->job == job) {
        done_min = std::min(done_min, task->done);
        node.total_share -= task->share;
        task = node.tasks.erase(task);
      } else {
        ++task;
      }
    }
    if (node.total_share < kShareEpsilon && node.tasks.empty()) {
      node.total_share = 0.0;
    }
    share_index_update(node_id);
    reschedule(node, node_id);
  }
  return std::isfinite(done_min) ? done_min : 0.0;
}

bool TimeSharedCluster::cancel(workload::JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const std::vector<NodeId> hosting = std::move(it->second.nodes);
  jobs_.erase(it);
  remove_job_tasks(id, hosting);
  UTILRISK_ELOG(sim::LogLevel::Debug, "cancel job " << id);
  return true;
}

std::vector<FailureKill> TimeSharedCluster::node_down(NodeId id) {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TimeSharedCluster::node_down: bad node");
  }
  if (down_[id] != 0) {
    throw std::logic_error("TimeSharedCluster::node_down: node already down");
  }
  share_index_.erase(id);
  down_[id] = 1;
  ++down_count_;
  NodeState& node = nodes_[id];
  integrate(node);
  node.next_completion.cancel();
  // Every task resident on the node belongs to a distinct job (one task
  // per node per job); each such job dies entirely, in task order.
  std::vector<workload::JobId> victims;
  victims.reserve(node.tasks.size());
  for (const Task& task : node.tasks) victims.push_back(task.job);
  std::vector<FailureKill> kills;
  kills.reserve(victims.size());
  for (workload::JobId victim : victims) {
    auto it = jobs_.find(victim);
    if (it == jobs_.end()) continue;  // defensive
    FailureKill kill;
    kill.job = it->second.job;
    const std::vector<NodeId> hosting = std::move(it->second.nodes);
    jobs_.erase(it);
    kill.completed_work = remove_job_tasks(victim, hosting);
    UTILRISK_ELOG(sim::LogLevel::Debug, "node " << id << " down kills job " << victim);
    kills.push_back(kill);
  }
  return kills;
}

void TimeSharedCluster::node_up(NodeId id) {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TimeSharedCluster::node_up: bad node");
  }
  if (down_[id] == 0) {
    throw std::logic_error("TimeSharedCluster::node_up: node is not down");
  }
  down_[id] = 0;
  --down_count_;
  // The node hosted no tasks while down; restart its integration clock so
  // the idle window never counts as progress.
  nodes_[id].last_integrated = now();
  share_index_.insert(id, nodes_[id].total_share);
}

bool TimeSharedCluster::is_up(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TimeSharedCluster::is_up: bad node");
  }
  return down_[id] == 0;
}

void TimeSharedCluster::sort_ever_tasked() const {
  const auto sorted_end =
      ever_tasked_.begin() + static_cast<std::ptrdiff_t>(ever_tasked_sorted_);
  std::sort(sorted_end, ever_tasked_.end());
  std::inplace_merge(ever_tasked_.begin(), sorted_end, ever_tasked_.end());
  ever_tasked_sorted_ = ever_tasked_.size();
}

TimeSharedCluster::NodeBusy TimeSharedCluster::node_busy(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TimeSharedCluster::node_busy: bad node");
  }
  return busy_of(nodes_[id], now());
}

TimeSharedCluster::NodeBusy TimeSharedCluster::busy_of(const NodeState& node,
                                                       sim::SimTime t) {
  NodeBusy busy;
  busy.integrated = node.delivered;
  // Un-integrated progress since the node's last event. Work-conserving:
  // the aggregate rate is 1 while any task runs.
  if (!node.tasks.empty() && node.total_share > 0.0) {
    busy.since = std::max(0.0, t - node.last_integrated);
  }
  return busy;
}

double TimeSharedCluster::busy_proc_seconds() const {
  if (ever_tasked_sorted_ != ever_tasked_.size()) sort_ever_tasked();
  double total = 0.0;
  const sim::SimTime t = now();
  // Only nodes that ever hosted a task can contribute: the rest add an
  // exact 0.0, so skipping them leaves the sum bit-identical. Ascending
  // id order matches the old whole-cluster walk.
  for (NodeId id : ever_tasked_) {
    const NodeBusy busy = busy_of(nodes_[id], t);
    total += busy.integrated;
    if (busy.since > 0.0) total += busy.since;
  }
  return total;
}

}  // namespace utilrisk::cluster
