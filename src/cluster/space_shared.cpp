#include "cluster/space_shared.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/logger.hpp"

namespace utilrisk::cluster {

SpaceSharedCluster::SpaceSharedCluster(sim::Simulator& simulator,
                                       MachineConfig machine)
    : Entity(simulator, "space-shared-cluster"),
      machine_(machine),
      free_nodes_(machine.node_count) {
  machine_.validate();
  free_procs_ = machine_.node_count;
  down_.assign(machine_.node_count, 0);
  occupant_.assign(machine_.node_count, kNoOccupant);
  for (NodeId id = 0; id < machine_.node_count; ++id) free_nodes_.insert(id);
}

void SpaceSharedCluster::start(const workload::Job& job,
                               CompletionCallback on_complete) {
  if (job.procs == 0) {
    throw std::logic_error("SpaceSharedCluster::start: job needs 0 procs");
  }
  if (job.procs > free_procs_) {
    throw std::logic_error(
        "SpaceSharedCluster::start: insufficient free processors");
  }
  if (running_.contains(job.id)) {
    throw std::logic_error("SpaceSharedCluster::start: job already running");
  }
  free_procs_ -= job.procs;
  Running entry;
  entry.job = job;
  entry.start_time = now();
  entry.estimated_finish = entry.start_time + job.estimated_runtime;
  entry.on_complete = std::move(on_complete);
  // Deterministic placement: lowest free node ids first.
  entry.nodes.reserve(job.procs);
  for (std::uint32_t i = 0; i < job.procs; ++i) {
    const NodeId node = free_nodes_.pop_min();
    occupant_[node] = job.id;
    entry.nodes.push_back(node);
  }
  const workload::JobId id = job.id;
  FinishEntry index_entry;
  index_entry.estimated_finish = entry.estimated_finish;
  index_entry.id = id;
  index_entry.procs = job.procs;
  index_entry.start_time = entry.start_time;
  index_entry.actual_finish = entry.start_time + job.actual_runtime;
  finish_index_.insert(std::upper_bound(finish_index_.begin(),
                                        finish_index_.end(), index_entry),
                       index_entry);
  auto [it, inserted] = running_.emplace(id, std::move(entry));
  UTILRISK_ELOG(sim::LogLevel::Debug, "start job " << id << " procs=" << job.procs
                            << " run=" << job.actual_runtime);
  it->second.completion_event =
      after(job.actual_runtime, [this, id] { complete(id); });
}

void SpaceSharedCluster::erase_finish_entry(const Running& entry,
                                            workload::JobId id) {
  FinishEntry key;
  key.estimated_finish = entry.estimated_finish;
  key.id = id;
  const auto it =
      std::lower_bound(finish_index_.begin(), finish_index_.end(), key);
  if (it != finish_index_.end() && !(key < *it)) finish_index_.erase(it);
}

void SpaceSharedCluster::release_nodes(const Running& entry) {
  for (NodeId node : entry.nodes) {
    occupant_[node] = kNoOccupant;
    if (down_[node] == 0) {
      free_nodes_.insert(node);
      ++free_procs_;
    }
  }
}

bool SpaceSharedCluster::cancel(workload::JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return false;
  it->second.completion_event.cancel();
  release_nodes(it->second);
  erase_finish_entry(it->second, id);
  delivered_proc_seconds_ +=
      (now() - it->second.start_time) *
      static_cast<double>(it->second.job.procs);
  UTILRISK_ELOG(sim::LogLevel::Debug, "cancel job " << id);
  running_.erase(it);
  return true;
}

std::optional<FailureKill> SpaceSharedCluster::node_down(NodeId id) {
  if (id >= machine_.node_count) {
    throw std::out_of_range("SpaceSharedCluster::node_down: bad node");
  }
  if (down_[id] != 0) {
    throw std::logic_error("SpaceSharedCluster::node_down: node already down");
  }
  down_[id] = 1;
  ++down_count_;
  if (occupant_[id] == kNoOccupant) {
    free_nodes_.erase(id);
    --free_procs_;
    return std::nullopt;
  }
  // The node was running a task: the whole (rigid, non-preemptible) job
  // dies with it. Its other nodes return to the free pool.
  auto it = running_.find(occupant_[id]);
  if (it == running_.end()) {
    throw std::logic_error("SpaceSharedCluster::node_down: orphan occupant");
  }
  it->second.completion_event.cancel();
  FailureKill kill;
  kill.job = it->second.job;
  kill.completed_work = now() - it->second.start_time;
  release_nodes(it->second);
  erase_finish_entry(it->second, it->first);
  delivered_proc_seconds_ +=
      kill.completed_work * static_cast<double>(kill.job.procs);
  UTILRISK_ELOG(sim::LogLevel::Debug, "node " << id << " down kills job " << kill.job.id);
  running_.erase(it);
  return kill;
}

void SpaceSharedCluster::node_up(NodeId id) {
  if (id >= machine_.node_count) {
    throw std::out_of_range("SpaceSharedCluster::node_up: bad node");
  }
  if (down_[id] == 0) {
    throw std::logic_error("SpaceSharedCluster::node_up: node is not down");
  }
  down_[id] = 0;
  --down_count_;
  free_nodes_.insert(id);
  ++free_procs_;
}

bool SpaceSharedCluster::is_up(NodeId id) const {
  if (id >= machine_.node_count) {
    throw std::out_of_range("SpaceSharedCluster::is_up: bad node");
  }
  return down_[id] == 0;
}

void SpaceSharedCluster::complete(workload::JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) {
    throw std::logic_error("SpaceSharedCluster::complete: unknown job");
  }
  Running entry = std::move(it->second);
  running_.erase(it);
  release_nodes(entry);
  erase_finish_entry(entry, id);
  delivered_proc_seconds_ +=
      entry.job.actual_runtime * static_cast<double>(entry.job.procs);
  UTILRISK_ELOG(sim::LogLevel::Debug, "finish job " << id);
  if (entry.on_complete) entry.on_complete(id, now());
}

std::vector<RunningJobInfo> SpaceSharedCluster::running_jobs() const {
  std::vector<RunningJobInfo> out;
  out.reserve(finish_index_.size());
  for (const auto& entry : finish_index_) {  // already (finish, id) ordered
    RunningJobInfo info;
    info.id = entry.id;
    info.procs = entry.procs;
    info.start_time = entry.start_time;
    info.estimated_finish = entry.estimated_finish;
    info.actual_finish = entry.actual_finish;
    out.push_back(info);
  }
  return out;
}

sim::SimTime SpaceSharedCluster::estimated_availability(
    std::uint32_t procs) const {
  if (procs > up_procs()) return sim::kTimeNever;
  if (procs <= free_procs_) return now();
  std::uint32_t available = free_procs_;
  for (const auto& entry : finish_index_) {  // sorted by estimated finish
    available += entry.procs;
    if (available >= procs) {
      // Overrun jobs have estimated_finish < now; they "should" already
      // have ended, so the scheduler's best guess is "available now".
      return std::max(entry.estimated_finish, now());
    }
  }
  return sim::kTimeNever;  // unreachable: all jobs finish eventually
}

std::uint32_t SpaceSharedCluster::estimated_procs_free_by(
    sim::SimTime when) const {
  std::uint32_t available = free_procs_;
  for (const auto& entry : finish_index_) {
    // (finish, id) order makes the predicate a prefix: stop at the first
    // job estimated to outlast `when`.
    if (entry.estimated_finish > when + sim::kTimeEpsilon) break;
    available += entry.procs;
  }
  return std::min(available, total_procs());
}

double SpaceSharedCluster::busy_proc_seconds(sim::SimTime at) const {
  double total = delivered_proc_seconds_;
  for (const auto& [id, entry] : running_) {
    total += (at - entry.start_time) * static_cast<double>(entry.job.procs);
  }
  return total;
}

}  // namespace utilrisk::cluster
