#include "policy/queue_policy.hpp"

#include <algorithm>

#include "sim/logger.hpp"

namespace utilrisk::policy {

const char* to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::ArrivalTime: return "FCFS-BF";
    case QueueOrder::ShortestEstimate: return "SJF-BF";
    case QueueOrder::EarliestDeadline: return "EDF-BF";
  }
  return "?";
}

const char* to_string(AdmissionControl admission) {
  return admission == AdmissionControl::Generous ? "generous" : "none";
}

QueueBackfillPolicy::QueueBackfillPolicy(const PolicyContext& context,
                                         PolicyHost& host, QueueOrder order,
                                         AdmissionControl admission)
    : Policy(context, host),
      order_(order),
      admission_(admission),
      cluster_(std::make_unique<cluster::SpaceSharedCluster>(
          *context.simulator, context.machine)) {}

std::string_view QueueBackfillPolicy::name() const {
  return to_string(order_);
}

double QueueBackfillPolicy::delivered_proc_seconds() const {
  return cluster_->busy_proc_seconds(simulator().now());
}

bool QueueBackfillPolicy::terminate(workload::JobId id) {
  if (cluster_->cancel(id)) {
    dispatch();  // freed processors can start queued jobs
    return true;
  }
  // Accepted-but-queued jobs can also be terminated (outage abandon path).
  auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [id](const workload::Job& job) { return job.id == id; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  return true;
}

void QueueBackfillPolicy::on_node_down(cluster::NodeId id) {
  auto kill = cluster_->node_down(id);
  if (kill) host().notify_failed(kill->job, kill->completed_work);
  // Shrunken capacity can invalidate queued SLAs; re-examine the queue.
  dispatch();
}

void QueueBackfillPolicy::on_node_up(cluster::NodeId id) {
  cluster_->node_up(id);
  dispatch();  // repaired capacity can start queued jobs
}

bool QueueBackfillPolicy::higher_priority(const workload::Job& a,
                                          const workload::Job& b) const {
  switch (order_) {
    case QueueOrder::ArrivalTime:
      if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
      break;
    case QueueOrder::ShortestEstimate:
      if (a.estimated_runtime != b.estimated_runtime) {
        return a.estimated_runtime < b.estimated_runtime;
      }
      break;
    case QueueOrder::EarliestDeadline:
      if (a.absolute_deadline() != b.absolute_deadline()) {
        return a.absolute_deadline() < b.absolute_deadline();
      }
      break;
  }
  return a.id < b.id;  // deterministic tiebreak
}

bool QueueBackfillPolicy::still_viable(const workload::Job& job,
                                       sim::SimTime now) {
  // (ii) deadline already lapsed in the queue, or (i) starting now is
  // predicted (by the estimate) to exceed the deadline.
  return now + job.estimated_runtime <=
         job.absolute_deadline() + sim::kTimeEpsilon;
}

std::uint32_t QueueBackfillPolicy::extra_at(sim::SimTime shadow,
                                            std::uint32_t reserved) const {
  // One prefix walk of the cluster's finish index; integer sum, so the
  // result is exactly the old full-rescan answer.
  const std::uint32_t free = cluster_->estimated_procs_free_by(shadow);
  return free >= reserved ? free - reserved : 0;
}

void QueueBackfillPolicy::on_submit(const workload::Job& job) {
  if (job.procs > cluster_->total_procs()) {
    host().notify_rejected(job);
    return;
  }
  // Commodity-market rule: a job whose expected cost exceeds its budget is
  // rejected (§5.1). The tariff is fixed at submission (SLA negotiation
  // time), so the check at submission equals the charge at start.
  if (model() == economy::EconomicModel::CommodityMarket &&
      economy::flat_quote_at(job, job.submit_time, pricing()) > job.budget) {
    host().notify_rejected(job);
    return;
  }
  queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), job,
                                 [this](const workload::Job& a,
                                        const workload::Job& b) {
                                   return higher_priority(a, b);
                                 }),
                job);
  dispatch();
}

void QueueBackfillPolicy::start_job(const workload::Job& job) {
  const economy::Money quote =
      model() == economy::EconomicModel::CommodityMarket
          ? economy::flat_quote_at(job, job.submit_time, pricing())
          : job.budget;
  host().notify_accepted(job, quote);
  host().notify_started(job);
  cluster_->start(job,
                  [this, job](workload::JobId, sim::SimTime finish) {
                    host().notify_finished(job, finish);
                    dispatch();
                  });
}

void QueueBackfillPolicy::dispatch() {
  if (dispatching_) {
    // Completion callbacks can re-enter while we are mid-scan; fold the
    // request into the current pass.
    dispatch_again_ = true;
    return;
  }
  dispatching_ = true;
  do {
    dispatch_again_ = false;

    // queue_ is maintained in priority order (see the member doc), so no
    // per-dispatch sort is needed.
    //
    // Reject queued jobs that can no longer fulfil their SLA (generous
    // admission control, applied at the latest possible moment). Without
    // admission control every job stays viable, so there is nothing to
    // scan. In-place erase: rejections happen in the same (priority) order
    // the old filter-copy produced, without copying the whole queue per
    // dispatch.
    if (admission_ == AdmissionControl::Generous) {
      const sim::SimTime now = simulator().now();
      for (std::size_t i = 0; i < queue_.size();) {
        if (still_viable(queue_[i], now)) {
          ++i;
        } else {
          const workload::Job doomed = queue_[i];
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
          host().notify_rejected(doomed);
        }
      }
    }

    // Start the head while it fits; the started prefix leaves the queue
    // in one erase.
    std::size_t started = 0;
    while (started < queue_.size() &&
           cluster_->can_start(queue_[started].procs)) {
      start_job(queue_[started]);
      ++started;
    }
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(started));
    if (queue_.empty()) continue;

    // EASY backfilling against the head's shadow reservation.
    const workload::Job head = queue_.front();
    sim::SimTime shadow = cluster_->estimated_availability(head.procs);
    std::uint32_t extra = extra_at(shadow, head.procs);
    const sim::SimTime now = simulator().now();
    for (std::size_t i = 1; i < queue_.size();) {
      const workload::Job& candidate = queue_[i];
      const bool fits_now = cluster_->can_start(candidate.procs);
      const bool before_shadow =
          now + candidate.estimated_runtime <= shadow + sim::kTimeEpsilon;
      const bool within_extra = candidate.procs <= extra;
      if (fits_now && (before_shadow || within_extra)) {
        start_job(candidate);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        // Restate the reservation against the new cluster state.
        shadow = cluster_->estimated_availability(head.procs);
        extra = extra_at(shadow, head.procs);
      } else {
        ++i;
      }
    }
  } while (dispatch_again_);
  dispatching_ = false;
}

}  // namespace utilrisk::policy
