// Differential oracle for the backfilling family (FCFS-BF, SJF-BF,
// EDF-BF): QueueBackfillPolicy against a reference kept in its older,
// plainer form — a deque wait queue scanned in full by both passes at
// every dispatch, the head's spare processors walked twice per shadow,
// and the shadow answered by re-sorting the reference's own record of the
// running jobs instead of the executor's finish index. Both must make the
// same decision for every job at the same instant: the same run digest
// and, per job, the same decision time, start time, finish time and
// outcome. The cases reach what the golden digests (80-job runs) do not:
// no admission control, termination at the deadline, node failures with
// retries, queues above a thousand jobs and priority keys that tie.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/space_shared.hpp"
#include "economy/pricing.hpp"
#include "policy/queue_policy.hpp"
#include "service/computing_service.hpp"
#include "workload/synthetic_sdsc.hpp"
#include "workload/workload.hpp"

namespace utilrisk::policy {
namespace {

/// The reference backfilling policy. Same priority key, admission
/// predicate, backfill predicate and order of every erase, start and
/// notify as QueueBackfillPolicy; none of its data structures.
class ReferenceBackfillPolicy : public Policy {
 public:
  ReferenceBackfillPolicy(const PolicyContext& context, PolicyHost& host,
                          QueueOrder order, AdmissionControl admission,
                          std::size_t* peak_queue)
      : Policy(context, host),
        order_(order),
        admission_(admission),
        cluster_(std::make_unique<cluster::SpaceSharedCluster>(
            *context.simulator, context.machine)),
        peak_queue_(peak_queue) {}

  void on_submit(const workload::Job& job) override {
    if (job.procs > cluster_->total_procs()) {
      host().notify_rejected(job);
      return;
    }
    if (model() == economy::EconomicModel::CommodityMarket &&
        economy::flat_quote_at(job, job.submit_time, pricing()) >
            job.budget) {
      host().notify_rejected(job);
      return;
    }
    queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), job,
                                   [this](const workload::Job& a,
                                          const workload::Job& b) {
                                     return higher_priority(a, b);
                                   }),
                  job);
    *peak_queue_ = std::max(*peak_queue_, queue_.size());
    dispatch();
  }

  [[nodiscard]] std::string_view name() const override {
    return to_string(order_);
  }

  [[nodiscard]] double delivered_proc_seconds() const override {
    return cluster_->busy_proc_seconds(simulator().now());
  }

  bool terminate(workload::JobId id) override {
    if (cluster_->cancel(id)) {
      running_.erase(id);
      dispatch();
      return true;
    }
    auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [id](const workload::Job& job) { return job.id == id; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  void on_node_down(cluster::NodeId id) override {
    auto kill = cluster_->node_down(id);
    if (kill) {
      running_.erase(kill->job.id);
      host().notify_failed(kill->job, kill->completed_work);
    }
    dispatch();
  }

  void on_node_up(cluster::NodeId id) override {
    cluster_->node_up(id);
    dispatch();
  }

 private:
  struct Running {
    std::uint32_t procs = 0;
    sim::SimTime estimated_finish = 0.0;
  };

  [[nodiscard]] bool higher_priority(const workload::Job& a,
                                     const workload::Job& b) const {
    switch (order_) {
      case QueueOrder::ArrivalTime:
        if (a.submit_time != b.submit_time) {
          return a.submit_time < b.submit_time;
        }
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
    return a.id < b.id;
  }

  [[nodiscard]] bool still_viable(const workload::Job& job) const {
    if (admission_ == AdmissionControl::None) return true;
    const sim::SimTime now = simulator().now();
    return now + job.estimated_runtime <=
           job.absolute_deadline() + sim::kTimeEpsilon;
  }

  /// Running jobs by (estimated finish, id), sorted afresh.
  [[nodiscard]] std::vector<std::pair<sim::SimTime, workload::JobId>>
  finish_order() const {
    std::vector<std::pair<sim::SimTime, workload::JobId>> order;
    order.reserve(running_.size());
    for (const auto& [id, run] : running_) {
      order.emplace_back(run.estimated_finish, id);
    }
    std::sort(order.begin(), order.end());
    return order;
  }

  /// The EASY shadow time, by full rescan.
  [[nodiscard]] sim::SimTime estimated_availability(
      std::uint32_t procs) const {
    const sim::SimTime now = simulator().now();
    if (procs > cluster_->up_procs()) return sim::kTimeNever;
    std::uint32_t available = cluster_->free_procs();
    if (procs <= available) return now;
    for (const auto& [finish, id] : finish_order()) {
      available += running_.at(id).procs;
      if (available >= procs) return std::max(finish, now);
    }
    return sim::kTimeNever;
  }

  /// Processors estimated free at `when`, by full rescan.
  [[nodiscard]] std::uint32_t estimated_free_at(sim::SimTime when) const {
    std::uint32_t available = cluster_->free_procs();
    for (const auto& [id, run] : running_) {
      if (run.estimated_finish <= when + sim::kTimeEpsilon) {
        available += run.procs;
      }
    }
    return std::min(available, cluster_->total_procs());
  }

  void start_job(const workload::Job& job) {
    const economy::Money quote =
        model() == economy::EconomicModel::CommodityMarket
            ? economy::flat_quote_at(job, job.submit_time, pricing())
            : job.budget;
    host().notify_accepted(job, quote);
    host().notify_started(job);
    running_[job.id] = Running{
        job.procs, simulator().now() + job.estimated_runtime};
    cluster_->start(job,
                    [this, job](workload::JobId id, sim::SimTime finish) {
                      running_.erase(id);
                      host().notify_finished(job, finish);
                      dispatch();
                    });
  }

  void dispatch() {
    if (dispatching_) {
      dispatch_again_ = true;
      return;
    }
    dispatching_ = true;
    do {
      dispatch_again_ = false;
      for (std::size_t i = 0; i < queue_.size();) {
        if (still_viable(queue_[i])) {
          ++i;
        } else {
          const workload::Job doomed = queue_[i];
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
          host().notify_rejected(doomed);
        }
      }
      while (!queue_.empty() && cluster_->can_start(queue_.front().procs)) {
        const workload::Job head = queue_.front();
        queue_.pop_front();
        start_job(head);
      }
      if (queue_.empty()) continue;

      const workload::Job head = queue_.front();
      sim::SimTime shadow = estimated_availability(head.procs);
      std::uint32_t extra = estimated_free_at(shadow) >= head.procs
                                ? estimated_free_at(shadow) - head.procs
                                : 0;
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
          shadow = estimated_availability(head.procs);
          extra = estimated_free_at(shadow) >= head.procs
                      ? estimated_free_at(shadow) - head.procs
                      : 0;
        } else {
          ++i;
        }
      }
    } while (dispatch_again_);
    dispatching_ = false;
  }

  QueueOrder order_;
  AdmissionControl admission_;
  std::unique_ptr<cluster::SpaceSharedCluster> cluster_;
  std::deque<workload::Job> queue_;
  std::map<workload::JobId, Running> running_;
  std::size_t* peak_queue_;
  bool dispatching_ = false;
  bool dispatch_again_ = false;
};

constexpr QueueOrder kOrders[] = {QueueOrder::ArrivalTime,
                                  QueueOrder::ShortestEstimate,
                                  QueueOrder::EarliestDeadline};

/// A seeded SDSC trace of `count` jobs on the default 128-node machine.
[[nodiscard]] std::vector<workload::Job> sdsc_jobs(std::uint32_t count,
                                                   std::uint64_t seed,
                                                   double arrival_delay) {
  workload::SyntheticSdscConfig config;
  config.job_count = count;
  config.seed = seed;
  workload::QosConfig qos;
  qos.seed = seed * 31 + 7;
  return workload::WorkloadBuilder(config).build(qos, arrival_delay, 100.0);
}

/// Runs `jobs` under QueueBackfillPolicy and under the reference with the
/// same order, admission and context, expects identical runs, and returns
/// the reference's longest wait queue.
std::size_t expect_same_run(const std::vector<workload::Job>& jobs,
                            const PolicyContext& context, QueueOrder order,
                            AdmissionControl admission) {
  SCOPED_TRACE(std::string(to_string(order)) + ", admission " +
               to_string(admission));
  const auto indexed = service::simulate(
      jobs,
      [order, admission](const PolicyContext& ctx, PolicyHost& host) {
        return std::make_unique<QueueBackfillPolicy>(ctx, host, order,
                                                     admission);
      },
      context);
  std::size_t peak_queue = 0;
  const auto reference = service::simulate(
      jobs,
      [order, admission, &peak_queue](const PolicyContext& ctx,
                                      PolicyHost& host) {
        return std::make_unique<ReferenceBackfillPolicy>(
            ctx, host, order, admission, &peak_queue);
      },
      context);
  EXPECT_EQ(indexed.digest, reference.digest);
  EXPECT_EQ(indexed.events_dispatched, reference.events_dispatched);
  EXPECT_EQ(indexed.ledger_entries.size(), reference.ledger_entries.size());
  EXPECT_EQ(indexed.records.size(), reference.records.size());
  const std::size_t n =
      std::min(indexed.records.size(), reference.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    const service::SlaRecord& a = indexed.records[i];
    const service::SlaRecord& b = reference.records[i];
    EXPECT_EQ(a.job.id, b.job.id) << "record " << i;
    EXPECT_EQ(a.outcome, b.outcome) << "job " << a.job.id;
    EXPECT_EQ(a.decision_time, b.decision_time) << "job " << a.job.id;
    EXPECT_EQ(a.start_time, b.start_time) << "job " << a.job.id;
    EXPECT_EQ(a.finish_time, b.finish_time) << "job " << a.job.id;
    EXPECT_EQ(a.outage_count, b.outage_count) << "job " << a.job.id;
    if (testing::Test::HasFailure()) break;  // the first divergence only
  }
  return peak_queue;
}

[[nodiscard]] PolicyContext context_for(economy::EconomicModel model) {
  PolicyContext context;
  context.model = model;
  return context;
}

TEST(BackfillOracleTest, GenerousAdmissionMatchesOnSeededTraces) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const auto jobs = sdsc_jobs(1500, seed, 0.25);
    for (const auto model : {economy::EconomicModel::CommodityMarket,
                             economy::EconomicModel::BidBased}) {
      for (const QueueOrder order : kOrders) {
        expect_same_run(jobs, context_for(model), order,
                        AdmissionControl::Generous);
      }
    }
  }
}

TEST(BackfillOracleTest, NoAdmissionControlMatchesAndQueuesPassAThousand) {
  // Without admission control nothing leaves the queue but by starting,
  // so a heavy load piles it up past a thousand jobs.
  const auto jobs = sdsc_jobs(3000, 11, 0.05);
  for (const QueueOrder order : kOrders) {
    const std::size_t peak =
        expect_same_run(jobs, context_for(economy::EconomicModel::BidBased),
                        order, AdmissionControl::None);
    EXPECT_GT(peak, 1000u) << to_string(order);
  }
}

TEST(BackfillOracleTest, TerminationAtTheDeadlineMatches) {
  const auto jobs = sdsc_jobs(1500, 3, 0.25);
  PolicyContext context = context_for(economy::EconomicModel::BidBased);
  context.terminate_at_deadline = true;
  for (const QueueOrder order : kOrders) {
    for (const AdmissionControl admission :
         {AdmissionControl::Generous, AdmissionControl::None}) {
      expect_same_run(jobs, context, order, admission);
    }
  }
}

TEST(BackfillOracleTest, NodeFailuresWithRetriesMatch) {
  // A node fails every ~4 minutes somewhere on the machine: kills, retries
  // with checkpoints, shrunken capacity and, without admission control,
  // queued jobs abandoned as outage casualties (terminate on the queue).
  const auto jobs = sdsc_jobs(1500, 5, 0.25);
  PolicyContext context = context_for(economy::EconomicModel::BidBased);
  context.failure.mtbf_seconds = 30000.0;
  context.failure.mttr_seconds = 1800.0;
  context.recovery.retry_limit = 2;
  context.recovery.backoff_seconds = 120.0;
  context.recovery.checkpoint_interval = 600.0;
  for (const QueueOrder order : kOrders) {
    for (const AdmissionControl admission :
         {AdmissionControl::Generous, AdmissionControl::None}) {
      expect_same_run(jobs, context, order, admission);
    }
  }
  const auto report = service::simulate(
      jobs, service::factory_for(PolicyKind::FcfsBf), context);
  std::uint32_t outages = 0;
  for (const service::SlaRecord& record : report.records) {
    outages += record.outage_count;
  }
  EXPECT_GT(outages, 0u) << "the failure process must kill running jobs";
}

TEST(BackfillOracleTest, TiedPriorityKeysAreBrokenByIdAlike) {
  // Submission instants, estimates and absolute deadlines snapped to
  // coarse grids: most jobs share their priority key with others, so the
  // id tie-break orders the queue under every order.
  std::vector<workload::Job> jobs = sdsc_jobs(1500, 42, 0.25);
  for (workload::Job& job : jobs) {
    job.submit_time = std::floor(job.submit_time / 1800.0) * 1800.0;
    job.estimated_runtime = std::ceil(job.estimated_runtime / 3600.0) * 3600.0;
    const double deadline =
        std::ceil((job.submit_time + job.deadline_duration) / 7200.0) *
        7200.0;
    job.deadline_duration = deadline - job.submit_time;
  }
  std::map<double, int> submit_keys;
  std::map<double, int> estimate_keys;
  std::map<double, int> deadline_keys;
  for (const workload::Job& job : jobs) {
    ++submit_keys[job.submit_time];
    ++estimate_keys[job.estimated_runtime];
    ++deadline_keys[job.absolute_deadline()];
  }
  EXPECT_LT(submit_keys.size() * 3, jobs.size());
  EXPECT_LT(estimate_keys.size() * 3, jobs.size());
  EXPECT_LT(deadline_keys.size() * 3, jobs.size());
  for (const auto model : {economy::EconomicModel::CommodityMarket,
                           economy::EconomicModel::BidBased}) {
    for (const QueueOrder order : kOrders) {
      for (const AdmissionControl admission :
           {AdmissionControl::Generous, AdmissionControl::None}) {
        expect_same_run(jobs, context_for(model), order, admission);
      }
    }
  }
}

}  // namespace
}  // namespace utilrisk::policy
