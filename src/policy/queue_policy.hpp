// Queue-based space-shared policies with EASY backfilling: FCFS-BF,
// SJF-BF, EDF-BF (paper §5.2).
//
// Jobs queue until processors free up; the queue is ordered by the
// policy's priority key. EASY backfilling [Lifka'95, Mu'alem &
// Feitelson'01] lets lower-priority jobs jump ahead when — by their
// runtime *estimates* — they cannot delay the head job's shadow
// reservation.
//
// "Generous admission control" (the paper's §5.2 refinement): a queued job
// is rejected only once it provably cannot fulfil its SLA — its deadline
// lapsed in the queue, or starting it right now would already overshoot
// the deadline by its estimate. Jobs are therefore examined at the latest
// possible time, trading wait time for acceptance flexibility.
#pragma once

#include <memory>
#include <vector>

#include "cluster/space_shared.hpp"
#include "policy/policy.hpp"

namespace utilrisk::policy {

/// Queue priority key.
enum class QueueOrder {
  ArrivalTime,       ///< FCFS-BF
  ShortestEstimate,  ///< SJF-BF
  EarliestDeadline,  ///< EDF-BF
};

[[nodiscard]] const char* to_string(QueueOrder order);

/// Admission-control mode. The paper's §5.2 observes that the backfilling
/// policies "without job admission control perform much worse, especially
/// when deadlines of jobs are short" — `None` exists to reproduce that
/// ablation (bench_ablation_admission): every job is eventually run, no
/// matter how hopeless its deadline has become.
enum class AdmissionControl {
  Generous,  ///< reject a queued job once it provably cannot meet its SLA
  None,      ///< run everything (deadline violations pile up)
};

[[nodiscard]] const char* to_string(AdmissionControl admission);

/// FCFS-BF / SJF-BF / EDF-BF, selected by `order`.
class QueueBackfillPolicy : public Policy {
 public:
  QueueBackfillPolicy(const PolicyContext& context, PolicyHost& host,
                      QueueOrder order,
                      AdmissionControl admission = AdmissionControl::Generous);

  void on_submit(const workload::Job& job) override;
  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] double delivered_proc_seconds() const override;
  bool terminate(workload::JobId id) override;
  void on_node_down(cluster::NodeId id) override;
  void on_node_up(cluster::NodeId id) override;

  [[nodiscard]] QueueOrder order() const { return order_; }
  [[nodiscard]] AdmissionControl admission() const { return admission_; }
  [[nodiscard]] const cluster::SpaceSharedCluster& executor() const {
    return *cluster_;
  }

 private:
  /// True if `a` precedes `b` under the configured priority.
  [[nodiscard]] bool higher_priority(const workload::Job& a,
                                     const workload::Job& b) const;

  /// Generous admission: can the job still fulfil its SLA if started at
  /// `now`?
  [[nodiscard]] static bool still_viable(const workload::Job& job,
                                         sim::SimTime now);

  /// Processors estimated free at `shadow` beyond the `reserved` ones the
  /// head job holds there: the EASY "extra" a backfill may use for as
  /// long as it likes.
  [[nodiscard]] std::uint32_t extra_at(sim::SimTime shadow,
                                       std::uint32_t reserved) const;

  void start_job(const workload::Job& job);
  void dispatch();

  QueueOrder order_;
  AdmissionControl admission_;
  std::unique_ptr<cluster::SpaceSharedCluster> cluster_;
  /// Wait queue, kept sorted by higher_priority at all times (the key is
  /// immutable per job and the order is total — id tiebreak — so sorted
  /// insertion produces the exact permutation the old per-dispatch
  /// std::sort did). A contiguous array: every dispatch scans it front to
  /// back, twice, and a deque's chunked indexing cost more there than the
  /// vector's tail moves on erase (DESIGN.md §4).
  std::vector<workload::Job> queue_;
  bool dispatching_ = false;
  bool dispatch_again_ = false;
};

}  // namespace utilrisk::policy
