// LibraReserve — an extension policy built on the advance-reservation
// substrate (cluster/reservation.hpp): deferred admission for the Libra
// family.
//
// Libra rejects a job outright when no node has spare share *right now*,
// even if capacity frees up well before the job's deadline. LibraReserve
// instead searches for the earliest start time t* <= deadline - estimate
// at which `procs` nodes can guarantee the (now larger) share
//   s(t*) = estimate / (absolute deadline - t*)
// through the job's remaining window, books that reservation, and starts
// the job at t*. The price is a non-zero wait (accepted-but-deferred jobs
// wait for their slot); the reward is a higher acceptance rate at equal
// deadline guarantees — the exact wait/SLA trade the paper's objectives
// are designed to expose.
//
// Reservations are maintained optimistically: a finished job releases the
// tail of its booking; a job that overruns its estimate keeps its
// processor share beyond what the book predicted, so deferred starts
// re-validate against the live cluster and fall back to a degraded share
// (risking a violation, like any non-preemptive system under
// mis-estimation) rather than deadlocking.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/reservation.hpp"
#include "cluster/time_shared.hpp"
#include "policy/policy.hpp"

namespace utilrisk::policy {

class LibraReservePolicy : public Policy {
 public:
  LibraReservePolicy(const PolicyContext& context, PolicyHost& host);

  void on_submit(const workload::Job& job) override;
  [[nodiscard]] std::string_view name() const override {
    return "LibraReserve";
  }
  [[nodiscard]] double delivered_proc_seconds() const override {
    return cluster_->busy_proc_seconds();
  }
  bool terminate(workload::JobId id) override;
  void on_node_down(cluster::NodeId id) override;
  void on_node_up(cluster::NodeId id) override;

  [[nodiscard]] const cluster::TimeSharedCluster& executor() const {
    return *cluster_;
  }
  [[nodiscard]] const cluster::ReservationBook& book() const {
    return book_;
  }

 private:
  struct Booking {
    workload::Job job;
    std::vector<cluster::NodeId> nodes;
    double share = 0.0;
    sim::SimTime start = 0.0;
    sim::SimTime window_end = 0.0;  ///< absolute deadline
  };

  /// Finds (start, nodes, share) for the job, or nullopt to reject.
  [[nodiscard]] std::optional<Booking> plan(const workload::Job& job) const;

  void start_booked(workload::JobId id);
  void release_active(workload::JobId id, sim::SimTime at);

  /// Execution-phase bookkeeping for tail release / termination.
  struct Active {
    std::vector<cluster::NodeId> nodes;
    double share = 0.0;
    sim::SimTime window_end = 0.0;
  };

  std::unique_ptr<cluster::TimeSharedCluster> cluster_;
  cluster::ReservationBook book_;
  std::map<workload::JobId, Booking> deferred_;
  std::map<workload::JobId, Active> active_;
};

}  // namespace utilrisk::policy
