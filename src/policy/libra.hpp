// Libra (Sherwani et al. [24]): deadline-based proportional processor
// share with immediate job admission control.
//
// At submission, job i requires a share s_i = estimate_i / deadline_i on
// each of procs_i distinct nodes. It is accepted iff procs_i nodes have
// spare share capacity (sum of committed shares + s_i <= 1); otherwise it
// is rejected on the spot (no queue). Node selection is best-fit: the
// nodes left most saturated by the placement are chosen first. Accepted
// jobs start executing immediately on the time-shared executor, so their
// wait time is exactly zero — the paper's ideal wait point.
//
// Libra+$ (libra_dollar.hpp) and LibraRiskD (libra_riskd.hpp) specialise
// the admission hooks below.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/time_shared.hpp"
#include "policy/policy.hpp"

namespace utilrisk::policy {

class LibraPolicy : public Policy {
 public:
  LibraPolicy(const PolicyContext& context, PolicyHost& host);

  void on_submit(const workload::Job& job) override;
  [[nodiscard]] std::string_view name() const override { return "Libra"; }
  [[nodiscard]] double delivered_proc_seconds() const override {
    return cluster_->busy_proc_seconds();
  }
  bool terminate(workload::JobId id) override {
    return cluster_->cancel(id);
  }
  void on_node_down(cluster::NodeId id) override;
  void on_node_up(cluster::NodeId id) override;

  [[nodiscard]] const cluster::TimeSharedCluster& executor() const {
    return *cluster_;
  }

 protected:
  /// Required per-node share for the job: estimate / deadline-duration.
  /// nullopt when the job cannot meet its deadline even on a dedicated
  /// node (share > 1).
  [[nodiscard]] std::optional<double> required_share(
      const workload::Job& job) const;

  /// Hook: may the job (with per-node share `share`) be placed on `node`?
  /// Base Libra checks share capacity only; LibraRiskD adds the
  /// deadline-delay risk projection.
  [[nodiscard]] virtual bool node_eligible(cluster::NodeId node,
                                           const workload::Job& job,
                                           double share) const;

  /// Hook: commodity-model quote for the job on its selected nodes. Base
  /// Libra uses the static incentive pricing; Libra+$ prices dynamically
  /// from node saturation.
  [[nodiscard]] virtual economy::Money quote(
      const workload::Job& job, const std::vector<cluster::NodeId>& nodes,
      double share) const;

  [[nodiscard]] cluster::TimeSharedCluster& cluster() { return *cluster_; }
  [[nodiscard]] const cluster::TimeSharedCluster& cluster() const {
    return *cluster_;
  }

  /// Best-fit selection among eligible nodes: highest committed share
  /// first (saturate nodes to the maximum, §5.2), node id as tiebreak.
  /// Empty when fewer than job.procs nodes qualify. The result lives in a
  /// buffer reused by the next call.
  [[nodiscard]] const std::vector<cluster::NodeId>& select_nodes(
      const workload::Job& job, double share);

 private:
  std::unique_ptr<cluster::TimeSharedCluster> cluster_;
  /// select_nodes' result. Admission is not re-entrant, so one buffer
  /// serves every decision and a decision allocates no node list.
  std::vector<cluster::NodeId> chosen_;
};

}  // namespace utilrisk::policy
