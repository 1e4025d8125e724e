// FirstReward (Irwin, Grit & Chase [12]): risk-aware market-based task
// service for the bid-based model.
//
// Present value of a job with remaining processing time RPT:
//   PV_i = b_i / (1 + discount_rate * RPT_i)
// Opportunity-cost penalty against every other accepted job j:
//   cost_i = sum_{j != i} pr_j * RPT_i          (unbounded penalties)
// Reward (alpha-weighting):
//   reward_i = (alpha * PV_i - (1 - alpha) * cost_i) / RPT_i
// Admission at submission: accept iff
//   slack_i = (PV_i - cost_i) / pr_i >= slack_threshold.
//
// Execution is space-shared without backfilling (the paper extends the
// original single-processor formulation to parallel jobs but explicitly
// does not add backfilling): the accepted queue is kept ordered by reward,
// and the highest-reward job blocks until its processors free up —
// FirstReward willingly delays earlier jobs when a newcomer's reward
// outranks them.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cluster/space_shared.hpp"
#include "policy/policy.hpp"

namespace utilrisk::policy {

class FirstRewardPolicy : public Policy {
 public:
  FirstRewardPolicy(const PolicyContext& context, PolicyHost& host);

  void on_submit(const workload::Job& job) override;
  [[nodiscard]] std::string_view name() const override {
    return "FirstReward";
  }
  [[nodiscard]] double delivered_proc_seconds() const override {
    return cluster_->busy_proc_seconds(simulator().now());
  }
  bool terminate(workload::JobId id) override;
  void on_node_down(cluster::NodeId id) override;
  void on_node_up(cluster::NodeId id) override;

  [[nodiscard]] const cluster::SpaceSharedCluster& executor() const {
    return *cluster_;
  }

  /// Present value of `job` with the policy's discount rate. Exposed for
  /// tests and the slack-threshold ablation bench.
  [[nodiscard]] economy::Money present_value(const workload::Job& job) const;

  /// Opportunity cost of `job` against the currently accepted set.
  [[nodiscard]] economy::Money opportunity_cost(
      const workload::Job& job) const;

  /// Admission slack in seconds.
  [[nodiscard]] double slack(const workload::Job& job) const;

  /// Scheduling reward.
  [[nodiscard]] double reward(const workload::Job& job) const;

 private:
  void dispatch();

  std::unique_ptr<cluster::SpaceSharedCluster> cluster_;
  std::vector<workload::Job> queue_;  ///< accepted, waiting for processors
  /// Penalty rates of currently *running* accepted jobs (needed to settle
  /// the sum when a running job is terminated instead of completing).
  std::map<workload::JobId, double> running_penalty_;
  /// Sum of penalty rates over accepted-but-unfinished jobs; cost_i is
  /// (total - pr_i when i is in the set) * RPT_i.
  double accepted_penalty_rate_sum_ = 0.0;
};

}  // namespace utilrisk::policy
