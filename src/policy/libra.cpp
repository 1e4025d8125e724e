#include "policy/libra.hpp"

#include <algorithm>

#include "sim/logger.hpp"

namespace utilrisk::policy {

LibraPolicy::LibraPolicy(const PolicyContext& context, PolicyHost& host)
    : Policy(context, host),
      cluster_(std::make_unique<cluster::TimeSharedCluster>(
          *context.simulator, context.machine)) {}

std::optional<double> LibraPolicy::required_share(
    const workload::Job& job) const {
  if (job.deadline_duration <= 0.0 || job.estimated_runtime <= 0.0) {
    return std::nullopt;
  }
  const double share = job.estimated_runtime / job.deadline_duration;
  if (share > 1.0) return std::nullopt;  // infeasible even on a free node
  return share;
}

bool LibraPolicy::node_eligible(cluster::NodeId node,
                                const workload::Job& /*job*/,
                                double share) const {
  return cluster_->is_up(node) &&
         cluster_->committed_share(node) + share <=
             1.0 + cluster::TimeSharedCluster::kShareEpsilon;
}

void LibraPolicy::on_node_down(cluster::NodeId id) {
  for (const cluster::FailureKill& kill : cluster_->node_down(id)) {
    host().notify_failed(kill.job, kill.completed_work);
  }
}

void LibraPolicy::on_node_up(cluster::NodeId id) {
  cluster_->node_up(id);
}

economy::Money LibraPolicy::quote(const workload::Job& job,
                                  const std::vector<cluster::NodeId>& /*nodes*/,
                                  double /*share*/) const {
  return economy::libra_quote(job, pricing());
}

const std::vector<cluster::NodeId>& LibraPolicy::select_nodes(
    const workload::Job& job, double share) {
  // Best fit: least residual share after placement == highest committed
  // share first. The executor's share index already iterates in that
  // exact order (committed desc, id asc), so taking the first job.procs
  // eligible nodes from it equals sorting every eligible node and
  // truncating — without the whole-cluster scan. The bound skips nodes
  // that cannot pass the base capacity check; it sits 1e-12 above the
  // exact cutoff and node_eligible re-checks the exact predicate, so the
  // skip never changes the outcome.
  const double bound =
      1.0 + cluster::TimeSharedCluster::kShareEpsilon - share + 1e-12;
  chosen_.clear();
  cluster_->for_each_up_node_best_fit(
      bound, [&](cluster::NodeId node, double /*committed*/) {
        if (node_eligible(node, job, share)) {
          chosen_.push_back(node);
          if (chosen_.size() == job.procs) return false;
        }
        return true;
      });
  if (chosen_.size() < job.procs) chosen_.clear();
  return chosen_;
}

void LibraPolicy::on_submit(const workload::Job& job) {
  if (job.procs > cluster_->node_count()) {
    host().notify_rejected(job);
    return;
  }
  const std::optional<double> share = required_share(job);
  if (!share) {
    host().notify_rejected(job);
    return;
  }
  const std::vector<cluster::NodeId>& nodes = select_nodes(job, *share);
  if (nodes.empty()) {
    host().notify_rejected(job);
    return;
  }
  economy::Money quoted = job.budget;
  if (model() == economy::EconomicModel::CommodityMarket) {
    quoted = quote(job, nodes, *share);
    if (quoted > job.budget) {  // cost above budget: reject (§5.1)
      host().notify_rejected(job);
      return;
    }
  }
  host().notify_accepted(job, quoted);
  host().notify_started(job);  // time-shared execution starts immediately
  cluster_->start(job, nodes, *share,
                  [this, job](workload::JobId, sim::SimTime finish) {
                    host().notify_finished(job, finish);
                  });
}

}  // namespace utilrisk::policy
