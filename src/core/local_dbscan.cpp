#include "core/local_dbscan.hpp"

namespace sdb::dbscan {

const char* seed_strategy_name(SeedStrategy s) {
  switch (s) {
    case SeedStrategy::kOnePerPartition: return "one-per-partition";
    case SeedStrategy::kAllForeign: return "all-foreign";
  }
  return "?";
}

LocalClusterResult local_dbscan(const PointSet& points,
                                const SpatialIndex& index,
                                const Partitioning& partitioning,
                                PartitionId partition,
                                const LocalDbscanConfig& config) {
  // Algorithm 2 lines 6 and 15: the eps-neighborhood via the broadcast
  // kd-tree. One buffer serves every query; the sweep consumes each
  // neighborhood before asking for the next.
  std::vector<PointId> neighbors;
  return local_sweep(
      partitioning, partition, config.seed_strategy, [&](PointId p) {
        neighbors.clear();
        index.range_query_budgeted(points[p], config.params.eps,
                                   config.budget, neighbors);
        return Neighborhood{
            static_cast<i64>(neighbors.size()) >= config.params.minpts,
            neighbors};
      });
}

}  // namespace sdb::dbscan
