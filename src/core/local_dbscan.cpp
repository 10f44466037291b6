#include "core/local_dbscan.hpp"

#include <algorithm>

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
  SDB_CHECK(&points == &index.indexed_points(),
            "local_dbscan: the index must be built over `points`");
  SDB_CHECK(partition >= 0 &&
                static_cast<u32>(partition) < partitioning.num_partitions,
            "partition id out of range");
  // Algorithm 2 lines 6 and 15: the eps-neighborhood via the broadcast
  // kd-tree. The sweep queries every local point exactly once, so all of
  // them are answered up front by one batched call, one CSR list per local
  // point in the partition's (ascending) id order, and the sweep reads its
  // rows.
  const auto& my_points = partitioning.parts[static_cast<size_t>(partition)];
  NeighborhoodCsr hoods;
  index.range_query_batch(my_points, config.params.eps, config.budget, hoods);
  return local_sweep(
      partitioning, partition, config.seed_strategy, [&](PointId p) {
        const auto row = static_cast<size_t>(
            std::lower_bound(my_points.begin(), my_points.end(), p) -
            my_points.begin());
        const auto neighbors = hoods.list(row);
        return Neighborhood{
            static_cast<i64>(neighbors.size()) >= config.params.minpts,
            neighbors};
      });
}

}  // namespace sdb::dbscan
