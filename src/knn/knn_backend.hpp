// KNN-DBSCAN — DBSCAN semantics recovered from a kNN graph (Chen et al.,
// PAPERS.md), the pipeline's high-dimensional backend.
//
// Exact DBSCAN needs eps-range queries, and every exact spatial index
// collapses past d≈20. KNN-DBSCAN substitutes the kNN graph:
//
//   * CORE: p is core iff |N_eps(p)| >= minpts, and the largest in-eps
//     neighborhood the graph can observe is p itself plus its row, so
//     p is core iff 1 + |{j in row(p) : d2(p,j) <= eps^2}| >= minpts.
//     This requires k >= minpts - 1 (checked at build).
//   * CONNECTIVITY: two core points are density-connected through an
//     in-eps edge in EITHER direction. Either row holding the other proves
//     d <= eps, which is exactly DBSCAN's core-core edge; the eps-graph
//     stores every such edge in both rows, so the relation is symmetric and
//     reachability never depends on traversal direction.
//   * BORDER: a non-core point joins a cluster through an in-eps edge to one
//     of its cores, by the same either-direction rule (a border point need
//     not appear in the core's row).
//
// The single-node reference (knn_dbscan) and the partitioned executor
// kernel (local_knn_dbscan, which runs dbscan::local_sweep over graph rows)
// follow the same edges, so the two engines agree exactly; approximation
// error relative to true DBSCAN enters only through the graph build (a
// missing row entry hides an in-eps edge) and is measured by the
// disagreement harness (knn/disagreement.hpp).
#pragma once

#include "core/dbscan.hpp"
#include "core/local_dbscan.hpp"
#include "core/partial_cluster.hpp"
#include "core/partitioners.hpp"
#include "knn/knn_graph.hpp"

namespace sdb::knn {

/// The in-eps adjacency + core facts derived from a kNN graph for one
/// (eps, minpts): a CSR over undirected in-eps edges (an edge seen in
/// either row is stored in both), plus the global core mask. Built once on
/// the driver and broadcast — executors share one consistent view of
/// coreness, which is what lets merge_partial_clusters run unchanged.
class KnnEpsGraph {
 public:
  /// Derive the eps-graph from `graph` rows. SDB_CHECKs
  /// k >= minpts - 1 (smaller k can never certify a core point).
  static KnnEpsGraph build(const KnnGraph& graph,
                           const dbscan::DbscanParams& params);

  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] i64 minpts() const { return minpts_; }

  [[nodiscard]] bool is_core(PointId i) const {
    return core_[static_cast<size_t>(i)] != 0;
  }
  [[nodiscard]] const std::vector<char>& core_mask() const { return core_; }
  [[nodiscard]] u64 num_core() const;

  /// Row i's in-eps neighbors, strictly ascending by id, never i itself.
  [[nodiscard]] std::span<const PointId> neighbors(PointId i) const {
    const auto b = offsets_[static_cast<size_t>(i)];
    return {targets_.data() + b, offsets_[static_cast<size_t>(i) + 1] - b};
  }

  [[nodiscard]] u64 num_edges() const { return targets_.size(); }

  /// FNV-1a over the CSR + core mask — pins executor-view consistency and
  /// faulted-build replay in tests.
  [[nodiscard]] u64 digest() const;

  /// Serialized footprint; prices the pipeline's broadcast.
  [[nodiscard]] u64 byte_size() const {
    return offsets_.size() * sizeof(u64) + targets_.size() * sizeof(PointId) +
           core_.size() + 32;
  }

 private:
  size_t n_ = 0;
  i64 minpts_ = 0;
  std::vector<u64> offsets_;    ///< n + 1 row offsets
  std::vector<PointId> targets_;
  std::vector<char> core_;
};

/// Single-node KNN-DBSCAN reference: BFS over the eps-graph in ascending
/// point order, clusters numbered in discovery order, borders claimed by
/// the first cluster to reach them. Deterministic; the partitioned engine
/// is tested against it.
dbscan::Clustering knn_dbscan(const KnnEpsGraph& graph);

struct LocalKnnDbscanConfig {
  dbscan::SeedStrategy seed_strategy = dbscan::SeedStrategy::kAllForeign;
};

/// Executor kernel of the KNN backend — dbscan::local_sweep with the
/// broadcast eps-graph as the neighborhood source in place of the broadcast
/// spatial index. Same BFS, same SEED placement, same LocalClusterResult
/// wire shape, so codec / checkpoint / merge machinery is reused unchanged.
/// Coreness comes from the graph's global mask (never recomputed locally),
/// which keeps every executor's facts mutually consistent for the merge.
dbscan::LocalClusterResult local_knn_dbscan(
    const KnnEpsGraph& graph, const dbscan::Partitioning& partitioning,
    PartitionId partition, const LocalKnnDbscanConfig& config);

}  // namespace sdb::knn
