// Uniform grid index with cell edge == eps.
//
// An alternative to the kd-tree for low-dimensional data: a range query
// visits only the 3^d cells adjacent to the query's cell. At the paper's
// d=10 that is 59049 cells per query, so the kd-tree wins — which is exactly
// the comparison bench_micro_spatial measures. The grid is the index of
// choice for the 2-D example applications.
//
// Layout: cells are (begin, end) ranges into two packed arrays — the member
// point ids, and their coordinates stored strip-transposed (SoA) in packed
// order (see distance_simd.hpp) — so a cell scan streams blocks through the
// runtime-dispatched SIMD strip kernel instead of gathering rows
// point-by-point (same scheme as the kd-tree's leaf-order buffer). A cell
// may enter its first block at any lane offset, exactly like a kd-tree
// leaf.
#pragma once

#include <unordered_map>

#include "spatial/spatial_index.hpp"

namespace sdb {

class GridIndex final : public SpatialIndex {
 public:
  /// Build over `points` with cell edge length `cell` (normally the query
  /// eps). Keeps a reference to the PointSet.
  GridIndex(const PointSet& points, double cell);

  void range_query(std::span<const double> q, double eps,
                   std::vector<PointId>& out) const override;

  void range_query_budgeted(std::span<const double> q, double eps,
                            const QueryBudget& budget,
                            std::vector<PointId>& out) const override;

  /// Unified kNN (see SpatialIndex::knn_query): expanding Chebyshev-ring
  /// cell search from the query's cell, pruned once the ring's distance
  /// lower bound strictly exceeds the current k-th (d2, id) heap top, and
  /// terminated when the ring box covers every occupied cell. Cells are
  /// probed in odometer order within a ring (deterministic); max_nodes
  /// bounds the cells probed.
  void knn_query(std::span<const double> q, size_t k,
                 const QueryBudget& budget,
                 std::vector<KnnHit>& out) const override;

  [[nodiscard]] const PointSet& indexed_points() const override {
    return points_;
  }
  [[nodiscard]] u64 byte_size() const override;
  [[nodiscard]] const char* name() const override { return "grid"; }

  [[nodiscard]] size_t cell_count() const { return cells_.size(); }

 private:
  /// Half-open range into packed_ids_ (and, by position, packed_coords_).
  struct CellRange {
    u32 begin = 0;
    u32 end = 0;
  };

  [[nodiscard]] u64 cell_key(std::span<const double> p) const;
  void cell_coords(std::span<const double> p, std::vector<i64>& coords) const;
  [[nodiscard]] u64 coords_key(const std::vector<i64>& coords) const;

  const PointSet& points_;
  double cell_;
  std::unordered_map<u64, CellRange> cells_;
  // Per-dimension [min, max] occupied cell coordinates — the ring search's
  // termination bound (empty when the index holds no points).
  std::vector<i64> cell_lo_;
  std::vector<i64> cell_hi_;
  std::vector<PointId> packed_ids_;    // cell-contiguous, id order per cell
  std::vector<double> packed_coords_;  // strip-transposed coords in
                                       // packed_ids_ order, padded to whole
                                       // blocks (padding lanes zero)
};

}  // namespace sdb
