// Approximate k-nearest-neighbor graph — the spatial primitive of the
// high-dimensional KNN-DBSCAN backend.
//
// Every exact index in src/spatial collapses past d≈20: kd-tree and R-tree
// box pruning stops discriminating (every box is "close" in high
// dimensions), and a grid's 3^d cell neighborhood would explode.
// KNN-DBSCAN (Chen et al., PAPERS.md) recovers DBSCAN semantics from a kNN
// graph instead: core points fall out of the k-th neighbor distance,
// connectivity out of in-eps kNN edges — and an APPROXIMATE graph, built by
// NN-descent (Dong et al.)-style neighbor refinement, costs
// O(n * k^2 * rounds) distance evaluations instead of O(n^2), independent
// of dimension.
//
// Graph layout: flat rows of k slots per point — neighbor_ids / neighbor_d2
// — each row sorted ascending by (d2, id) with kNoNeighbor padding. Rows
// never contain the point itself. Both builders filter candidates through
// the runtime-dispatched SIMD row kernel (distance_simd.hpp) with the row's
// worst distance as the cutoff — the kd-tree leaf scan's kNN idiom. The
// kernel reads blocks of up to 32 double rows where they lie, by pointer:
// consecutive points for the exact build, gathered candidates for the
// descent join. Survivors get the scalar reference distance, so graph
// distances are bit-identical on every host.
//
// Determinism: both builders are bit-deterministic for a given (points,
// config) INCLUDING config.threads — exact rows are independent per point,
// and NN-descent's rounds are barriers whose candidate generation reads
// only the previous round's graph while each point's row is updated by
// exactly one task. digest() pins this in tests.
#pragma once

#include <span>
#include <vector>

#include "geom/point_set.hpp"
#include "util/counters.hpp"

namespace sdb::knn {

/// Row padding for points with fewer than k possible neighbors (n-1 < k).
inline constexpr PointId kNoNeighbor = -1;

struct KnnGraphConfig {
  /// Neighbors per point. KNN-DBSCAN needs k >= minpts - 1 to be able to
  /// see any core point (the row plus the point itself is the largest
  /// neighborhood the backend can observe).
  u32 k = 16;

  enum class Build {
    /// Exact rows by brute-force strip scan: O(n^2) evals — the oracle the
    /// descent build is tested against, and the right choice for small n.
    kExact,
    /// NN-descent neighbor refinement: seeded random rows, then rounds of
    /// "compare me against my neighbors' neighbors" local joins until the
    /// update rate falls below termination_frac (or max_rounds). O(n * k^2)
    /// per round, dimension-independent traversal.
    kDescent,
  };
  Build build = Build::kDescent;

  /// Descent: maximum refinement rounds.
  u32 max_rounds = 12;
  /// Descent: per-point cap on the neighbors (forward and reverse) that
  /// participate in a round's local join — NN-descent's sample rate rho*k.
  u32 sample = 16;
  /// Descent: stop when a round improves fewer than this fraction of the
  /// n*k row slots.
  double termination_frac = 0.002;
  /// Seed for the random initial rows and the per-round join sampling.
  u64 seed = 42;
  /// Worker threads (0 = auto, 1 = sequential). Results are identical for
  /// any value; chaos tests pin 1 so fault-plan replay sees one
  /// deterministic site-hit order.
  unsigned threads = 1;
};

class KnnGraph {
 public:
  KnnGraph() = default;
  KnnGraph(size_t n, u32 k)
      : n_(n),
        k_(k),
        ids_(n * k, kNoNeighbor),
        d2_(n * k, 0.0) {}

  [[nodiscard]] size_t size() const { return n_; }
  [[nodiscard]] u32 k() const { return k_; }

  /// Row i's neighbor ids, ascending (d2, id); kNoNeighbor-padded tail.
  [[nodiscard]] std::span<const PointId> row_ids(PointId i) const {
    return {ids_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<const double> row_d2(PointId i) const {
    return {d2_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<PointId> mutable_row_ids(PointId i) {
    return {ids_.data() + static_cast<size_t>(i) * k_, k_};
  }
  [[nodiscard]] std::span<double> mutable_row_d2(PointId i) {
    return {d2_.data() + static_cast<size_t>(i) * k_, k_};
  }

  /// Number of real (non-padding) neighbors in row i.
  [[nodiscard]] u32 row_size(PointId i) const {
    const auto ids = row_ids(i);
    u32 m = 0;
    while (m < k_ && ids[m] != kNoNeighbor) ++m;
    return m;
  }

  /// Squared distance to the k-th neighbor (+inf when the row is short) —
  /// the KNN-DBSCAN core-point statistic.
  [[nodiscard]] double kth_distance2(PointId i) const;

  /// Whether j appears in row i (linear scan; k is small).
  [[nodiscard]] bool has_edge(PointId i, PointId j) const {
    for (const PointId r : row_ids(i)) {
      if (r == j) return true;
      if (r == kNoNeighbor) break;
    }
    return false;
  }

  /// FNV-1a over the row id/d2 bytes — the replay-determinism pin.
  [[nodiscard]] u64 digest() const;

  /// Serialized footprint; prices the pipeline's graph broadcast.
  [[nodiscard]] u64 byte_size() const {
    return ids_.size() * sizeof(PointId) + d2_.size() * sizeof(double) + 16;
  }

 private:
  size_t n_ = 0;
  u32 k_ = 0;
  std::vector<PointId> ids_;
  std::vector<double> d2_;
};

/// Build stats (and the work tally the pipeline prices the build from).
struct KnnGraphBuildStats {
  u32 rounds = 0;          ///< refinement rounds executed (0 for exact)
  u64 updates = 0;         ///< row-slot improvements applied (descent)
  u64 distance_evals = 0;  ///< candidate pairs evaluated
  u64 dropped_edges = 0;   ///< candidates skipped by knn.graph.drop_edge
  /// Descent: join pairs gathered before dedup (0 for exact). Against the
  /// join's share of distance_evals this is the dedup's waste.
  u64 candidates = 0;
  /// Evaluated pairs that got a full squared distance at or below the
  /// row's cutoff (the row kernel's mask, rechecked in double), plus pairs
  /// evaluated against a short row (no cutoff yet). Against
  /// distance_evals this is the kernel filter's yield; it does not depend
  /// on the kernel variant.
  u64 exact_evals = 0;
};

/// Build the kNN graph of `points` per `cfg`. Charges one distance_eval per
/// candidate pair evaluated to the calling thread's counter sink (batched,
/// flushed once), mirroring the spatial-index charging rule.
KnnGraph build_knn_graph(const PointSet& points, const KnnGraphConfig& cfg,
                         KnnGraphBuildStats* stats = nullptr);

/// Recall of `approx` against exact rows: the fraction of (point, neighbor)
/// slots of `exact` recovered by `approx`. 1.0 = every row exact.
double graph_recall(const KnnGraph& exact, const KnnGraph& approx);

}  // namespace sdb::knn
