#include "knn/disagreement.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/dbscan_seq.hpp"
#include "core/quality.hpp"
#include "spatial/kd_tree.hpp"

namespace sdb::knn {

DisagreementReport measure_disagreement(const dbscan::Clustering& exact,
                                        const dbscan::Clustering& approx,
                                        std::span<const char> exact_core,
                                        std::span<const char> approx_core) {
  SDB_CHECK(exact.labels.size() == approx.labels.size(),
            "clustering size mismatch");
  const size_t n = exact.labels.size();
  DisagreementReport report;
  report.points = n;
  report.exact_clusters = exact.num_clusters;
  report.approx_clusters = approx.num_clusters;
  if (n == 0) return report;

  report.ari = dbscan::adjusted_rand_index(exact, approx);

  for (size_t i = 0; i < n; ++i) {
    const bool ne = exact.labels[i] == kNoise;
    const bool na = approx.labels[i] == kNoise;
    if (ne != na) ++report.noise_mismatches;
  }
  if (!exact_core.empty() && !approx_core.empty()) {
    SDB_CHECK(exact_core.size() == n && approx_core.size() == n,
              "core mask size mismatch");
    for (size_t i = 0; i < n; ++i) {
      if ((exact_core[i] != 0) != (approx_core[i] != 0)) {
        ++report.core_mismatches;
      }
    }
  }

  // Greedy best-overlap matching over the points clustered in BOTH: each
  // exact cluster (descending overlap mass, ties to smaller ids for
  // determinism) claims its best unclaimed approx cluster; everything
  // outside a matched (exact, approx) cell disagrees.
  std::map<std::pair<ClusterId, ClusterId>, u64> cell;
  u64 both = 0;
  for (size_t i = 0; i < n; ++i) {
    if (exact.labels[i] == kNoise || approx.labels[i] == kNoise) continue;
    ++both;
    ++cell[{exact.labels[i], approx.labels[i]}];
  }
  std::vector<std::pair<u64, std::pair<ClusterId, ClusterId>>> cells;
  cells.reserve(cell.size());
  for (const auto& [key, count] : cell) cells.emplace_back(count, key);
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::unordered_map<ClusterId, ClusterId> matched_exact;
  std::unordered_map<ClusterId, ClusterId> matched_approx;
  u64 agree = 0;
  for (const auto& [count, key] : cells) {
    const auto [le, la] = key;
    if (matched_exact.contains(le) || matched_approx.contains(la)) continue;
    matched_exact.emplace(le, la);
    matched_approx.emplace(la, le);
    agree += count;
  }
  report.label_disagreements = both - agree;

  // Fragmentation: compare each exact cluster's size with the largest
  // share any one approx cluster holds of it.
  std::unordered_map<ClusterId, u64> exact_size;
  std::unordered_map<ClusterId, u64> best_share;
  for (size_t i = 0; i < n; ++i) {
    if (exact.labels[i] != kNoise) ++exact_size[exact.labels[i]];
  }
  for (const auto& [key, count] : cell) {
    u64& best = best_share[key.first];
    best = std::max(best, count);
  }
  for (const auto& [label, size] : exact_size) {
    if (2 * best_share[label] <= size) ++report.fragments;
  }
  return report;
}

DisagreementReport knn_vs_exact(const PointSet& points,
                                const dbscan::DbscanParams& params,
                                const KnnGraphConfig& knn_config) {
  // Exact reference: sequential DBSCAN over a kd-tree.
  KdTree tree(points);
  const dbscan::SeqResult exact =
      dbscan::dbscan_sequential(points, tree, params);
  std::vector<char> exact_core(points.size(), 0);
  for (const PointId p : exact.core_points) {
    exact_core[static_cast<size_t>(p)] = 1;
  }

  // KNN backend, single-node engine.
  const KnnGraph graph = build_knn_graph(points, knn_config);
  const KnnEpsGraph eps_graph = KnnEpsGraph::build(graph, params);
  const dbscan::Clustering approx = knn_dbscan(eps_graph);

  return measure_disagreement(exact.clustering, approx, exact_core,
                              eps_graph.core_mask());
}

}  // namespace sdb::knn
