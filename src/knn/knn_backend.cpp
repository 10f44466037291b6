#include "knn/knn_backend.hpp"

#include <algorithm>
#include <deque>

namespace sdb::knn {

KnnEpsGraph KnnEpsGraph::build(const KnnGraph& graph,
                               const dbscan::DbscanParams& params) {
  SDB_CHECK(static_cast<i64>(graph.k()) >= params.minpts - 1,
            "KNN-DBSCAN needs k >= minpts - 1: a row shorter than "
            "minpts - 1 can never certify a core point");
  const size_t n = graph.size();
  const double eps2 = params.eps * params.eps;

  KnnEpsGraph g;
  g.n_ = n;
  g.minpts_ = params.minpts;
  g.core_.assign(n, 0);

  // Pass 1: in-eps prefix of every row -> undirected edge lists + core
  // mask. Rows are ascending by (d2, id), so the in-eps prefix is
  // contiguous. Each edge goes into both endpoints' lists.
  std::vector<std::vector<PointId>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    const auto pid = static_cast<PointId>(i);
    const auto ids = graph.row_ids(pid);
    const auto d2s = graph.row_d2(pid);
    u32 in_eps = 0;
    for (u32 s = 0; s < graph.k(); ++s) {
      if (ids[s] == kNoNeighbor || d2s[s] > eps2) break;
      ++in_eps;
      adj[i].push_back(ids[s]);
      adj[static_cast<size_t>(ids[s])].push_back(pid);
    }
    // Core: the point itself plus its in-eps row reaches minpts.
    if (1 + static_cast<i64>(in_eps) >= params.minpts) g.core_[i] = 1;
  }

  // Pass 2: per-row sort + unique (an edge seen in both rows was added
  // twice), then pack the CSR.
  g.offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    auto& row = adj[i];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    g.offsets_[i + 1] = g.offsets_[i] + row.size();
  }
  g.targets_.reserve(g.offsets_[n]);
  for (const auto& row : adj) {
    g.targets_.insert(g.targets_.end(), row.begin(), row.end());
  }
  return g;
}

u64 KnnEpsGraph::num_core() const {
  u64 c = 0;
  for (const char b : core_) c += b != 0 ? 1 : 0;
  return c;
}

u64 KnnEpsGraph::digest() const {
  u64 h = 1469598103934665603ull;
  auto fold = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t b = 0; b < size; ++b) {
      h ^= bytes[b];
      h *= 1099511628211ull;
    }
  };
  fold(&n_, sizeof(n_));
  fold(&minpts_, sizeof(minpts_));
  fold(offsets_.data(), offsets_.size() * sizeof(u64));
  fold(targets_.data(), targets_.size() * sizeof(PointId));
  fold(core_.data(), core_.size());
  return h;
}

dbscan::Clustering knn_dbscan(const KnnEpsGraph& graph) {
  const size_t n = graph.size();
  dbscan::Clustering out;
  out.labels.assign(n, kNoise);
  std::deque<PointId> frontier;
  for (size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<PointId>(p);
    if (!graph.is_core(pid) || out.labels[p] != kNoise) continue;
    const auto cluster = static_cast<ClusterId>(out.num_clusters++);
    out.labels[p] = cluster;
    frontier.clear();
    frontier.push_back(pid);
    while (!frontier.empty()) {
      const PointId q = frontier.front();
      frontier.pop_front();
      for (const PointId j : graph.neighbors(q)) {
        if (out.labels[static_cast<size_t>(j)] != kNoise) continue;
        out.labels[static_cast<size_t>(j)] = cluster;
        // Only core points extend the frontier; borders are claimed leaves.
        if (graph.is_core(j)) frontier.push_back(j);
      }
    }
  }
  return out;
}

dbscan::LocalClusterResult local_knn_dbscan(
    const KnnEpsGraph& graph, const dbscan::Partitioning& partitioning,
    PartitionId partition, const LocalKnnDbscanConfig& config) {
  // The eps-neighborhood "query" is a CSR row read: the spatial work was
  // all prepaid by the graph build's distance_evals.
  return dbscan::local_sweep(
      partitioning, partition, config.seed_strategy, [&](PointId p) {
        return dbscan::Neighborhood{graph.is_core(p), graph.neighbors(p)};
      });
}

}  // namespace sdb::knn
