#include "spatial/brute_force.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>

#include "geom/distance.hpp"

namespace sdb {

BruteForceIndex::BruteForceIndex(const PointSet& points) : points_(points) {
  const size_t n = points_.size();
  if (n == 0) return;
  const size_t dim = static_cast<size_t>(points_.dim());
  // One origin for the whole strip: the centre of the data's box.
  std::vector<double> box(2 * dim);
  for (size_t d = 0; d < dim; ++d) {
    box[2 * d] = std::numeric_limits<double>::infinity();
    box[2 * d + 1] = -std::numeric_limits<double>::infinity();
  }
  for (size_t i = 0; i < n; ++i) {
    const auto p = points_[static_cast<PointId>(i)];
    for (size_t d = 0; d < dim; ++d) {
      box[2 * d] = std::min(box[2 * d], p[d]);
      box[2 * d + 1] = std::max(box[2 * d + 1], p[d]);
    }
  }
  centre_.resize(dim);
  half_extent_ = box_centre(box.data(), dim, centre_.data());
  strips_.assign(strip_padded_len(n, dim), 0.0f);
  for (size_t i = 0; i < n; ++i) {
    strip_store_row(strips_.data(), i, points_[static_cast<PointId>(i)],
                    centre_.data());
  }
}

void BruteForceIndex::range_query(std::span<const double> q, double eps,
                                  std::vector<PointId>& out) const {
  range_query_budgeted(q, eps, QueryBudget{}, out);
}

void BruteForceIndex::range_query_budgeted(std::span<const double> q,
                                           double eps,
                                           const QueryBudget& budget,
                                           std::vector<PointId>& out) const {
  const double eps2 = eps * eps;
  const size_t n = points_.size();
  if (n == 0) return;
  const size_t dim = q.size();
  const simd::StripThresholds th =
      simd::StripSlack(eps2, dim).at(half_extent_);
  std::vector<float> qf(dim);
  if (th.usable) strip_relative(q, centre_.data(), qf.data(), 1);
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  const auto block_mask = [&](size_t base, u32 active) {
    return strip_block_mask(kernel, th, qf.data(), q, eps2,
                            strip_block(strips_.data(), base, dim), active,
                            [&](int j) {
                              return points_[static_cast<PointId>(base + j)];
                            });
  };
  if (budget.max_neighbors == 0) {
    // Ids are packed-position order here, so the exact scan is one long run
    // of full strip blocks (the final block is the only partial one).
    for (size_t base = 0; base < n; base += kDistanceStrip) {
      const size_t stop = std::min(base + kDistanceStrip, n);
      for (u32 mask = block_mask(base, strip_lanes(0, stop - base));
           mask != 0; mask &= mask - 1) {
        out.push_back(static_cast<PointId>(base + std::countr_zero(mask)));
      }
    }
    counters::distance_evals(n);
    return;
  }
  // Neighbor-budgeted scan through the same blocks: the mask walk
  // reconstructs the scalar loop's exact stop row and distance_evals charge
  // (strip_scan_budgeted), byte-identical output and counters.
  u64 found = 0;
  u64 evals = 0;
  strip_scan_budgeted(0, n, budget.max_neighbors, found, evals, block_mask,
                      [&](size_t pos) {
                        out.push_back(static_cast<PointId>(pos));
                      });
  counters::distance_evals(evals);
}

void BruteForceIndex::knn_query(std::span<const double> q, size_t k,
                                const QueryBudget& budget,
                                std::vector<KnnHit>& out) const {
  (void)budget;  // no nodes to bound; max_neighbors ignored per contract
  // Max-heap of lexicographic (d2, id) pairs — the smaller-id tie-break at
  // the k-th distance (see spatial_index.hpp).
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  const size_t n = points_.size();
  if (k == 0 || n == 0) return;
  const size_t dim = static_cast<size_t>(points_.dim());
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  std::vector<float> qf(dim);
  strip_relative(q, centre_.data(), qf.data(), 1);
  for (size_t base = 0; base < n; base += kDistanceStrip) {
    const size_t m = std::min(kDistanceStrip, n - base);
    if (heap.size() == k) {
      // Kernel cutoff filter (kd-tree leaf idiom): the maybe mask at the
      // block-entry k-th distance is a superset of every row the scalar
      // loop could insert; survivors get the exact unfused scalar distance.
      const double cutoff = heap.top().first;
      const bool finite = std::isfinite(cutoff);  // inf: keep every row
      const simd::StripThresholds th =
          simd::StripSlack(cutoff, dim).at(half_extent_);
      simd::StripMasks mk{0, strip_lanes(0, m)};
      if (th.usable) {
        kernel(qf.data(), 1, dim, th.sure_le, th.maybe_le,
               strip_block(strips_.data(), base, dim), mk.maybe, &mk);
      }
      for (u32 mask = mk.maybe; mask != 0; mask &= mask - 1) {
        const auto id = static_cast<PointId>(base + std::countr_zero(mask));
        const Entry cand{squared_distance_uncounted(q, points_[id]), id};
        if (finite && !(cand.first <= cutoff)) continue;
        if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
    } else {
      for (size_t j = 0; j < m; ++j) {
        const auto id = static_cast<PointId>(base + j);
        const Entry cand{squared_distance_uncounted(q, points_[id]), id};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
    }
  }
  // One eval per row examined — the scan examines every row exactly once.
  counters::distance_evals(n);

  const size_t base = out.size();
  out.resize(base + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

}  // namespace sdb
