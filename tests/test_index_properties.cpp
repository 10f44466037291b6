// Cross-index property sweep: every SpatialIndex implementation must agree
// with every other on exact queries, budgeted queries must return subsets
// of the exact result, and batched queries must equal the per-query loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>

#include "geom/distance.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "spatial/r_tree.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

PointSet clustered_points(i64 n, int dim, u64 seed) {
  Rng rng(seed);
  synth::GaussianMixtureConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.clusters = 4;
  cfg.sigma = 2.0;
  cfg.noise_fraction = 0.1;
  cfg.box_side = 80.0;
  return synth::gaussian_clusters(cfg, rng);
}

std::vector<PointId> sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class AllIndexesAgree : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(AllIndexesAgree, ExactQueriesIdentical) {
  const auto [dim, eps] = GetParam();
  const PointSet ps = clustered_points(900, dim, 71 + static_cast<u64>(dim));
  const KdTree kd(ps);
  const RTree rt(ps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &rt, &brute};

  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> reference;
    brute.range_query(ps[q], eps, reference);
    const auto expected = sorted(reference);
    for (const SpatialIndex* index : indexes) {
      std::vector<PointId> out;
      index->range_query(ps[q], eps, out);
      EXPECT_EQ(sorted(out), expected)
          << index->name() << " dim=" << dim << " eps=" << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllIndexesAgree,
                         ::testing::Values(std::make_tuple(2, 3.0),
                                           std::make_tuple(3, 5.0),
                                           std::make_tuple(5, 9.0)));

/// Adversarial datasets for the parity sweep: exact duplicates, pairs at
/// exactly eps (the boundary the <= eps contract must include), degenerate
/// 1-d data, and the paper's high-d regime where AABB pruning barely helps.
PointSet adversarial_points(i64 n, int dim, double eps, u64 seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  std::vector<double> q(static_cast<size_t>(dim));
  for (i64 i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 40.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15) {
      ps.add(p);  // exact duplicate
    } else if (roll < 0.3) {
      // A partner offset by exactly eps along one axis: lands on (or within
      // one ulp of) the closed-ball boundary, where any index that compares
      // with < instead of <= — or computes distance in a different order —
      // diverges from the others.
      q = p;
      q[static_cast<size_t>(rng.uniform_index(static_cast<size_t>(dim)))] +=
          eps;
      ps.add(q);
    }
  }
  return ps;
}

class IndexParityAdversarial
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(IndexParityAdversarial, AllIndexesAndLayoutsAgree) {
  const auto [dim, eps] = GetParam();
  const PointSet ps =
      adversarial_points(700, dim, eps, 113 + static_cast<u64>(dim));
  const KdTree kd(ps);
  const KdTree kd_deep(ps, KdTreeOptions{.leaf_size = 4});
  const RTree rt(ps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &kd_deep, &rt,
                                                    &brute};
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
    std::vector<PointId> reference;
    brute.range_query(ps[q], eps, reference);
    const auto expected = sorted(reference);
    for (const SpatialIndex* index : indexes) {
      std::vector<PointId> out;
      index->range_query(ps[q], eps, out);
      EXPECT_EQ(sorted(out), expected)
          << index->name() << " dim=" << dim << " eps=" << eps << " q=" << q;
      // Kernel-variant parity: the same query with dispatch pinned to the
      // scalar fallback must return the exact same ids in the exact same
      // (unsorted) order — the SIMD kernels' bit-identical contract, probed
      // here on the adversarial exactly-eps / duplicate fixtures.
      simd::force_scalar(true);
      std::vector<PointId> out_scalar;
      index->range_query(ps[q], eps, out_scalar);
      simd::force_scalar(false);
      EXPECT_EQ(out_scalar, out)
          << index->name() << " scalar-vs-simd divergence, dim=" << dim
          << " eps=" << eps << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexParityAdversarial,
                         ::testing::Values(std::make_tuple(1, 2.0),
                                           std::make_tuple(2, 3.0),
                                           std::make_tuple(5, 8.0),
                                           std::make_tuple(10, 20.0)));

/// The batched query must reproduce the per-query loop exactly: per list
/// the same ids in the same order, and the same tree_nodes /
/// distance_evals totals.
void expect_batch_matches_per_query(const SpatialIndex& index,
                                    std::span<const PointId> queries,
                                    double eps, const QueryBudget& budget,
                                    const std::string& what) {
  const PointSet& ps = index.indexed_points();
  std::vector<std::vector<PointId>> lists;
  WorkCounters per_query;
  {
    ScopedCounters scope(&per_query);
    for (const PointId q : queries) {
      lists.emplace_back();
      index.range_query_budgeted(ps[q], eps, budget, lists.back());
    }
  }
  NeighborhoodCsr csr;
  csr.ids = {7, 7, 7};  // stale contents must be replaced
  WorkCounters batched;
  {
    ScopedCounters scope(&batched);
    index.range_query_batch(queries, eps, budget, csr);
  }
  ASSERT_EQ(csr.offsets.size(), queries.size() + 1) << what;
  ASSERT_EQ(csr.offsets.front(), 0u) << what;
  ASSERT_EQ(csr.offsets.back(), csr.ids.size()) << what;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto list = csr.list(i);
    EXPECT_EQ(std::vector<PointId>(list.begin(), list.end()), lists[i])
        << what << " list " << i << " (point " << queries[i] << ")";
  }
  EXPECT_EQ(batched.tree_nodes, per_query.tree_nodes) << what;
  EXPECT_EQ(batched.distance_evals, per_query.distance_evals) << what;
}

class BatchedRangeQuery
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BatchedRangeQuery, MatchesPerQueryForEveryIndexAndBudget) {
  const auto [dim, eps] = GetParam();
  // Duplicates and exactly-eps pairs (adversarial_points), so equal keys
  // and boundary hits are common.
  const PointSet ps =
      adversarial_points(700, dim, eps, 211 + static_cast<u64>(dim));
  const KdTree kd(ps);
  // Small leaves: deep trees, so the path-key order does real work.
  const KdTree kd_deep(ps, KdTreeOptions{.leaf_size = 4});
  const RTree rt(ps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &kd_deep, &rt,
                                                    &brute};
  const std::vector<QueryBudget> budgets = {
      QueryBudget{}, QueryBudget{.max_neighbors = 3},
      QueryBudget{.max_nodes = 6}};

  Rng rng(23 + static_cast<u64>(dim));
  for (const size_t count : {0, 1, 31, 32, 33, 100}) {
    // Descending ids, the second half shuffled, and past one block a
    // repeated id: not in id order and not in tree order.
    std::vector<PointId> queries;
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(static_cast<PointId>(ps.size() - 1 - 6 * i));
    }
    for (size_t i = count / 2; i + 1 < count; ++i) {
      std::swap(queries[i],
                queries[i + rng.uniform_index(count - i)]);
    }
    if (count > kDistanceStrip) queries[count - 1] = queries[3];
    for (const SpatialIndex* index : indexes) {
      for (size_t b = 0; b < budgets.size(); ++b) {
        expect_batch_matches_per_query(
            *index, queries, eps, budgets[b],
            std::string(index->name()) + " dim=" + std::to_string(dim) +
                " count=" + std::to_string(count) + " budget#" +
                std::to_string(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BatchedRangeQuery,
                         ::testing::Values(std::make_tuple(1, 2.0),
                                           std::make_tuple(2, 3.0),
                                           std::make_tuple(3, 5.0),
                                           std::make_tuple(10, 20.0),
                                           std::make_tuple(64, 120.0)));

TEST(BatchedRangeQueryLaws, ConcurrentBlocksOnOneSharedTree) {
  // Executors share one broadcast tree; every call keeps its own scratch,
  // so concurrent batches must each match a sequential run (the TSan entry
  // point for the block path).
  const PointSet ps = clustered_points(3000, 3, 131);
  const KdTree kd(ps);
  std::vector<std::vector<PointId>> parts(4);
  for (size_t i = 0; i < ps.size(); ++i) {
    parts[i % parts.size()].push_back(static_cast<PointId>(i));
  }
  std::vector<NeighborhoodCsr> expected(parts.size());
  for (size_t t = 0; t < parts.size(); ++t) {
    kd.range_query_batch(parts[t], 3.0, QueryBudget{}, expected[t]);
  }
  std::vector<NeighborhoodCsr> got(parts.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < parts.size(); ++t) {
    threads.emplace_back([&, t] {
      kd.range_query_batch(parts[t], 3.0, QueryBudget{}, got[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < parts.size(); ++t) {
    EXPECT_EQ(got[t].ids, expected[t].ids) << "thread " << t;
    EXPECT_EQ(got[t].offsets, expected[t].offsets) << "thread " << t;
  }
}

TEST(BudgetLaws, BudgetedIsSubsetOfExactForAllIndexes) {
  const PointSet ps = clustered_points(1200, 2, 83);
  const KdTree kd(ps);
  const RTree rt(ps);
  const BruteForceIndex brute(ps);
  const std::vector<const SpatialIndex*> indexes = {&kd, &rt, &brute};
  Rng rng(13);
  for (const SpatialIndex* index : indexes) {
    for (int trial = 0; trial < 15; ++trial) {
      const PointId q = static_cast<PointId>(rng.uniform_index(ps.size()));
      std::vector<PointId> exact;
      index->range_query(ps[q], 4.0, exact);
      QueryBudget budget;
      budget.max_neighbors = 1 + rng.uniform_index(8);
      std::vector<PointId> limited;
      index->range_query_budgeted(ps[q], 4.0, budget, limited);
      EXPECT_LE(limited.size(), budget.max_neighbors) << index->name();
      const auto exact_sorted = sorted(exact);
      for (const PointId id : limited) {
        EXPECT_TRUE(std::binary_search(exact_sorted.begin(),
                                       exact_sorted.end(), id))
            << index->name();
      }
    }
  }
}

TEST(BudgetLaws, KdTreeNeighborBudgetReturnsExactPrefix) {
  // With only max_neighbors set the descent is the exact one, cut short:
  // the budgeted list is the first min(k, |exact|) ids of the exact list,
  // in the exact list's order.
  for (const int dim : {2, 10}) {
    const PointSet ps =
        clustered_points(1500, dim, 149 + static_cast<u64>(dim));
    for (const int leaf : {4, 192}) {
      const KdTree kd(ps, KdTreeOptions{.leaf_size = leaf, .build_threads = 1});
      for (PointId q = 0; q < static_cast<PointId>(ps.size()); q += 37) {
        std::vector<PointId> exact;
        kd.range_query(ps[q], 6.0, exact);
        for (const u64 k : {u64{1}, u64{2}, u64{5}, u64{31}, u64{32},
                            u64{33}, u64{200}}) {
          std::vector<PointId> limited;
          kd.range_query_budgeted(ps[q], 6.0, QueryBudget{.max_neighbors = k},
                                  limited);
          const size_t keep = std::min<size_t>(k, exact.size());
          EXPECT_EQ(limited, std::vector<PointId>(exact.begin(),
                                                  exact.begin() + keep))
              << "dim=" << dim << " leaf=" << leaf << " q=" << q
              << " k=" << k;
        }
      }
    }
  }
}

TEST(BudgetLaws, BruteForceBudgetedEqualsScalarLoop) {
  // A layout-free oracle for strip_scan_budgeted: brute force scans ids
  // ascending, so its neighbor-budgeted query must equal a row-at-a-time
  // scalar loop — the same ids, and one distance_eval per row up to and
  // including the row that fills the budget (every row when it never
  // fills). Sizes straddle the strip width so the stop lands inside a
  // block, on a block edge and in a ragged tail.
  for (const size_t n : {size_t{1}, kDistanceStrip - 1, kDistanceStrip,
                         kDistanceStrip + 1, 3 * kDistanceStrip + 5,
                         size_t{400}}) {
    // The first n rows of an adversarial set (duplicates, exactly-eps
    // partners), so the size is exactly n.
    const double eps = 8.0;
    const PointSet all =
        adversarial_points(static_cast<i64>(n), 4, eps, 157 + n);
    PointSet ps(4);
    for (PointId i = 0; i < static_cast<PointId>(n); ++i) ps.add(all[i]);
    const BruteForceIndex brute(ps);
    for (const u64 k : {u64{1}, u64{3}, u64{31}, u64{32}, u64{33}, u64{64}}) {
      for (PointId q = 0; q < static_cast<PointId>(ps.size()); q += 5) {
        std::vector<PointId> want;
        u64 want_evals = 0;
        for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
          ++want_evals;
          if (squared_distance_uncounted(ps[q], ps[i]) <= eps * eps) {
            want.push_back(i);
            if (want.size() == k) break;
          }
        }
        WorkCounters wc;
        std::vector<PointId> got;
        {
          ScopedCounters scope(&wc);
          brute.range_query_budgeted(ps[q], eps,
                                     QueryBudget{.max_neighbors = k}, got);
        }
        EXPECT_EQ(got, want) << "n=" << n << " q=" << q << " k=" << k;
        EXPECT_EQ(wc.distance_evals, want_evals)
            << "n=" << n << " q=" << q << " k=" << k;
      }
    }
  }
}

TEST(BruteForce, SelfIncluded) {
  const PointSet ps = clustered_points(50, 3, 13);
  BruteForceIndex brute(ps);
  std::vector<PointId> out;
  brute.range_query(ps[7], 0.0001, out);
  EXPECT_NE(std::find(out.begin(), out.end(), 7), out.end());
}

TEST(KnnLaws, KGreaterThanNReturnsAll) {
  const PointSet ps = clustered_points(50, 3, 91);
  const KdTree kd(ps);
  const auto nn = kd.knn(ps[0], 500);
  EXPECT_EQ(nn.size(), 50u);
}

TEST(KnnLaws, Deterministic) {
  const PointSet ps = clustered_points(300, 3, 97);
  const KdTree kd(ps);
  EXPECT_EQ(kd.knn(ps[5], 10), kd.knn(ps[5], 10));
}

TEST(KnnLaws, PrefixConsistency) {
  // knn(k) distances are a prefix of knn(k') distances for k < k'.
  const PointSet ps = clustered_points(400, 2, 101);
  const KdTree kd(ps);
  const auto small = kd.knn(ps[7], 5);
  const auto large = kd.knn(ps[7], 15);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_DOUBLE_EQ(squared_distance(ps[7], ps[small[i]]),
                     squared_distance(ps[7], ps[large[i]]));
  }
}

}  // namespace
}  // namespace sdb
