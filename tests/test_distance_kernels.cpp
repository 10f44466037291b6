// SIMD strip- and box-kernel contract tests (see distance_simd.hpp).
//
// The dispatched kernel (AVX2/NEON when the host has it, scalar otherwise)
// returns an eps-decision bitmask and must match the scalar reference AND
// the per-point full-sum oracle bit-for-bit on every input — including
// exactly-eps boundary pairs (eps2 values chosen to land exactly on a
// point's squared distance), denormals, huge magnitudes, and partial final
// strips. The kernels abandon a lane's accumulation once its partial sum
// exceeds eps2; these tests pin that the abandonment never changes a
// decision. Cluster labels must not depend on which variant ran. The
// forced-scalar ctest cell (test_distance_kernels_scalar, SDB_SIMD=scalar in
// the environment) re-runs this whole binary with dispatch pinned to the
// fallback, so both sides of every comparison are exercised on SIMD hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "core/dbscan_seq.hpp"
#include "geom/distance.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb {
namespace {

/// Oracle mask: full-sum squared distance per lane (same ascending-d unfused
/// accumulation as the kernels), compared against eps2 with <= — the
/// decision every variant must reproduce regardless of how early it
/// abandons a lane.
u32 oracle_mask(std::span<const double> q,
                const std::vector<std::vector<double>>& rows, size_t pos,
                size_t count, double eps2) {
  u32 mask = 0;
  for (size_t j = 0; j < count; ++j) {
    if (squared_distance_uncounted(q, rows[pos + j]) <= eps2) {
      mask |= u32{1} << j;
    }
  }
  return mask;
}

/// Adversarial coordinate rows for one strip block: exact duplicates of the
/// query, partners offset by exactly eps along one axis, denormal and huge
/// magnitudes, negative zeros, and plain random values.
std::vector<std::vector<double>> adversarial_rows(size_t n, size_t dim,
                                                  double eps,
                                                  std::span<const double> q,
                                                  Rng& rng) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    switch (i % 6) {
      case 0:  // exact duplicate of q -> distance exactly 0
        p.assign(q.begin(), q.end());
        break;
      case 1:  // exactly eps along one axis -> d2 lands on eps^2
        p.assign(q.begin(), q.end());
        p[rng.uniform_index(dim)] += eps;
        break;
      case 2:  // denormal coordinates
        for (auto& x : p) x = 1e-310;
        break;
      case 3:  // huge magnitudes (squares near the overflow edge)
        for (auto& x : p) x = (rng.uniform(0.0, 1.0) < 0.5 ? -1e150 : 1e150);
        break;
      case 4:  // negative zero vs positive zero
        for (auto& x : p) x = -0.0;
        break;
      default:
        for (auto& x : p) x = rng.uniform(-100.0, 100.0);
        break;
    }
    rows.push_back(std::move(p));
  }
  return rows;
}

class StripKernelBitExact : public ::testing::TestWithParam<size_t> {};

TEST_P(StripKernelBitExact, MatchesScalarReferenceAndPerPointLoop) {
  const size_t dim = GetParam();
  const double eps = 25.0;
  Rng rng(1234 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-100.0, 100.0);

  // Two full blocks plus a partial one, every lane offset exercised below.
  const size_t n = 2 * kDistanceStrip + 7;
  const auto rows = adversarial_rows(n, dim, eps, q, rng);
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  // Thresholds that make the decision a one-ulp question: 0 (only exact
  // duplicates pass), eps^2 exactly (the offset-by-eps partners land ON the
  // boundary), one ulp below it (they must flip out), exact squared
  // distances of individual rows (<= must include them), tiny and huge.
  std::vector<double> eps2s = {0.0, eps * eps,
                               std::nextafter(eps * eps, 0.0), 1e-310, 1e5,
                               1e300};
  for (size_t i = 0; i < n; i += 5) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }

  const simd::StripKernelFn dispatched = simd::detail::strip_kernel();
  for (const double eps2 : eps2s) {
    if (!std::isfinite(eps2)) continue;  // huge-coordinate rows overflow d2
    for (size_t pos = 0; pos < n;) {
      const size_t lane = pos % kDistanceStrip;
      const size_t count = std::min(kDistanceStrip - lane, n - pos);
      const double* lanes = strip_lane(strips.data(), pos, dim);
      const u32 got = dispatched(q.data(), dim, eps2, lanes, count);
      const u32 ref = simd::detail::strip_scalar(q.data(), dim, eps2, lanes,
                                                 count);
      const u32 want = oracle_mask(q, rows, pos, count, eps2);
      EXPECT_EQ(got, ref) << "dispatched vs strip_scalar: dim=" << dim
                          << " pos=" << pos << " eps2=" << eps2;
      EXPECT_EQ(got, want) << "dispatched vs full-sum oracle: dim=" << dim
                           << " pos=" << pos << " eps2=" << eps2;
      pos += count;
    }
  }
}

TEST_P(StripKernelBitExact, EveryLaneOffsetAndCount) {
  // A scan may enter a block at any lane and take any count up to the block
  // end — sweep them all, checking masks and that no bit at or past `count`
  // is ever set.
  const size_t dim = GetParam();
  const double eps = 4.0;
  Rng rng(99 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-10.0, 10.0);

  const size_t n = kDistanceStrip;
  const auto rows = adversarial_rows(n, dim, eps, q, rng);
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  const simd::StripKernelFn dispatched = simd::detail::strip_kernel();
  for (const double eps2 : {0.0, eps * eps, 1e4}) {
    for (size_t lane = 0; lane < kDistanceStrip; ++lane) {
      for (size_t count = 1; count <= kDistanceStrip - lane; ++count) {
        const u32 got = dispatched(q.data(), dim, eps2,
                                   strip_lane(strips.data(), lane, dim),
                                   count);
        const u32 want = oracle_mask(q, rows, lane, count, eps2);
        EXPECT_EQ(got, want)
            << "lane=" << lane << " count=" << count << " eps2=" << eps2;
        if (count < 32) {
          EXPECT_EQ(got >> count, 0u)
              << "mask bit at/past count: lane=" << lane
              << " count=" << count << " eps2=" << eps2;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, StripKernelBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64, 96, 128));

// ---------------------------------------------------------------------------
// Partial-distance abandonment at high dimension. The probe schedule
// (abandon_probe_due) checks the accumulated partial sum at fixed depths;
// the d >= 64 regression was a stride that skipped the late probes, so
// far-away rows burned the whole row before abandoning — and one variant's
// probe placement disagreed with another's mask on boundary eps2 values.
// These fixtures make abandonment THE common case and require bit-identical
// masks against both the scalar reference and the full-sum oracle.
// ---------------------------------------------------------------------------

class AbandonmentHighDim : public ::testing::TestWithParam<size_t> {};

TEST_P(AbandonmentHighDim, AllFarRowsMatchScalarBitExactly) {
  const size_t dim = GetParam();
  Rng rng(5150 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-1.0, 1.0);

  // Rows engineered to cross eps2 at a controlled depth: the first
  // `cross_at` coordinates equal q's (contributing 0), the rest differ by
  // 10 each. Sweeping cross_at over the probe depths (1, 3, 7, 15, 31, 63,
  // 127) exercises every abandonment point of the schedule; the remaining
  // lanes are near-duplicates that must survive to the end.
  const size_t n = 2 * kDistanceStrip + 5;
  std::vector<std::vector<double>> rows;
  const size_t depths[] = {0, 1, 3, 7, 15, 31, 47, 63, 95, 127};
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(q.begin(), q.end());
    if (i % 3 == 0) {
      // near row: tiny perturbation in the LAST coordinate only — the
      // decision is made at the very end of the accumulation.
      p[dim - 1] += 0.5;
    } else {
      const size_t cross = std::min(depths[i % 10], dim - 1);
      for (size_t d = cross; d < dim; ++d) p[d] += 10.0;
    }
    rows.push_back(std::move(p));
  }
  std::vector<double> strips(strip_padded_len(n, dim), 0.0);
  for (size_t i = 0; i < n; ++i) strip_store_row(strips.data(), i, rows[i]);

  // eps2 ladder: thresholds between the per-depth crossing sums, so each
  // value abandons a different subset of rows at a different probe.
  std::vector<double> eps2s = {0.24, 0.26, 1.0, 100.0 - 1e-9, 100.0,
                               100.0 + 1e-9, 1600.0, 1e4, 1e6};
  for (size_t i = 0; i < n; i += 7) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }

  const simd::StripKernelFn dispatched = simd::detail::strip_kernel();
  for (const double eps2 : eps2s) {
    for (size_t pos = 0; pos < n;) {
      const size_t count = std::min(kDistanceStrip - pos % kDistanceStrip,
                                    n - pos);
      const double* lanes = strip_lane(strips.data(), pos, dim);
      const u32 got = dispatched(q.data(), dim, eps2, lanes, count);
      const u32 ref = simd::detail::strip_scalar(q.data(), dim, eps2, lanes,
                                                 count);
      const u32 want = oracle_mask(q, rows, pos, count, eps2);
      EXPECT_EQ(got, ref) << "dim=" << dim << " pos=" << pos
                          << " eps2=" << eps2;
      EXPECT_EQ(got, want) << "dim=" << dim << " pos=" << pos
                           << " eps2=" << eps2;
      pos += count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AbandonmentHighDim,
                         ::testing::Values<size_t>(64, 65, 96, 128));

// ---------------------------------------------------------------------------
// Index-level regression: partial final strips / strip-boundary counts.
// ---------------------------------------------------------------------------

class StripBoundarySizes : public ::testing::TestWithParam<size_t> {};

TEST_P(StripBoundarySizes, ReorderedTreeMatchesLegacyAndBruteExactly) {
  // Dataset sizes straddling the strip width: 1, kDistanceStrip +- 1, etc.
  // With leaf_size >= n the whole dataset is one leaf whose build
  // permutation is the identity, so the query IS one kernel call with a
  // partial final strip — the tail-handling regression this suite pins
  // down. The reference is the scalar gather loop the strip layout
  // replaced, restated here: rows in id order, one distance_eval per row.
  // The tree and brute force must both reproduce its ids, order and
  // charges exactly.
  const size_t n = GetParam();
  const double eps = 30.0;
  Rng rng(7 + static_cast<u64>(n));
  PointSet ps(3);
  std::vector<double> p(3);
  for (size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 60.0);
    ps.add(p);
  }
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
  ASSERT_EQ(tree.node_count(), 1u);
  const BruteForceIndex brute(ps);

  for (size_t qi = 0; qi < n; ++qi) {
    const auto q = ps[static_cast<PointId>(qi)];
    std::vector<PointId> want;
    for (PointId i = 0; i < static_cast<PointId>(n); ++i) {
      if (squared_distance_uncounted(q, ps[i]) <= eps * eps) want.push_back(i);
    }
    WorkCounters wc_tree, wc_brute;
    std::vector<PointId> out_tree, out_brute;
    {
      ScopedCounters scope(&wc_tree);
      tree.range_query(q, eps, out_tree);
    }
    {
      ScopedCounters scope(&wc_brute);
      brute.range_query(q, eps, out_brute);
    }
    EXPECT_EQ(out_tree, want) << "n=" << n << " q=" << qi;
    EXPECT_EQ(wc_tree.distance_evals, n) << "n=" << n << " q=" << qi;
    EXPECT_EQ(wc_tree.tree_nodes, 1u) << "n=" << n << " q=" << qi;
    EXPECT_EQ(out_brute, want) << "n=" << n << " q=" << qi;
    EXPECT_EQ(wc_brute.distance_evals, n) << "n=" << n << " q=" << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(AroundStripWidth, StripBoundarySizes,
                         ::testing::Values<size_t>(1, kDistanceStrip - 1,
                                                   kDistanceStrip,
                                                   kDistanceStrip + 1,
                                                   2 * kDistanceStrip - 1,
                                                   2 * kDistanceStrip + 1));

// ---------------------------------------------------------------------------
// Budgeted queries through the strip kernel (strip_scan_budgeted): hits,
// order, distance_evals, and the early-stop row must be identical across
// indexes, kernel variants, and strip-boundary sizes.
// ---------------------------------------------------------------------------

TEST(BudgetedStripScan, BitIdenticalAcrossVariantsAndLayouts) {
  // Dataset sizes straddling the strip width so the budget can fire inside
  // a full block, exactly at a block edge, and in a ragged tail; budgets
  // straddling the typical hit counts so both the "whole segment consumed"
  // and the "stop at bit j, charge j+1 rows" reconstruction paths run.
  for (const size_t n : {size_t{1}, kDistanceStrip - 1, kDistanceStrip,
                         kDistanceStrip + 1, 3 * kDistanceStrip + 5,
                         size_t{400}}) {
    Rng rng(31 + static_cast<u64>(n));
    PointSet ps(4);
    std::vector<double> p(4);
    for (size_t i = 0; i < n; ++i) {
      for (auto& x : p) x = rng.uniform(0.0, 50.0);
      ps.add(p);
    }
    const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
    const BruteForceIndex brute(ps);

    for (const u64 max_neighbors : {u64{1}, u64{3}, u64{31}, u64{32}, u64{33},
                                    u64{64}}) {
      QueryBudget budget;
      budget.max_neighbors = max_neighbors;
      for (size_t qi = 0; qi < n; qi += (n > 64 ? 7 : 1)) {
        const auto q = ps[static_cast<PointId>(qi)];
        auto run = [&](const SpatialIndex& index) {
          WorkCounters wc;
          std::vector<PointId> hits;
          {
            ScopedCounters scope(&wc);
            index.range_query_budgeted(q, 20.0, budget, hits);
          }
          return std::make_pair(hits, wc.distance_evals);
        };
        // Kernel-vs-scalar parity on both strip layouts (tree order and id
        // order). The exact stop row and charge are pinned against a scalar
        // loop by BudgetLaws.BruteForceBudgetedEqualsScalarLoop, the tree's
        // visit order by KdTree.QueryDigestPinnedToParent.
        for (const SpatialIndex* index :
             {static_cast<const SpatialIndex*>(&tree),
              static_cast<const SpatialIndex*>(&brute)}) {
          const auto dispatched = run(*index);
          simd::force_scalar(true);
          const auto scalar = run(*index);
          simd::force_scalar(false);
          EXPECT_EQ(dispatched.first, scalar.first)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
          EXPECT_EQ(dispatched.second, scalar.second)
              << index->name() << " n=" << n << " q=" << qi
              << " max_neighbors=" << max_neighbors;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// kNN through the kernel filter: the heap-refinement path masks leaf
// candidates with the current worst heap distance and must return exactly
// the forced-scalar run's neighbors and charges, and the brute-force
// oracle's neighbors.
// ---------------------------------------------------------------------------

TEST(KnnKernelFilter, BitIdenticalScalarVsSimdAndLegacyLayout) {
  // The deleted row-gather layout ran every leaf through the scalar loop.
  // Its hits are the unique (d2, id) kNN, which the brute-force oracle
  // computes independently; its charges over this fixture are pinned.
#ifndef __GLIBCXX__
  GTEST_SKIP() << "pinned values assume libstdc++'s random distributions";
#endif
  Rng rng(4242);
  synth::GaussianMixtureConfig cfg;
  cfg.n = 1200;
  cfg.dim = 6;
  cfg.clusters = 4;
  cfg.sigma = 3.0;
  cfg.box_side = 80.0;
  const PointSet ps = synth::gaussian_clusters(cfg, rng);
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});
  const BruteForceIndex brute(ps);
  const QueryBudget exact;

  u64 evals = 0;
  u64 nodes = 0;
  for (const size_t k : {size_t{1}, size_t{4}, size_t{33}, size_t{200}}) {
    for (PointId q = 0; q < 60; ++q) {
      auto run = [&] {
        WorkCounters wc;
        std::vector<KnnHit> hits;
        {
          ScopedCounters scope(&wc);
          tree.knn_query(ps[q], k, exact, hits);
        }
        return std::make_tuple(hits, wc.distance_evals, wc.tree_nodes);
      };
      const auto dispatched = run();
      simd::force_scalar(true);
      const auto scalar = run();
      simd::force_scalar(false);
      EXPECT_EQ(dispatched, scalar) << "k=" << k << " q=" << q;
      std::vector<KnnHit> oracle;
      brute.knn_query(ps[q], k, exact, oracle);
      EXPECT_EQ(std::get<0>(dispatched), oracle) << "k=" << k << " q=" << q;
      evals += std::get<1>(dispatched);
      nodes += std::get<2>(dispatched);
    }
  }
  EXPECT_EQ(evals, 162600u);
  EXPECT_EQ(nodes, 2804u);
}

TEST(KnnKernelFilter, HighDimAndTiesMatchScalarAndBruteOracle) {
  // The two fixed bugs this pins:
  //  * d=128 and k > leaf occupancy: the heap-cutoff filter masked leaf
  //    candidates with the entry-time k-th distance; with an unfilled heap
  //    (k larger than any single leaf) or late-probing dims the filter
  //    must pass EVERYTHING through to the exact refinement, never drop a
  //    true neighbor.
  //  * ties at exactly the k-th distance: duplicated points and partners at
  //    identical d2 must resolve by point id, identically on every variant.
  Rng rng(8128);
  PointSet ps(128);
  std::vector<double> p(128);
  for (int i = 0; i < 500; ++i) {
    for (auto& x : p) x = rng.uniform(-5.0, 5.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.25) {
      ps.add(p);  // exact duplicate: d2 tie at every query
    } else if (roll < 0.5) {
      // Two partners at the same d2 from p, different ids: a tie exactly
      // at the k-th slot whenever the heap boundary lands on them.
      std::vector<double> partner = p;
      partner[0] += 2.0;
      ps.add(partner);
      partner = p;
      partner[0] -= 2.0;
      ps.add(partner);
    }
  }
  // Small leaves so k=64 exceeds any single leaf's occupancy.
  const KdTree tree(ps, KdTreeOptions{.leaf_size = 8, .build_threads = 1});
  const BruteForceIndex brute(ps);
  const QueryBudget exact;

  for (const size_t k : {size_t{1}, size_t{9}, size_t{64}, size_t{200}}) {
    for (PointId q = 0; q < 50; ++q) {
      std::vector<KnnHit> oracle;
      brute.knn_query(ps[q], k, exact, oracle);
      std::vector<KnnHit> hits;
      tree.knn_query(ps[q], k, exact, hits);
      EXPECT_EQ(hits, oracle) << "dispatched k=" << k << " q=" << q;
      hits.clear();
      simd::force_scalar(true);
      tree.knn_query(ps[q], k, exact, hits);
      simd::force_scalar(false);
      EXPECT_EQ(hits, oracle) << "scalar k=" << k << " q=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Box kernel: a 32-lane query block against one kd-tree node box. Its
// decisions must equal the kd-tree's scalar box test bit for bit.
// ---------------------------------------------------------------------------

/// The kd-tree's box test (KdTree::box_distance2) as a full sum: ascending
/// d, unfused, max(max(lo - q, q - hi), 0)^2.
double box_distance2_full(std::span<const double> q,
                          const std::vector<double>& box) {
  double s = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    const double diff =
        std::max(std::max(box[2 * d] - q[d], q[d] - box[2 * d + 1]), 0.0);
    s += diff * diff;
  }
  return s;
}

class BoxKernelBitExact : public ::testing::TestWithParam<size_t> {};

TEST_P(BoxKernelBitExact, MatchesScalarBoxTest) {
  const size_t dim = GetParam();
  Rng rng(4242 + static_cast<u64>(dim));
  // Boxes: a plain one, a degenerate point box, one with -0.0 bounds and
  // one at +-1e150.
  std::vector<std::vector<double>> boxes;
  for (int kind = 0; kind < 4; ++kind) {
    std::vector<double> box(2 * dim);
    for (size_t d = 0; d < dim; ++d) {
      double lo = rng.uniform(-10.0, 10.0);
      double hi = lo + rng.uniform(0.0, 5.0);
      if (kind == 1) hi = lo;
      if (kind == 2) {
        lo = -0.0;
        hi = d % 2 == 0 ? 0.0 : 3.0;
      }
      if (kind == 3) {
        lo = -1e150;
        hi = 1e150;
        if (d % 3 == 1) lo = hi = 1e150;
      }
      box[2 * d] = lo;
      box[2 * d + 1] = hi;
    }
    boxes.push_back(std::move(box));
  }

  const simd::BoxKernelFn dispatched = simd::detail::box_kernel();
  for (const auto& box : boxes) {
    // 32 query lanes: inside, on a face, exactly eps past a face along one
    // axis, past a corner, at -0.0, at +-1e150, and random.
    const double eps = 2.5;
    std::vector<std::vector<double>> qs;
    for (size_t j = 0; j < kDistanceStrip; ++j) {
      std::vector<double> q(dim);
      for (size_t d = 0; d < dim; ++d) {
        const double lo = box[2 * d];
        const double hi = box[2 * d + 1];
        switch (j % 8) {
          case 0: q[d] = lo + (hi - lo) / 2; break;       // inside
          case 1: q[d] = d % 2 == 0 ? lo : hi; break;     // on faces
          case 2: q[d] = d == 0 ? hi + eps : hi; break;   // eps past a face
          case 3: q[d] = lo - eps / std::sqrt(static_cast<double>(dim));
                  break;                                   // past a corner
          case 4: q[d] = -0.0; break;
          case 5: q[d] = d % 2 == 0 ? 1e150 : -1e150; break;
          default: q[d] = rng.uniform(-20.0, 20.0); break;
        }
      }
      qs.push_back(std::move(q));
    }
    std::vector<double> soa(kDistanceStrip * dim);
    for (size_t j = 0; j < kDistanceStrip; ++j) {
      for (size_t d = 0; d < dim; ++d) soa[d * kDistanceStrip + j] = qs[j][d];
    }
    // Thresholds on each lane's exact box distance and one ulp below it
    // (the exactly-eps corner), plus the usual fixed ones.
    std::vector<double> eps2s = {0.0, eps * eps,
                                 std::nextafter(eps * eps, 0.0), 1e-310,
                                 1e300};
    for (size_t j = 0; j < kDistanceStrip; ++j) {
      const double d2 = box_distance2_full(qs[j], box);
      if (!std::isfinite(d2)) continue;
      eps2s.push_back(d2);
      eps2s.push_back(std::nextafter(d2, 0.0));
    }
    // Active masks: the full block, partial blocks, sparse and single lanes.
    std::vector<u32> actives = {~u32{0}, 0u, 1u, u32{1} << 31, 0x55555555u,
                                0x80000001u};
    for (u32 k = 1; k < kDistanceStrip; k += 5) {
      actives.push_back((u32{1} << k) - 1);
    }
    for (int r = 0; r < 4; ++r) {
      actives.push_back(static_cast<u32>(rng.uniform_index(1ull << 32)));
    }
    for (const double eps2 : eps2s) {
      for (const u32 active : actives) {
        u32 want = 0;
        for (size_t j = 0; j < kDistanceStrip; ++j) {
          if ((active >> j & 1) != 0 && box_distance2_full(qs[j], box) <= eps2) {
            want |= u32{1} << j;
          }
        }
        const u32 got = dispatched(soa.data(), dim, eps2, box.data(), active);
        const u32 ref =
            simd::detail::box_scalar(soa.data(), dim, eps2, box.data(), active);
        EXPECT_EQ(ref, want) << "box_scalar vs oracle: dim=" << dim
                             << " eps2=" << eps2 << " active=" << active;
        EXPECT_EQ(got, want) << "dispatched vs oracle: dim=" << dim
                             << " eps2=" << eps2 << " active=" << active;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, BoxKernelBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64));

// ---------------------------------------------------------------------------
// Dispatch control.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ForceScalarPinsFallbackAndResultsAreIdentical) {
  // Whatever the host dispatches, force_scalar(true) must land on the
  // scalar fallback, and a query batch run on each side must agree bit-
  // for-bit (same hits, same order, same counters).
  const PointSet ps = [] {
    Rng rng(555);
    synth::GaussianMixtureConfig cfg;
    cfg.n = 800;
    cfg.dim = 10;
    cfg.clusters = 3;
    cfg.sigma = 4.0;
    cfg.box_side = 60.0;
    return synth::gaussian_clusters(cfg, rng);
  }();
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});

  auto run_queries = [&] {
    std::vector<PointId> all;
    WorkCounters wc;
    ScopedCounters scope(&wc);
    std::vector<PointId> hits;
    for (PointId q = 0; q < 100; ++q) {
      hits.clear();
      tree.range_query(ps[q], 9.0, hits);
      all.insert(all.end(), hits.begin(), hits.end());
    }
    return std::make_pair(all, wc.distance_evals);
  };

  const auto dispatched = run_queries();
  simd::force_scalar(true);
  EXPECT_EQ(simd::active_variant(), simd::KernelVariant::kScalar);
  EXPECT_TRUE(simd::scalar_forced());
  EXPECT_EQ(simd::detail::box_kernel(), &simd::detail::box_scalar);
  const auto scalar = run_queries();
  simd::force_scalar(false);
  EXPECT_FALSE(simd::scalar_forced());

  EXPECT_EQ(dispatched.first, scalar.first);
  EXPECT_EQ(dispatched.second, scalar.second);
}

TEST(KernelDispatch, EnvVarPinsScalar) {
  // The forced-scalar ctest cell runs with SDB_SIMD=scalar in the
  // environment; in that cell the dispatcher must never leave the fallback.
  const char* env = std::getenv("SDB_SIMD");
  if (env == nullptr) {
    GTEST_SKIP() << "SDB_SIMD not set; covered by the forced-scalar cell";
  }
  EXPECT_EQ(simd::active_variant(), simd::KernelVariant::kScalar)
      << "SDB_SIMD=" << env << " must pin the scalar fallback";
  EXPECT_EQ(simd::detail::box_kernel(), &simd::detail::box_scalar);
}

TEST(KernelDispatch, VariantNamesAreStable) {
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kAvx2), "avx2");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kAvx512), "avx512");
  EXPECT_STREQ(simd::variant_name(simd::KernelVariant::kNeon), "neon");
  EXPECT_NE(simd::active_variant_name(), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: cluster labels may not depend on the kernel.
// ---------------------------------------------------------------------------

TEST(KernelDeterminism, ClusterLabelsByteIdenticalScalarVsSimd) {
  // Exactly-eps pairs make eps-membership a one-ulp question — if any
  // variant rounded differently, a boundary point would flip core/border
  // status and the labelings would diverge.
  Rng rng(2024);
  const double eps = 25.0;
  PointSet ps(10);
  std::vector<double> p(10), partner(10);
  for (int i = 0; i < 600; ++i) {
    for (auto& x : p) x = rng.uniform(0.0, 200.0);
    ps.add(p);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.2) {
      partner = p;
      partner[rng.uniform_index(10)] += eps;
      ps.add(partner);
    } else if (roll < 0.3) {
      ps.add(p);  // duplicate
    }
  }
  const dbscan::DbscanParams params{eps, 4};
  const KdTree tree(ps, KdTreeOptions{.build_threads = 1});

  const auto with_dispatch = dbscan::dbscan_sequential(ps, tree, params);
  simd::force_scalar(true);
  const auto with_scalar = dbscan::dbscan_sequential(ps, tree, params);
  simd::force_scalar(false);

  EXPECT_EQ(with_dispatch.clustering.labels, with_scalar.clustering.labels);
  EXPECT_EQ(with_dispatch.core_points, with_scalar.core_points);
  EXPECT_EQ(with_dispatch.counters.distance_evals,
            with_scalar.counters.distance_evals);
  EXPECT_EQ(with_dispatch.counters.tree_nodes,
            with_scalar.counters.tree_nodes);
}

}  // namespace
}  // namespace sdb
