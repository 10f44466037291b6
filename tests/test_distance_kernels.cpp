// SIMD strip- and box-kernel contract tests (see distance_simd.hpp).
//
// The strip kernels compute float32 sums and return two bounded masks per
// query (sure-in and maybe); the caller rechecks the maybe-only lanes with
// the double loop. These tests pin the contract that matters: for every
// variant, tile width T = 1..4, lane offset and count, the masks respect
// the DESIGN.md §14 bound (sure lanes are in, every in lane is maybe) and
// the final decisions equal the double full-sum oracle bit for bit —
// including exactly-eps pairs, one ulp either side of eps^2, large
// coordinate offsets, denormals, -0.0 and +-1e150 (where the bound is not
// usable and every lane takes the recheck). The box kernel's decisions are
// still bit-identical to the scalar box test, and cluster labels must not
// depend on which variant ran. The forced-scalar ctest cell
// (test_distance_kernels_scalar, SDB_SIMD=scalar in the environment) re-runs
// this whole binary with dispatch pinned to the fallback, so both sides of
// every comparison are exercised on SIMD hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <utility>
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

using Rows = std::vector<std::vector<double>>;

/// Rows stored the way the kd-tree stores a leaf: float offsets from the
/// centre of the rows' box, in strip blocks.
struct TestStrip {
  TestStrip(const Rows& rows, size_t dim) : dim(dim), centre(dim) {
    std::vector<double> box(2 * dim);
    for (size_t d = 0; d < dim; ++d) {
      box[2 * d] = INFINITY;
      box[2 * d + 1] = -INFINITY;
      for (const auto& r : rows) {
        box[2 * d] = std::min(box[2 * d], r[d]);
        box[2 * d + 1] = std::max(box[2 * d + 1], r[d]);
      }
    }
    half_extent = box_centre(box.data(), dim, centre.data());
    data.assign(strip_padded_len(rows.size(), dim), 0.0f);
    for (size_t i = 0; i < rows.size(); ++i) {
      strip_store_row(data.data(), i, rows[i], centre.data());
    }
  }
  size_t dim;
  std::vector<float> data;
  std::vector<double> centre;
  double half_extent = 0.0;
};

/// Oracle: bit j set iff lane j of `active` in the block at `base` has a
/// double full-sum squared distance (the repo's ascending-d unfused loop)
/// <= eps2.
u32 oracle_mask(std::span<const double> q, const Rows& rows, size_t base,
                u32 active, double eps2) {
  u32 mask = 0;
  for (u32 a = active; a != 0; a &= a - 1) {
    const int j = std::countr_zero(a);
    if (squared_distance_uncounted(q, rows[base + j]) <= eps2) {
      mask |= u32{1} << j;
    }
  }
  return mask;
}

/// One kernel call for the tile `qs` (1..4 query rows) over the `active`
/// lanes of the block at `base`, then the double recheck. Checks the mask
/// contract against the oracle and returns whether the thresholds were
/// usable; `finals` gets each query's final decisions.
bool decide_tile(simd::StripKernelFn kernel, const TestStrip& strip,
                 const Rows& rows, const std::vector<const double*>& qs,
                 double eps2, size_t base, u32 active,
                 std::vector<u32>& finals) {
  const size_t dim = strip.dim;
  const simd::StripThresholds th =
      simd::StripSlack(eps2, dim).at(strip.half_extent);
  std::vector<float> qf(qs.size() * dim);
  simd::StripMasks masks[kStripTile];
  for (size_t t = 0; t < qs.size(); ++t) {
    masks[t] = {0, active};
    strip_relative({qs[t], dim}, strip.centre.data(), qf.data() + t * dim, 1);
  }
  if (th.usable) {
    EXPECT_LE(th.sure_le, th.maybe_le);
    kernel(qf.data(), qs.size(), dim, th.sure_le, th.maybe_le,
           strip_block(strip.data.data(), base, dim), active, masks);
  }
  finals.clear();
  for (size_t t = 0; t < qs.size(); ++t) {
    const std::span<const double> q(qs[t], dim);
    const u32 want = oracle_mask(q, rows, base, active, eps2);
    const simd::StripMasks& m = masks[t];
    EXPECT_EQ(m.sure & ~m.maybe, 0u) << "sure lane outside maybe";
    EXPECT_EQ(m.maybe & ~active, 0u) << "mask bit outside active lanes";
    EXPECT_EQ(m.sure & ~want, 0u) << "sure lane the double loop rejects";
    EXPECT_EQ(want & ~m.maybe, 0u) << "in lane missing from maybe";
    finals.push_back(strip_recheck(m, q, eps2, [&](int j) {
      return std::span<const double>(rows[base + j]);
    }));
    EXPECT_EQ(finals.back(), want) << "final decisions vs double oracle";
  }
  return th.usable;
}

/// Every block of `rows` for every query in `queries`, tiled 1..4 wide with
/// each query at every tile slot, on the dispatched and the scalar kernel.
/// Returns how many tile calls had usable thresholds.
size_t sweep_blocks(const TestStrip& strip, const Rows& rows,
                    const Rows& queries, double eps2) {
  size_t usable = 0;
  std::vector<u32> finals;
  for (const simd::StripKernelFn kernel :
       {simd::detail::strip_kernel(), &simd::detail::strip_scalar}) {
    for (size_t base = 0; base < rows.size(); base += kDistanceStrip) {
      const u32 active =
          strip_lanes(0, std::min(kDistanceStrip, rows.size() - base));
      for (size_t nq = 1; nq <= kStripTile; ++nq) {
        for (size_t first = 0; first < queries.size(); ++first) {
          std::vector<const double*> tile;
          for (size_t t = 0; t < nq; ++t) {
            tile.push_back(queries[(first + t) % queries.size()].data());
          }
          usable += decide_tile(kernel, strip, rows, tile, eps2, base, active,
                                finals)
                        ? 1
                        : 0;
        }
      }
    }
  }
  return usable;
}

/// Adversarial coordinate rows: exact duplicates of the query, partners
/// offset by exactly eps along one axis, denormal magnitudes, negative
/// zeros, plain random values and — when `huge` — +-1e150 rows.
Rows adversarial_rows(size_t n, size_t dim, double eps,
                      std::span<const double> q, Rng& rng, bool huge) {
  Rows rows;
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
        for (auto& x : p) {
          x = huge ? (rng.uniform(0.0, 1.0) < 0.5 ? -1e150 : 1e150)
                   : rng.uniform(-100.0, 100.0);
        }
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
  // Final decisions (kernel masks + double recheck) equal the double
  // full-sum oracle on the dispatched and the scalar kernel, at thresholds
  // that make the decision a one-ulp question: 0 (only exact duplicates
  // pass), eps^2 exactly (the offset-by-eps partners land ON the boundary),
  // one ulp below it (they must flip out), exact squared distances of
  // individual rows (<= must include them), tiny and huge.
  const size_t dim = GetParam();
  const double eps = 25.0;
  Rng rng(1234 + static_cast<u64>(dim));
  std::vector<double> q(dim);
  for (auto& x : q) x = rng.uniform(-100.0, 100.0);
  Rows queries = {q};
  for (int r = 0; r < 3; ++r) {
    for (auto& x : q) x = rng.uniform(-100.0, 100.0);
    queries.push_back(q);
  }
  queries.push_back(std::vector<double>(dim, -0.0));
  queries.push_back(std::vector<double>(dim, 1e150));  // F overflows: out

  // Two full blocks plus a partial one. Without the +-1e150 rows the strip
  // takes the kernel path; with them the bound is unusable and every lane
  // takes the recheck.
  const size_t n = 2 * kDistanceStrip + 7;
  for (const bool huge : {false, true}) {
    const Rows rows = adversarial_rows(n, dim, eps, queries[0], rng, huge);
    const TestStrip strip(rows, dim);
    std::vector<double> eps2s = {0.0, eps * eps,
                                 std::nextafter(eps * eps, 0.0), 1e-310, 1e5,
                                 1e300};
    for (size_t i = 0; i < n; i += 5) {
      eps2s.push_back(squared_distance_uncounted(queries[0], rows[i]));
    }
    for (const double eps2 : eps2s) {
      if (!std::isfinite(eps2)) continue;  // huge rows overflow d2
      const size_t usable = sweep_blocks(strip, rows, queries, eps2);
      if (huge || eps2 > 1e38) {
        EXPECT_EQ(usable, 0u) << "dim=" << dim << " eps2=" << eps2;
      } else {
        EXPECT_GT(usable, 0u) << "dim=" << dim << " eps2=" << eps2;
      }
    }
  }
}

TEST_P(StripKernelBitExact, EveryLaneOffsetAndCount) {
  // A leaf may enter a block at any lane and leave it at any lane: sweep
  // every active range of one block, every tile width and every tile slot.
  const size_t dim = GetParam();
  const double eps = 4.0;
  Rng rng(99 + static_cast<u64>(dim));
  Rows queries;
  for (int r = 0; r < 4; ++r) {
    std::vector<double> q(dim);
    for (auto& x : q) x = rng.uniform(-10.0, 10.0);
    queries.push_back(std::move(q));
  }
  const Rows rows =
      adversarial_rows(kDistanceStrip, dim, eps, queries[0], rng, false);
  const TestStrip strip(rows, dim);

  std::vector<u32> finals;
  const simd::StripKernelFn dispatched = simd::detail::strip_kernel();
  for (const double eps2 : {0.0, eps * eps, 1e4}) {
    for (size_t lane = 0; lane < kDistanceStrip; ++lane) {
      for (size_t count = 1; count <= kDistanceStrip - lane; ++count) {
        const u32 active = strip_lanes(lane, lane + count);
        for (size_t nq = 1; nq <= kStripTile; ++nq) {
          for (size_t slot = 0; slot < nq; ++slot) {
            std::vector<const double*> tile;
            for (size_t t = 0; t < nq; ++t) {
              tile.push_back(queries[(t + 4 - slot) % 4].data());
            }
            decide_tile(dispatched, strip, rows, tile, eps2, 0, active,
                        finals);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, StripKernelBitExact,
                         ::testing::Values<size_t>(1, 2, 3, 10, 64, 96, 128));

// ---------------------------------------------------------------------------
// Partial-distance abandonment at high dimension. The probe schedule
// (abandon_probe_due) checks the accumulated partial sums at fixed depths.
// These fixtures make abandonment THE common case — rows that cross the
// threshold at every probe depth, next to near-duplicates decided only by
// their last coordinate — and require the final decisions to equal the
// double oracle for every tile width.
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
  Rows rows;
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
  const TestStrip strip(rows, dim);
  Rows queries = {q};
  for (int r = 0; r < 3; ++r) {
    std::vector<double> far(q.begin(), q.end());
    for (auto& x : far) x += 1000.0 * (r + 1);  // abandons at the first probe
    queries.push_back(std::move(far));
  }

  // eps2 ladder: thresholds between the per-depth crossing sums, so each
  // value abandons a different subset of rows at a different probe.
  std::vector<double> eps2s = {0.24, 0.26, 1.0, 100.0 - 1e-9, 100.0,
                               100.0 + 1e-9, 1600.0, 1e4, 1e6};
  for (size_t i = 0; i < n; i += 7) {
    eps2s.push_back(squared_distance_uncounted(q, rows[i]));
  }
  for (const double eps2 : eps2s) {
    EXPECT_GT(sweep_blocks(strip, rows, queries, eps2), 0u)
        << "dim=" << dim << " eps2=" << eps2;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AbandonmentHighDim,
                         ::testing::Values<size_t>(64, 65, 96, 128));

// ---------------------------------------------------------------------------
// Bound fixtures for the float32 contract (DESIGN.md §14): the places where
// a float sum is furthest from the double one, each checked through the
// same decide/recheck path the indexes use.
// ---------------------------------------------------------------------------

TEST(StripSlackBounds, ExactlyEpsAndOneUlpEitherSide) {
  // Partners exactly eps away along one axis, and along a diagonal; the
  // threshold is each pair's own double d2, and one ulp below and above it.
  for (const size_t dim : {size_t{1}, size_t{3}, size_t{10}, size_t{64}}) {
    Rng rng(77 + static_cast<u64>(dim));
    const double eps = 0.75;
    std::vector<double> q(dim);
    for (auto& x : q) x = rng.uniform(-3.0, 3.0);
    Rows rows;
    for (size_t i = 0; i < kDistanceStrip + 9; ++i) {
      std::vector<double> p(q.begin(), q.end());
      if (i % 2 == 0) {
        p[i % dim] += (i % 4 == 0 ? eps : -eps);
      } else {
        for (auto& x : p) x += eps / std::sqrt(static_cast<double>(dim));
      }
      rows.push_back(std::move(p));
    }
    const TestStrip strip(rows, dim);
    const Rows queries = {q};
    for (size_t i = 0; i < rows.size(); i += 3) {
      const double d2 = squared_distance_uncounted(q, rows[i]);
      for (const double eps2 :
           {d2, std::nextafter(d2, 0.0), std::nextafter(d2, INFINITY),
            eps * eps}) {
        EXPECT_EQ(sweep_blocks(strip, rows, queries, eps2),
                  2 * 2 * kStripTile)
            << "dim=" << dim << " eps2=" << eps2;
      }
    }
  }
}

TEST(StripSlackBounds, LargeOffsetsWithSmallEps) {
  // Points near 1e6 and 1e12 with an eps far below the offset: the strip
  // stores offsets from its box centre, so the slack scales with the box,
  // not the offset, and almost every lane is decided without a recheck.
  for (const double offset : {1e6, 1e12}) {
    for (const size_t dim : {size_t{2}, size_t{10}}) {
      Rng rng(4 + static_cast<u64>(dim));
      const double step = offset * 0x1p-40;  // well above the double ulp
      const double eps = 3.0 * step;
      Rows rows;
      for (size_t i = 0; i < 3 * kDistanceStrip; ++i) {
        std::vector<double> p(dim);
        for (auto& x : p) {
          x = offset + step * static_cast<double>(rng.uniform_index(8));
        }
        rows.push_back(std::move(p));
      }
      const TestStrip strip(rows, dim);
      Rows queries(rows.begin(), rows.begin() + 4);
      queries[1][0] += eps;  // a partner exactly eps from row 1's position
      for (const double eps2 :
           {eps * eps, std::nextafter(eps * eps, 0.0), 4 * step * step}) {
        EXPECT_EQ(sweep_blocks(strip, rows, queries, eps2),
                  2 * 3 * kStripTile * queries.size())
            << "offset=" << offset << " dim=" << dim << " eps2=" << eps2;
      }
      // The thresholds sit within a relative ~1e-6 of eps^2.
      const simd::StripThresholds th =
          simd::StripSlack(eps * eps, dim).at(strip.half_extent);
      ASSERT_TRUE(th.usable);
      EXPECT_GT(th.sure_le, eps * eps * (1 - 1e-5));
      EXPECT_LT(th.maybe_le, eps * eps * (1 + 1e-5));
    }
  }
}

TEST(StripSlackBounds, DenormalsAndNegativeZero) {
  // Float underflow flushes these rows to (near) zero; the bound's
  // absolute term keeps the tiny thresholds honest.
  const size_t dim = 4;
  Rows rows;
  for (size_t i = 0; i < kDistanceStrip; ++i) {
    std::vector<double> p(dim);
    for (size_t d = 0; d < dim; ++d) {
      switch ((i + d) % 4) {
        case 0: p[d] = -0.0; break;
        case 1: p[d] = 0.0; break;
        case 2: p[d] = 1e-310 * static_cast<double>(i + 1); break;
        default: p[d] = -4.9e-324; break;
      }
    }
    rows.push_back(std::move(p));
  }
  const TestStrip strip(rows, dim);
  const Rows queries = {rows[0], rows[5], std::vector<double>(dim, -0.0),
                        std::vector<double>(dim, 1e-300)};
  for (const double eps2 : {0.0, 4.9e-324, 1e-320, 1e-310, 1e-300, 1.0}) {
    EXPECT_EQ(sweep_blocks(strip, rows, queries, eps2),
              2 * kStripTile * queries.size())
        << "eps2=" << eps2;
  }
}

TEST(StripSlackBounds, HugeMagnitudesTakeTheRecheck) {
  // +-1e150 rows: their float offsets overflow, so the bound is unusable
  // (s = +inf) and every lane is decided by the double recheck.
  const size_t dim = 3;
  Rows rows;
  for (size_t i = 0; i < kDistanceStrip; ++i) {
    rows.push_back({i % 2 == 0 ? 1e150 : -1e150, 1.0 * static_cast<double>(i),
                    i % 3 == 0 ? -1e150 : 0.0});
  }
  const TestStrip strip(rows, dim);
  EXPECT_FALSE(simd::StripSlack(1.0, dim).at(strip.half_extent).usable);
  const Rows queries = {rows[0], rows[1], {0.0, 0.0, 0.0}, {1e150, 2.0, 0.0}};
  for (const double eps2 : {0.0, 1.0, 1e300}) {
    EXPECT_EQ(sweep_blocks(strip, rows, queries, eps2), 0u);
  }
  // Non-finite thresholds are unusable too.
  EXPECT_FALSE(simd::StripSlack(INFINITY, dim).at(1.0).usable);
  EXPECT_FALSE(simd::StripSlack(NAN, dim).at(1.0).usable);
  EXPECT_FALSE(simd::StripSlack(1.0, dim).at(NAN).usable);
  EXPECT_FALSE(simd::StripSlack(3e38, dim).at(1.0).usable);
}

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
// Row kernel: one double query row against up to 32 double rows given by
// pointer (the kNN builders' filter). Its mask must hold every row the
// ascending-d loop puts at <= tau, keep NaN sums out, and stay tight: a row
// in the mask is within the bound of tau. Runs on the dispatched kernel,
// the scalar kernel and every other variant this CPU runs, called directly
// (dispatch picks AVX-512 over AVX2 on an AVX-512 host).
// ---------------------------------------------------------------------------

/// The row kernels under test, named for the failure messages.
std::vector<std::pair<const char*, simd::RowKernelFn>> row_kernels() {
  std::vector<std::pair<const char*, simd::RowKernelFn>> out = {
      {"dispatched", simd::detail::row_kernel()},
      {"scalar", &simd::detail::row_scalar}};
  for (const simd::KernelVariant v :
       {simd::KernelVariant::kAvx2, simd::KernelVariant::kAvx512,
        simd::KernelVariant::kNeon}) {
    if (const simd::RowKernelFn fn = simd::detail::row_kernel_of(v)) {
      out.emplace_back(simd::variant_name(v), fn);
    }
  }
  return out;
}

/// Every kernel, every count 1..rows.size() (the first `count` rows): the
/// mask holds each row the double loop puts at <= tau, has no bit at or
/// past `count`, no NaN-sum row, and (when the bound covers tau) no row
/// beyond the bound applied twice.
void check_row_masks(const std::vector<double>& q, const Rows& rows,
                     double tau) {
  const size_t dim = q.size();
  std::vector<const double*> ptrs;
  for (const auto& r : rows) ptrs.push_back(r.data());
  std::vector<double> d2s;
  for (const auto& r : rows) d2s.push_back(squared_distance_uncounted(q, r));
  const double maybe_le = simd::row_maybe_le(tau, dim);
  const double outer = simd::row_maybe_le(maybe_le, dim);
  for (const auto& [name, kernel] : row_kernels()) {
    for (size_t count = 1; count <= rows.size(); ++count) {
      const u32 mask = row_filter(kernel, q, ptrs.data(), count, tau);
      EXPECT_EQ(mask & ~strip_lanes(0, count), 0u)
          << name << " dim=" << dim << " count=" << count;
      for (size_t l = 0; l < count; ++l) {
        const double d2 = d2s[l];
        const bool in = (mask >> l) & 1u;
        if (d2 <= tau) {
          EXPECT_TRUE(in) << name << ": row the double loop puts at <= tau "
                          << "is missing; dim=" << dim << " count=" << count
                          << " row=" << l << " d2=" << d2 << " tau=" << tau;
        }
        if (maybe_le == INFINITY) {
          EXPECT_TRUE(in) << name << ": tau outside the bound must admit "
                          << "every row; tau=" << tau;
        } else if (in) {
          EXPECT_FALSE(std::isnan(d2))
              << name << ": NaN sum in the mask; dim=" << dim << " row=" << l;
          EXPECT_LE(d2, outer) << name << ": row beyond the bound; dim="
                               << dim << " row=" << l << " tau=" << tau;
        }
      }
    }
  }
}

/// 32 rows around `q`: row l differs from q in a dimension subset scaled by
/// `scale`, so the d2 values spread over a few orders of magnitude and
/// several rows tie.
Rows rows_around(const std::vector<double>& q, double scale, u64 seed) {
  Rng rng(seed);
  Rows rows(kDistanceStrip, q);
  for (size_t l = 0; l < rows.size(); ++l) {
    for (size_t d = 0; d < q.size(); ++d) {
      if (l % 7 == 3) continue;  // some rows are copies of q (d2 == 0)
      rows[l][d] += scale * rng.uniform(-1.0, 1.0) * static_cast<double>(l);
    }
  }
  rows[kDistanceStrip - 1] = rows[5];  // an exact duplicate row
  return rows;
}

std::vector<double> query_row(size_t dim, double offset, u64 seed) {
  Rng rng(seed);
  std::vector<double> q(dim);
  for (double& x : q) x = offset + rng.uniform(-1.0, 1.0);
  return q;
}

class RowKernelContract : public ::testing::TestWithParam<size_t> {};

TEST_P(RowKernelContract, TauAtEachRowsExactD2AndOneUlpEitherSide) {
  const size_t dim = GetParam();
  for (const double offset : {0.0, 1e6}) {
    const std::vector<double> q = query_row(dim, offset, 40 + dim);
    const Rows rows = rows_around(q, 0.37, 41 + dim);
    for (const auto& pivot : rows) {
      const double d2 = squared_distance_uncounted(q, pivot);
      for (const double tau :
           {d2, std::nextafter(d2, 0.0), std::nextafter(d2, INFINITY)}) {
        check_row_masks(q, rows, tau);
      }
    }
    check_row_masks(q, rows, 0.0);
  }
}

TEST_P(RowKernelContract, NanAndInfiniteCoordinates) {
  const size_t dim = GetParam();
  const std::vector<double> q = query_row(dim, 0.0, 50 + dim);
  Rows rows = rows_around(q, 0.5, 51 + dim);
  // Poison a spread of rows in their first, middle and last dimension.
  rows[1][0] = NAN;
  rows[4][dim / 2] = INFINITY;
  rows[9][dim - 1] = -INFINITY;
  rows[12][0] = INFINITY;
  rows[12][dim - 1] = -INFINITY;
  rows[20][dim / 2] = -NAN;
  const double tau = squared_distance_uncounted(q, rows[17]);
  check_row_masks(q, rows, tau);
  check_row_masks(q, rows, INFINITY);
  check_row_masks(q, rows, NAN);
  // An infinite query coordinate: rows infinite there too give inf - inf.
  std::vector<double> qi = q;
  qi[dim - 1] = INFINITY;
  check_row_masks(qi, rows, tau);
}

TEST_P(RowKernelContract, HugeRowsWhoseSumsOverflow) {
  const size_t dim = GetParam();
  const std::vector<double> q(dim, 0.0);
  Rows rows(kDistanceStrip, q);
  for (size_t l = 0; l < rows.size(); ++l) {
    // Row l holds +-1e150 in its first (l % 5) dimensions: a sum of up to
    // four 1e300 terms, plus rows at 1e154 whose first term alone
    // overflows to +inf.
    for (size_t d = 0; d < std::min(dim, l % 5); ++d) {
      rows[l][d] = (d % 2 == 0 ? 1e150 : -1e150);
    }
    if (l % 11 == 10) rows[l][dim - 1] = 1e154;
  }
  for (const double tau : {0.0, 1e300, 2e300, 3e300, 4e300, DBL_MAX / 2,
                           std::nextafter(DBL_MAX / 2, INFINITY), DBL_MAX}) {
    check_row_masks(q, rows, tau);
  }
  for (const auto& pivot : rows) {
    const double d2 = squared_distance_uncounted(q, pivot);
    check_row_masks(q, rows, d2);
    check_row_masks(q, rows, std::nextafter(d2, 0.0));
  }
}

TEST_P(RowKernelContract, SubnormalDifferences) {
  const size_t dim = GetParam();
  for (const double scale : {1e-160, 1e-310}) {
    // Differences of 1e-160 square into the subnormal range; differences
    // of 1e-310 are subnormal themselves and square to zero.
    const std::vector<double> q = query_row(dim, 0.0, 60 + dim);
    Rows rows(kDistanceStrip, q);
    Rng rng(61 + dim);
    for (size_t l = 0; l < rows.size(); ++l) {
      for (size_t d = 0; d < dim; ++d) {
        rows[l][d] = scale * rng.uniform(-4.0, 4.0) * static_cast<double>(l);
      }
    }
    const std::vector<double> zero(dim, 0.0);
    for (const std::vector<double>& qq : {zero, rows[3]}) {
      for (const auto& pivot : rows) {
        const double d2 = squared_distance_uncounted(qq, pivot);
        for (const double tau :
             {d2, std::nextafter(d2, 0.0), std::nextafter(d2, INFINITY)}) {
          check_row_masks(qq, rows, tau);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RowKernelContract,
                         ::testing::Values<size_t>(1, 2, 3, 7, 8, 9, 17, 63,
                                                   64, 65, 128));

TEST(RowKernelBound, MaybeLeBound) {
  // tau (1 + gamma) / (1 - gamma) = tau / (1 - 2 (dim - 1) u), rounded up.
  EXPECT_EQ(simd::row_maybe_le(1.0, 1), std::nextafter(1.0, 2.0));
  EXPECT_GE(simd::row_maybe_le(1.0, 64), 1.0 + 126 * 0x1p-53);
  EXPECT_LE(simd::row_maybe_le(1.0, 64), 1.0 + 130 * 0x1p-53);
  EXPECT_GT(simd::row_maybe_le(0.0, 64), 0.0);
  EXPECT_EQ(simd::row_maybe_le(INFINITY, 8), INFINITY);
  EXPECT_EQ(simd::row_maybe_le(NAN, 8), INFINITY);
  EXPECT_EQ(simd::row_maybe_le(DBL_MAX, 8), INFINITY);
  EXPECT_LT(simd::row_maybe_le(DBL_MAX / 2, 8), INFINITY);
}

TEST(RowKernelBound, EveryCompiledVariantIsReachable) {
  // The dispatched row kernel is one of the variants row_kernel_of hands
  // out, and the scalar one always is.
  EXPECT_EQ(simd::detail::row_kernel_of(simd::KernelVariant::kScalar),
            &simd::detail::row_scalar);
  EXPECT_EQ(simd::detail::row_kernel(),
            simd::detail::row_kernel_of(simd::active_variant()));
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
