// kNN graph builder contract (knn/knn_graph.hpp): exact rows against the
// brute-force oracle, NN-descent recall against exact rows, bit-determinism
// across thread counts and row-kernel variants, and self-healing under the
// knn.graph.drop_edge chaos site.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "geom/distance.hpp"
#include "geom/distance_simd.hpp"
#include "knn/knn_graph.hpp"
#include "synth/generators.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sdb::knn {
namespace {

PointSet embedding_fixture(i64 n, int dim, u64 seed, int clusters = 5) {
  Rng rng(seed);
  synth::EmbeddingConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.intrinsic_dim = std::min(cfg.intrinsic_dim, std::max(1, dim / 2));
  cfg.clusters = clusters;
  return synth::embedding_clusters(cfg, rng);
}

/// Expected row of point i: exact kNN under (d2, id), self excluded.
std::vector<std::pair<double, PointId>> oracle_row(const PointSet& ps,
                                                   PointId i, u32 k) {
  std::vector<std::pair<double, PointId>> all;
  for (PointId j = 0; j < static_cast<PointId>(ps.size()); ++j) {
    if (j == i) continue;
    all.emplace_back(squared_distance_uncounted(ps[i], ps[j]), j);
  }
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

void expect_row_equals_oracle(const PointSet& ps, const KnnGraph& g,
                              PointId i) {
  const auto want = oracle_row(ps, i, g.k());
  const auto ids = g.row_ids(i);
  const auto d2s = g.row_d2(i);
  ASSERT_EQ(g.row_size(i), want.size()) << "i=" << i;
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(ids[s], want[s].second) << "i=" << i << " slot=" << s;
    EXPECT_EQ(d2s[s], want[s].first) << "i=" << i << " slot=" << s;
  }
  for (size_t s = want.size(); s < g.k(); ++s) {
    EXPECT_EQ(ids[s], kNoNeighbor) << "i=" << i << " slot=" << s;
  }
}

TEST(KnnGraphExact, RowsMatchBruteOracleLowAndHighDim) {
  for (const int dim : {3, 64, 128}) {
    const PointSet ps = embedding_fixture(300, dim, 100 + dim);
    KnnGraphConfig cfg;
    cfg.k = 12;
    cfg.build = KnnGraphConfig::Build::kExact;
    KnnGraphBuildStats stats;
    const KnnGraph g = build_knn_graph(ps, cfg, &stats);
    ASSERT_EQ(g.size(), ps.size()) << "dim=" << dim;
    ASSERT_EQ(g.k(), cfg.k) << "dim=" << dim;
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.distance_evals, ps.size() * (ps.size() - 1));
    for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
      expect_row_equals_oracle(ps, g, i);
    }
  }
}

TEST(KnnGraphExact, ChargesDistanceEvalsToCallerSink) {
  const PointSet ps = embedding_fixture(200, 16, 9);
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  WorkCounters wc;
  {
    ScopedCounters scope(&wc);
    (void)build_knn_graph(ps, cfg);
  }
  EXPECT_EQ(wc.distance_evals, ps.size() * (ps.size() - 1));
}

TEST(KnnGraphExact, ShortRowsWhenKExceedsN) {
  PointSet ps(4);
  ps.add(std::vector<double>{0, 0, 0, 0});
  ps.add(std::vector<double>{1, 0, 0, 0});
  ps.add(std::vector<double>{0, 2, 0, 0});
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  for (PointId i = 0; i < 3; ++i) {
    EXPECT_EQ(g.row_size(i), 2u) << "i=" << i;
    expect_row_equals_oracle(ps, g, i);
    EXPECT_TRUE(std::isinf(g.kth_distance2(i))) << "short row -> +inf";
  }
  EXPECT_EQ(g.row_ids(0)[0], 1);  // d2=1 beats d2=4
  EXPECT_EQ(g.row_d2(0)[0], 1.0);
}

TEST(KnnGraphExact, TieAtKthSlotBrokenByPointId) {
  // Point 0 at origin; four partners at identical d2=4 along different
  // axes. With k=2 the row must keep the two LOWEST ids of the tie group.
  PointSet ps(4);
  ps.add(std::vector<double>{0, 0, 0, 0});
  ps.add(std::vector<double>{2, 0, 0, 0});
  ps.add(std::vector<double>{0, 2, 0, 0});
  ps.add(std::vector<double>{0, 0, 2, 0});
  ps.add(std::vector<double>{0, 0, 0, 2});
  KnnGraphConfig cfg;
  cfg.k = 2;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  const auto ids = g.row_ids(0);
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 2);
  EXPECT_EQ(g.kth_distance2(0), 4.0);
}

TEST(KnnGraphDescent, HighRecallOnEmbeddingWorkload) {
  for (const int dim : {64, 128}) {
    const PointSet ps = embedding_fixture(1500, dim, 7 + dim);
    KnnGraphConfig exact_cfg;
    exact_cfg.k = 16;
    exact_cfg.build = KnnGraphConfig::Build::kExact;
    const KnnGraph exact = build_knn_graph(ps, exact_cfg);

    KnnGraphConfig cfg = exact_cfg;
    cfg.build = KnnGraphConfig::Build::kDescent;
    KnnGraphBuildStats stats;
    const KnnGraph approx = build_knn_graph(ps, cfg, &stats);

    const double recall = graph_recall(exact, approx);
    EXPECT_GE(recall, 0.90) << "dim=" << dim << " rounds=" << stats.rounds;
    EXPECT_GT(stats.rounds, 0u) << "dim=" << dim;
    EXPECT_GT(stats.updates, 0u) << "dim=" << dim;
    // Descent must cost strictly fewer pair evaluations than the O(n^2)
    // exact scan even at this small n; the asymptotic gap (the point of
    // the build — rounds scale with n*k^2, not n^2) is measured by
    // bench_knn at 10k points, where the ratio is several-fold.
    EXPECT_LT(stats.distance_evals, ps.size() * (ps.size() - 1))
        << "dim=" << dim;
  }
}

TEST(KnnGraphDescent, RowsAreSortedSelfFreeAndDuplicateFree) {
  const PointSet ps = embedding_fixture(800, 128, 3);
  KnnGraphConfig cfg;
  cfg.k = 10;
  const KnnGraph g = build_knn_graph(ps, cfg);
  for (PointId i = 0; i < static_cast<PointId>(ps.size()); ++i) {
    const auto ids = g.row_ids(i);
    const auto d2s = g.row_d2(i);
    const u32 m = g.row_size(i);
    EXPECT_EQ(m, cfg.k) << "i=" << i;  // n-1 >> k: rows must be full
    for (u32 s = 0; s < m; ++s) {
      EXPECT_NE(ids[s], i) << "self edge at i=" << i;
      EXPECT_EQ(d2s[s], squared_distance_uncounted(ps[i], ps[ids[s]]))
          << "stored d2 must be the true distance, i=" << i;
      if (s > 0) {
        EXPECT_LT((std::pair{d2s[s - 1], ids[s - 1]}),
                  (std::pair{d2s[s], ids[s]}))
            << "row not ascending (d2, id) at i=" << i;
      }
    }
  }
}

TEST(KnnGraphDescent, BitDeterministicAcrossThreadCounts) {
  // n must reach the builder's 4096-point parallel threshold, or every
  // thread count below runs the one-chunk sequential path.
  const PointSet ps = embedding_fixture(4200, 16, 55);
  for (const auto build :
       {KnnGraphConfig::Build::kExact, KnnGraphConfig::Build::kDescent}) {
    KnnGraphConfig cfg;
    cfg.k = 12;
    cfg.build = build;
    cfg.threads = 1;
    KnnGraphBuildStats base_stats;
    const u64 base = build_knn_graph(ps, cfg, &base_stats).digest();
    EXPECT_GT(base_stats.exact_evals, 0u);
    EXPECT_LE(base_stats.exact_evals, base_stats.distance_evals);
    if (build == KnnGraphConfig::Build::kDescent) {
      EXPECT_GT(base_stats.candidates, base_stats.distance_evals);
    }
    for (const unsigned threads : {0u, 2u, 4u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " build=" + std::to_string(static_cast<int>(build)));
      cfg.threads = threads;
      KnnGraphBuildStats stats;
      EXPECT_EQ(build_knn_graph(ps, cfg, &stats).digest(), base);
      EXPECT_EQ(stats.distance_evals, base_stats.distance_evals);
      EXPECT_EQ(stats.candidates, base_stats.candidates);
      EXPECT_EQ(stats.exact_evals, base_stats.exact_evals);
      EXPECT_EQ(stats.rounds, base_stats.rounds);
      EXPECT_EQ(stats.updates, base_stats.updates);
    }
  }
}

TEST(KnnGraphKernels, ScalarAndDispatchedRowKernelsBuildTheSameGraph) {
  // Both builders filter candidates through the row kernel and recheck its
  // mask in double, so the kernel variant must not show in the graph or in
  // any counter. d=37 is no multiple of any vector width (every variant
  // takes its tail path); n reaches the 4096-point parallel threshold.
  for (const int dim : {64, 37}) {
    const PointSet ps = embedding_fixture(4096, dim, 70 + dim);
    for (const auto build :
         {KnnGraphConfig::Build::kExact, KnnGraphConfig::Build::kDescent}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " build=" + std::to_string(static_cast<int>(build)));
      KnnGraphConfig cfg;
      cfg.k = 16;
      cfg.build = build;
      cfg.threads = 4;
      KnnGraphBuildStats dispatched;
      const u64 want = build_knn_graph(ps, cfg, &dispatched).digest();
      simd::force_scalar(true);
      KnnGraphBuildStats scalar;
      const u64 got = build_knn_graph(ps, cfg, &scalar).digest();
      simd::force_scalar(false);
      EXPECT_EQ(got, want);
      EXPECT_EQ(scalar.rounds, dispatched.rounds);
      EXPECT_EQ(scalar.updates, dispatched.updates);
      EXPECT_EQ(scalar.distance_evals, dispatched.distance_evals);
      EXPECT_EQ(scalar.dropped_edges, dispatched.dropped_edges);
      EXPECT_EQ(scalar.candidates, dispatched.candidates);
      EXPECT_EQ(scalar.exact_evals, dispatched.exact_evals);
      // The filter did filter: a full row rejects most candidates.
      EXPECT_LT(dispatched.exact_evals, dispatched.distance_evals / 2);
    }
  }
}

/// Literal descent outputs, recorded from the sort + unique join with
/// scalar abandoned distances. Any rewrite of the join must reproduce them:
/// a change to the candidate set, evaluation order, cutoff handling or
/// termination moves at least one. The inputs come from Rng's standard-
/// library distributions (std::normal_distribution, uniform_int_distribution),
/// so the literals are libstdc++'s.
struct PinnedDescent {
  const char* what;
  i64 n;
  int dim;
  u32 k;
  u32 sample;
  u64 fixture_seed;
  u64 digest;
  u64 distance_evals;
  u32 rounds;
  u64 updates;
};

TEST(KnnGraphDescent, DigestPinnedToParent) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "pinned values assume libstdc++'s random distributions";
#endif
  const PinnedDescent cases[] = {
      {"d64 k32 sample16", 2000, 64, 32, 16, 3, 0x317f3ac38a4384a3ull,
       2463133, 4, 273089},
      {"low-d", 2000, 4, 10, 16, 17, 0x29214d7b2ff7bb37ull, 1090061, 4,
       108248},
      {"k > sample", 1500, 32, 12, 8, 23, 0x4589cc2a8db54c24ull, 715994, 6,
       84774},
  };
  for (const PinnedDescent& c : cases) {
    SCOPED_TRACE(c.what);
    const PointSet ps = embedding_fixture(c.n, c.dim, c.fixture_seed);
    KnnGraphConfig cfg;
    cfg.k = c.k;
    cfg.sample = c.sample;
    KnnGraphBuildStats stats;
    const KnnGraph g = build_knn_graph(ps, cfg, &stats);
    EXPECT_EQ(g.digest(), c.digest);
    EXPECT_EQ(stats.distance_evals, c.distance_evals);
    EXPECT_EQ(stats.rounds, c.rounds);
    EXPECT_EQ(stats.updates, c.updates);
  }
#ifdef SDB_FAULT_INJECTION
  {
    // One thread under a drop_edge plan: the fault log pins the order in
    // which candidates reach the fault site, not just the final graph.
    SCOPED_TRACE("drop_edge plan");
    const PointSet ps = embedding_fixture(900, 64, 31);
    KnnGraphConfig cfg;
    cfg.k = 12;
    cfg.threads = 1;
    fault::ScopedFaultPlan chaos(
        "seed=5;knn.graph.drop_edge:p=0.02,budget=500");
    KnnGraphBuildStats stats;
    const KnnGraph g = build_knn_graph(ps, cfg, &stats);
    EXPECT_EQ(g.digest(), 0x7453be7d9b5ab93bull);
    EXPECT_EQ(stats.distance_evals, 582826u);
    EXPECT_EQ(stats.dropped_edges, 500u);
    EXPECT_EQ(chaos.plan().log_digest(), 0x5015fbf152a449bdull);
  }
#endif
}

TEST(KnnGraphDescent, SeedChangesInitButConvergesToSimilarQuality) {
  const PointSet ps = embedding_fixture(1000, 64, 12);
  KnnGraphConfig exact_cfg;
  exact_cfg.k = 12;
  exact_cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph exact = build_knn_graph(ps, exact_cfg);
  KnnGraphConfig cfg = exact_cfg;
  cfg.build = KnnGraphConfig::Build::kDescent;
  cfg.seed = 1;
  const KnnGraph a = build_knn_graph(ps, cfg);
  cfg.seed = 2;
  const KnnGraph b = build_knn_graph(ps, cfg);
  EXPECT_GE(graph_recall(exact, a), 0.90);
  EXPECT_GE(graph_recall(exact, b), 0.90);
}

#ifdef SDB_FAULT_INJECTION
TEST(KnnGraphChaos, DropEdgeFaultsSelfHealAndReplayByteIdentically) {
  // knn.graph.drop_edge skips candidate evaluations mid-build. NN-descent
  // is self-healing: a dropped candidate can resurface through a later
  // round's local join, and a budget-bounded plan must still yield a graph
  // good enough to cluster with. Replaying the same spec must reproduce
  // the exact same faulted graph (digest equality) — the repro contract of
  // the chaos framework.
  const PointSet ps = embedding_fixture(900, 64, 31);
  KnnGraphConfig exact_cfg;
  exact_cfg.k = 12;
  exact_cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph exact = build_knn_graph(ps, exact_cfg);

  KnnGraphConfig cfg = exact_cfg;
  cfg.build = KnnGraphConfig::Build::kDescent;
  cfg.threads = 1;  // chaos runs pin one thread: totally ordered fault log

  for (const u64 fault_seed : {1u, 2u, 3u}) {
    const std::string spec = "seed=" + std::to_string(fault_seed) +
                             ";knn.graph.drop_edge:p=0.02,budget=500";
    SCOPED_TRACE("fault spec: " + spec);

    u64 first_digest = 0;
    u64 first_log = 0;
    {
      fault::ScopedFaultPlan chaos(spec);
      KnnGraphBuildStats stats;
      const KnnGraph faulted = build_knn_graph(ps, cfg, &stats);
      EXPECT_GT(stats.dropped_edges, 0u) << "plan never fired";
      EXPECT_GE(graph_recall(exact, faulted), 0.85)
          << "faulted build did not converge";
      first_digest = faulted.digest();
      first_log = chaos.plan().log_digest();
    }
    {
      fault::ScopedFaultPlan chaos(spec);
      const KnnGraph replay = build_knn_graph(ps, cfg);
      EXPECT_EQ(replay.digest(), first_digest);
      EXPECT_EQ(chaos.plan().log_digest(), first_log);
    }
  }
}

TEST(KnnGraphChaos, NoPlanMeansNoDrops) {
  const PointSet ps = embedding_fixture(400, 64, 8);
  KnnGraphConfig cfg;
  cfg.k = 8;
  KnnGraphBuildStats stats;
  (void)build_knn_graph(ps, cfg, &stats);
  EXPECT_EQ(stats.dropped_edges, 0u);
}
#endif  // SDB_FAULT_INJECTION

TEST(KnnGraphRecall, IdentityAndDisjointBounds) {
  const PointSet ps = embedding_fixture(300, 16, 4);
  KnnGraphConfig cfg;
  cfg.k = 8;
  cfg.build = KnnGraphConfig::Build::kExact;
  const KnnGraph g = build_knn_graph(ps, cfg);
  EXPECT_EQ(graph_recall(g, g), 1.0);

  // An empty approximate graph recovers nothing.
  const KnnGraph empty(ps.size(), cfg.k);
  EXPECT_EQ(graph_recall(g, empty), 0.0);
}

}  // namespace
}  // namespace sdb::knn
