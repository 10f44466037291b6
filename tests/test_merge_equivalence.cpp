// Equivalence battery for the parallel edge-based merge (DESIGN.md §13).
//
// The contract under test: for MergeStrategy::kUnionFind the merge output —
// labels, num_clusters, and every deterministic MergeStats field — is
// BYTE-IDENTICAL for any merge_threads value and any arrival permutation of
// the partial results. The sequential single-thread path is the oracle; the
// parallel pipeline must reproduce it exactly, not just up to relabeling.
//
// Fixtures come from three sources: a randomized generator sweeping
// partitions x chain depth x core/border mixes x duplicate seeds x the
// small-cluster filter; the real executor kernels (local_dbscan on gaussian
// data, local_knn_dbscan on a d=64 embedding); and the two documented
// Algorithm-4 soundness-gap fixtures as regressions.
#include <gtest/gtest.h>

#include <vector>

#include "core/codec.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/partitioners.hpp"
#include "knn/knn_backend.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/varint.hpp"

namespace sdb::dbscan {
namespace {

LocalClusterResult make_local(PartitionId partition,
                              std::vector<PartialCluster> clusters,
                              std::vector<PointId> cores,
                              std::vector<PointId> noise = {}) {
  LocalClusterResult r;
  r.partition = partition;
  r.clusters = std::move(clusters);
  r.core_points = std::move(cores);
  r.noise = std::move(noise);
  return r;
}

PartialCluster make_pc(PartitionId part, u32 idx, std::vector<PointId> members,
                       std::vector<PointId> seeds) {
  PartialCluster pc;
  pc.partition = part;
  pc.uid = PartialCluster::make_uid(part, idx);
  pc.members = std::move(members);
  pc.seeds = std::move(seeds);
  return pc;
}

/// Knobs for the randomized fixture generator. Points are laid out in
/// per-partition blocks; each block ends in a small pool of unclaimed
/// (local-noise) ids so seeds can hit the border-adoption path.
struct FixtureConfig {
  u32 partitions = 4;
  u32 clusters_per_partition = 3;
  u32 max_cluster_size = 5;     ///< member count drawn from [1, max]
  double core_fraction = 0.6;   ///< chance a member is core
  u32 seeds_per_cluster = 4;
  double dup_seed_chance = 0.0;   ///< chance a seed repeats the previous one
  double noise_seed_chance = 0.2; ///< chance a seed hits an unclaimed id
  bool chain = false;  ///< add a forced P-deep merge chain across partitions
};

constexpr u32 kNoisePool = 6;

std::vector<LocalClusterResult> make_fixture(const FixtureConfig& cfg,
                                             Rng& rng, u64* num_points) {
  const u32 block =
      cfg.clusters_per_partition * cfg.max_cluster_size + kNoisePool;
  *num_points = static_cast<u64>(cfg.partitions) * block;
  std::vector<LocalClusterResult> locals;

  // Pass 1: members + core flags (so pass 2 can aim seeds at known ids).
  for (u32 p = 0; p < cfg.partitions; ++p) {
    LocalClusterResult local;
    local.partition = static_cast<PartitionId>(p);
    const PointId base = static_cast<PointId>(p) * block;
    for (u32 c = 0; c < cfg.clusters_per_partition; ++c) {
      const u32 size =
          1 + static_cast<u32>(rng.uniform_index(cfg.max_cluster_size));
      PartialCluster pc;
      pc.partition = local.partition;
      pc.uid = PartialCluster::make_uid(local.partition, c);
      for (u32 k = 0; k < size; ++k) {
        const PointId id = base + c * cfg.max_cluster_size + k;
        pc.members.push_back(id);
        if (rng.chance(cfg.core_fraction)) local.core_points.push_back(id);
      }
      local.clusters.push_back(std::move(pc));
    }
    for (u32 k = 0; k < kNoisePool; ++k) {
      local.noise.push_back(base + block - kNoisePool + k);
    }
    locals.push_back(std::move(local));
  }

  // Pass 2: seeds. Each cluster aims seeds at random foreign partitions —
  // at members (core or border, whatever pass 1 rolled) or at the unclaimed
  // noise pool — with optional duplicates and an optional forced chain
  // cluster(p, 0) -> member of cluster(p+1, 0) so every sweep cell contains
  // a merge chain as deep as the partition count.
  for (u32 p = 0; p < cfg.partitions; ++p) {
    for (u32 c = 0; c < cfg.clusters_per_partition; ++c) {
      auto& pc = locals[p].clusters[c];
      for (u32 s = 0; s < cfg.seeds_per_cluster; ++s) {
        if (!pc.seeds.empty() && rng.chance(cfg.dup_seed_chance)) {
          pc.seeds.push_back(pc.seeds.back());
          continue;
        }
        u32 q = static_cast<u32>(rng.uniform_index(cfg.partitions - 1));
        if (q >= p) ++q;  // any partition but our own
        const PointId q_base = static_cast<PointId>(q) * block;
        if (rng.chance(cfg.noise_seed_chance)) {
          pc.seeds.push_back(q_base + block - kNoisePool +
                             static_cast<PointId>(
                                 rng.uniform_index(kNoisePool)));
        } else {
          const auto& target = locals[q].clusters[static_cast<size_t>(
              rng.uniform_index(cfg.clusters_per_partition))];
          pc.seeds.push_back(target.members[static_cast<size_t>(
              rng.uniform_index(target.members.size()))]);
        }
      }
      if (cfg.chain && c == 0) {
        const u32 q = (p + 1) % cfg.partitions;
        pc.seeds.push_back(locals[q].clusters[0].members.front());
      }
    }
  }
  return locals;
}

MergeResult run_merge(const std::vector<LocalClusterResult>& locals,
                      u64 num_points, unsigned threads,
                      u64 min_size = 0) {
  MergeOptions opt;
  opt.strategy = MergeStrategy::kUnionFind;
  opt.merge_threads = threads;
  opt.min_partial_cluster_size = min_size;
  return merge_partial_clusters(locals, num_points, opt);
}

/// Assert the full deterministic contract: labels and every
/// schedule-independent stat byte-identical between two merge results.
void expect_identical(const MergeResult& a, const MergeResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.clustering.labels, b.clustering.labels) << what;
  EXPECT_EQ(a.clustering.num_clusters, b.clustering.num_clusters) << what;
  EXPECT_EQ(a.stats.partial_clusters, b.stats.partial_clusters) << what;
  EXPECT_EQ(a.stats.filtered_partial_clusters,
            b.stats.filtered_partial_clusters)
      << what;
  EXPECT_EQ(a.stats.seeds_examined, b.stats.seeds_examined) << what;
  EXPECT_EQ(a.stats.merges, b.stats.merges) << what;
  EXPECT_EQ(a.stats.border_claims, b.stats.border_claims) << what;
}

TEST(MergeEquivalence, FuzzParallelMatchesSequentialByteForByte) {
  u64 cells = 0;
  for (const u32 partitions : {2u, 3u, 6u, 9u}) {
    for (const bool chain : {false, true}) {
      for (const double core_fraction : {0.35, 1.0}) {
        for (const double dup : {0.0, 0.4}) {
          for (const u64 min_size : {u64{0}, u64{2}}) {
            for (u64 seed = 1; seed <= 3; ++seed) {
              FixtureConfig cfg;
              cfg.partitions = partitions;
              cfg.chain = chain;
              cfg.core_fraction = core_fraction;
              cfg.dup_seed_chance = dup;
              Rng rng(seed * 1000 + partitions * 10 + (chain ? 1 : 0));
              u64 n = 0;
              const auto locals = make_fixture(cfg, rng, &n);
              const auto baseline = run_merge(locals, n, 1, min_size);
              ++cells;
              for (const unsigned threads : {2u, 3u, 4u, 0u}) {
                const auto par = run_merge(locals, n, threads, min_size);
                expect_identical(
                    baseline, par,
                    "threads=" + std::to_string(threads) + " partitions=" +
                        std::to_string(partitions) + " seed=" +
                        std::to_string(seed) + " min=" +
                        std::to_string(min_size));
              }
              // Arrival permutations through the PARALLEL path: the
              // uid-canonical sort plus slot-addressed edge gather must wash
              // out the input order entirely.
              std::vector<LocalClusterResult> shuffled = locals;
              for (u64 perm = 1; perm <= 3; ++perm) {
                Rng perm_rng(seed * 100 + perm);
                perm_rng.shuffle(shuffled);
                const auto par = run_merge(shuffled, n, 3, min_size);
                expect_identical(baseline, par,
                                 "perm=" + std::to_string(perm));
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 4u * 2 * 2 * 2 * 2 * 3);
}

/// The merge of real executor output must match the sequential merge of the
/// same output at every thread count, both directly and after each codec's
/// wire round trip.
void expect_parallel_matches_sequential(
    const std::vector<LocalClusterResult>& locals, u64 num_points,
    const std::string& what) {
  const auto baseline = run_merge(locals, num_points, 1);
  EXPECT_GT(baseline.clustering.num_clusters, 0u) << what;
  EXPECT_GT(baseline.stats.merges, 0u) << what;
  for (const unsigned threads : {2u, 4u, 0u}) {
    expect_identical(baseline, run_merge(locals, num_points, threads),
                     what + " threads=" + std::to_string(threads));
  }
  for (const Codec codec : {Codec::kRaw, Codec::kCompact}) {
    std::vector<LocalClusterResult> decoded;
    for (const auto& local : locals) {
      decoded.push_back(decode(encode(local, codec), codec));
    }
    for (const unsigned threads : {1u, 2u, 4u, 0u}) {
      expect_identical(baseline, run_merge(decoded, num_points, threads),
                       what + " codec=" + codec_name(codec) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(MergeEquivalence, RealPipelineParallelMatchesSequential) {
  constexpr u32 kPartitions = 6;
  {
    Rng data_rng(321);
    synth::GaussianMixtureConfig gcfg;
    gcfg.n = 600;
    gcfg.dim = 2;
    gcfg.clusters = 4;
    gcfg.sigma = 0.4;
    gcfg.noise_fraction = 0.08;
    gcfg.box_side = 35.0;
    const PointSet ps = synth::gaussian_clusters(gcfg, data_rng);
    const KdTree tree(ps);
    const Partitioning partitioning =
        make_partitioning(PartitionerKind::kBlock, ps, kPartitions, 77);
    LocalDbscanConfig local_cfg;
    local_cfg.params = {0.8, 5};
    local_cfg.seed_strategy = SeedStrategy::kAllForeign;
    std::vector<LocalClusterResult> locals;
    for (u32 p = 0; p < kPartitions; ++p) {
      locals.push_back(local_dbscan(ps, tree, partitioning,
                                    static_cast<PartitionId>(p), local_cfg));
    }
    expect_parallel_matches_sequential(locals, ps.size(), "exact");
  }
  {
    // KNN-DBSCAN executor output over a d=64 embedding (the
    // test_knn_backend fixture shape).
    Rng data_rng(17);
    synth::EmbeddingConfig ecfg;
    ecfg.n = 600;
    ecfg.dim = 64;
    ecfg.clusters = 5;
    const PointSet ps = synth::embedding_clusters(ecfg, data_rng);
    const knn::KnnGraph graph = knn::build_knn_graph(ps, {});
    const knn::KnnEpsGraph eps = knn::KnnEpsGraph::build(
        graph, DbscanParams{synth::embedding_suggested_eps(ecfg), 5});
    const Partitioning partitioning =
        make_partitioning(PartitionerKind::kBlock, ps, kPartitions, 77);
    std::vector<LocalClusterResult> locals;
    for (u32 p = 0; p < kPartitions; ++p) {
      locals.push_back(knn::local_knn_dbscan(
          eps, partitioning, static_cast<PartitionId>(p), {}));
    }
    expect_parallel_matches_sequential(locals, ps.size(), "knn");
  }
}

TEST(MergeEquivalence, AlgorithmFourGapFixturesUnderParallelMerge) {
  // Regression pins for the two documented Algorithm-4 soundness gaps
  // (test_merge.cpp documents the paper side): the union-find strategy must
  // keep fixing both at every thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    // Gap 1: absorbed cluster's seeds. A -> B -> C chain must close.
    {
      auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10})}, {0, 1});
      auto b = make_local(1, {make_pc(1, 0, {10, 11}, {20})}, {10, 11});
      auto c = make_local(2, {make_pc(2, 0, {20, 21}, {})}, {20, 21});
      const auto merged = run_merge({a, b, c}, 30, threads);
      EXPECT_EQ(merged.clustering.num_clusters, 1u) << threads;
      EXPECT_EQ(merged.clustering.labels[0], merged.clustering.labels[21]);
    }
    // Gap 2: a non-core border seed must NOT fuse clusters.
    {
      auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10})}, {0, 1});
      auto b = make_local(1, {make_pc(1, 0, {10, 11, 12}, {})}, {11, 12});
      const auto merged = run_merge({a, b}, 20, threads);
      EXPECT_EQ(merged.clustering.num_clusters, 2u) << threads;
      EXPECT_EQ(merged.clustering.labels[10], merged.clustering.labels[11]);
    }
  }
}

TEST(MergeEquivalence, BorderClaimPriorityMatchesSequential) {
  // Two clusters claim the same unclaimed foreign point; the lower-uid
  // cluster's claim must win at every thread count (first claim in
  // uid-canonical edge order).
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {20})}, {0, 1});
  auto b = make_local(1, {make_pc(1, 0, {10, 11}, {20})}, {10, 11});
  auto c = make_local(2, {}, {}, {20});
  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto merged = run_merge({a, b, c}, 30, threads);
    EXPECT_EQ(merged.clustering.labels[20], merged.clustering.labels[0])
        << threads;
    EXPECT_EQ(merged.stats.border_claims, 1u) << threads;
  }
}

TEST(MergeEquivalence, CountersDeterministicAcrossThreadCounts) {
  // The parallel path charges a flat deterministic cost model from the
  // driver thread: merge_ops must be exactly equal for every thread count
  // > 1 (the sequential path keeps its own path-length-dependent model, so
  // it is not expected to match the parallel number).
  FixtureConfig cfg;
  cfg.partitions = 6;
  cfg.chain = true;
  Rng rng(99);
  u64 n = 0;
  const auto locals = make_fixture(cfg, rng, &n);
  const auto two = run_merge(locals, n, 2);
  EXPECT_GT(two.counters.merge_ops, 0u);
  for (const unsigned threads : {3u, 4u, 8u}) {
    const auto par = run_merge(locals, n, threads);
    EXPECT_EQ(par.counters.merge_ops, two.counters.merge_ops) << threads;
    EXPECT_EQ(par.stats.rounds, two.stats.rounds) << threads;
    expect_identical(two, par, "threads=" + std::to_string(threads));
  }
}

TEST(MergeEquivalence, LegacyV1BlobsAbortOnBadWireMagic) {
  // Each codec decodes exactly one wire version. Hand-authored v1 bytes
  // (the partition id first, seeds nested inside each cluster record) must
  // be rejected by the magic check, never misread as a result.
  const LocalClusterResult local = make_local(
      1, {make_pc(1, 0, {10, 11}, {0, 20}), make_pc(1, 1, {12}, {})},
      {10, 11}, {13});

  BinaryWriter w;
  w.write_i64(local.partition);
  w.write_u64(local.clusters.size());
  for (const auto& pc : local.clusters) {
    w.write_u64(pc.uid);
    w.write_i64(pc.partition);
    w.write_i64_vec(pc.members);
    w.write_i64_vec(pc.seeds);
  }
  w.write_i64_vec(local.core_points);
  w.write_i64_vec(local.noise);
  const std::string raw_v1(w.buffer().data(), w.buffer().size());

  std::vector<char> out;
  put_varint(out, static_cast<u64>(local.partition));
  put_varint(out, local.clusters.size());
  for (const auto& pc : local.clusters) {
    put_varint(out, pc.uid);
    put_id_list(out, pc.members);
    put_id_list(out, pc.seeds);
  }
  put_id_list(out, local.core_points);
  put_id_list(out, local.noise);
  const std::string compact_v1(out.data(), out.size());

  EXPECT_DEATH(decode(raw_v1, Codec::kRaw), "bad wire magic");
  EXPECT_DEATH(decode(compact_v1, Codec::kCompact), "bad wire magic");
}

TEST(MergeEquivalence, EdgeStatsAccounting) {
  // seeds_examined counts exactly the surviving clusters' seeds; rounds is
  // a pure function of that count (fixed chunking), not of the thread count.
  auto a = make_local(0, {make_pc(0, 0, {0, 1}, {10, 11}),
                          make_pc(0, 1, {2}, {10})},
                      {0, 1, 2});
  auto b = make_local(1, {make_pc(1, 0, {10, 11}, {0})}, {10, 11});
  const auto all = run_merge({a, b}, 20, 4);
  EXPECT_EQ(all.stats.seeds_examined, 4u);
  EXPECT_EQ(all.stats.rounds, 1u);
  // The filter drops cluster (0,1) and with it its seed edge.
  const auto filtered = run_merge({a, b}, 20, 4, 2);
  EXPECT_EQ(filtered.stats.seeds_examined, 3u);
  EXPECT_EQ(filtered.stats.filtered_partial_clusters, 1u);
  // Sequential kUnionFind reports the same edge count.
  EXPECT_EQ(run_merge({a, b}, 20, 1).stats.seeds_examined, 4u);
}

}  // namespace
}  // namespace sdb::dbscan
