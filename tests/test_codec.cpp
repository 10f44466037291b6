#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbscan_seq.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/spark_dbscan.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "util/rng.hpp"

namespace sdb::dbscan {
namespace {

LocalClusterResult sample_result() {
  LocalClusterResult r;
  r.partition = 2;
  PartialCluster a;
  a.uid = PartialCluster::make_uid(2, 0);
  a.partition = 2;
  a.members = {200, 201, 205, 210, 260};
  a.seeds = {10, 900};
  PartialCluster b;
  b.uid = PartialCluster::make_uid(2, 1);
  b.partition = 2;
  b.members = {300};
  r.clusters = {a, b};
  r.core_points = {200, 201, 300};
  r.noise = {250, 251};
  return r;
}

std::vector<i64> sorted(std::vector<i64> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class CodecRoundTrip : public ::testing::TestWithParam<Codec> {};

TEST_P(CodecRoundTrip, PreservesContentAsSets) {
  const auto r = sample_result();
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  EXPECT_EQ(back.partition, r.partition);
  ASSERT_EQ(back.clusters.size(), r.clusters.size());
  for (size_t i = 0; i < r.clusters.size(); ++i) {
    EXPECT_EQ(back.clusters[i].uid, r.clusters[i].uid);
    EXPECT_EQ(sorted(back.clusters[i].members), sorted(r.clusters[i].members));
    EXPECT_EQ(sorted(back.clusters[i].seeds), sorted(r.clusters[i].seeds));
  }
  EXPECT_EQ(sorted(back.core_points), sorted(r.core_points));
  EXPECT_EQ(sorted(back.noise), sorted(r.noise));
}

TEST_P(CodecRoundTrip, EmptyResult) {
  LocalClusterResult r;
  r.partition = 0;
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  EXPECT_TRUE(back.clusters.empty());
  EXPECT_TRUE(back.core_points.empty());
  EXPECT_TRUE(back.noise.empty());
}

TEST_P(CodecRoundTrip, SeedsAtPartitionBoundariesRoundTrip) {
  // SEEDs reference points OWNED BY OTHER PARTITIONS — including ids at the
  // boundary of the id space (first point, last point). The second cluster
  // is empty: no members, no seeds.
  LocalClusterResult r;
  r.partition = 2;
  PartialCluster a;
  a.uid = PartialCluster::make_uid(2, 0);
  a.partition = 2;
  a.members = {10, 11, 12};
  a.seeds = {0, 9, 13, 999'999'999};
  PartialCluster b;
  b.uid = PartialCluster::make_uid(2, 1);
  b.partition = 2;
  r.clusters = {a, b};
  r.core_points = {10, 11};
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  ASSERT_EQ(back.clusters.size(), 2u);
  EXPECT_EQ(sorted(back.clusters[0].seeds), sorted(a.seeds));
  EXPECT_EQ(back.clusters[1].uid, b.uid);
  EXPECT_TRUE(back.clusters[1].members.empty());
  EXPECT_TRUE(back.clusters[1].seeds.empty());
}

TEST_P(CodecRoundTrip, MaxUidRoundTrips) {
  // make_uid packs (partition << 32) | local index; saturate both halves.
  LocalClusterResult r;
  r.partition = static_cast<PartitionId>(0x7fffffff);
  PartialCluster pc;
  pc.partition = r.partition;
  pc.uid = PartialCluster::make_uid(pc.partition, 0xffffffffu);
  pc.members = {1};
  r.clusters = {pc};
  const LocalClusterResult back = decode(encode(r, GetParam()), GetParam());
  EXPECT_EQ(back.partition, r.partition);
  ASSERT_EQ(back.clusters.size(), 1u);
  EXPECT_EQ(back.clusters[0].uid, pc.uid);
  EXPECT_EQ(back.clusters[0].partition, pc.partition);
  EXPECT_EQ(back.clusters[0].uid >> 32, 0x7fffffffu);
  EXPECT_EQ(back.clusters[0].uid & 0xffffffffu, 0xffffffffu);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecRoundTrip,
                         ::testing::Values(Codec::kRaw, Codec::kCompact),
                         [](const auto& info) {
                           return std::string(codec_name(info.param));
                         });

TEST(Codec, CompactIsSubstantiallySmallerOnRealOutput) {
  // Encode an actual kernel output: block partitions make member ids dense,
  // which is the compact codec's design case.
  Rng rng(3);
  synth::UniformConfig cfg;
  cfg.n = 2000;
  cfg.dim = 2;
  cfg.box_side = 25.0;
  const PointSet ps = synth::uniform_points(cfg, rng);
  const KdTree tree(ps);
  const auto part = make_partitioning(PartitionerKind::kBlock, ps, 4);
  LocalDbscanConfig lcfg;
  lcfg.params = {1.0, 4};
  const auto local = local_dbscan(ps, tree, part, 1, lcfg);

  const size_t raw = encode(local, Codec::kRaw).size();
  const size_t compact = encode(local, Codec::kCompact).size();
  EXPECT_LT(compact * 3, raw) << "raw=" << raw << " compact=" << compact;
  // And it must still merge to the same clustering.
  const auto direct = merge_partial_clusters({local}, ps.size(), {});
  const auto via_codec = merge_partial_clusters(
      {decode(encode(local, Codec::kCompact), Codec::kCompact)}, ps.size(),
      {});
  EXPECT_EQ(direct.clustering.num_clusters, via_codec.clustering.num_clusters);
  EXPECT_EQ(direct.clustering.noise_count(), via_codec.clustering.noise_count());
}

TEST(Codec, ChargesCodecBytes) {
  WorkCounters wc;
  const auto r = sample_result();
  {
    ScopedCounters scope(&wc);
    const std::string bytes = encode(r, Codec::kCompact);
    decode(bytes, Codec::kCompact);
  }
  EXPECT_GT(wc.codec_bytes, 0u);
}

TEST(Codec, CompactTrailingGarbageAborts) {
  // Both decoders must consume the whole blob.
  for (const Codec codec : {Codec::kRaw, Codec::kCompact}) {
    std::string bytes = encode(sample_result(), codec);
    bytes += '\0';
    EXPECT_DEATH(decode(bytes, codec), "trailing") << codec_name(codec);
  }
}

TEST(Codec, SparkPipelineEquivalentUnderBothCodecs) {
  Rng rng(5);
  synth::GaussianMixtureConfig gcfg;
  gcfg.n = 600;
  gcfg.dim = 2;
  gcfg.clusters = 3;
  gcfg.sigma = 0.5;
  gcfg.box_side = 50.0;
  const PointSet ps = synth::gaussian_clusters(gcfg, rng);

  auto run = [&](Codec codec) {
    minispark::ClusterConfig cluster;
    cluster.executors = 4;
    cluster.straggler.fraction = 0.0;
    minispark::SparkContext ctx(cluster);
    SparkDbscanConfig cfg;
    cfg.params = {1.0, 5};
    cfg.partitions = 4;
    cfg.codec = codec;
    SparkDbscan dbscan(ctx, cfg);
    return dbscan.run(ps);
  };
  const auto raw = run(Codec::kRaw);
  const auto compact = run(Codec::kCompact);
  EXPECT_EQ(raw.clustering.num_clusters, compact.clustering.num_clusters);
  EXPECT_EQ(raw.clustering.noise_count(), compact.clustering.noise_count());
  EXPECT_LT(compact.accumulator_bytes, raw.accumulator_bytes);
}

}  // namespace
}  // namespace sdb::dbscan
