// Batch workloads: the paper's pipeline on the r100k preset (batch_lowd) and
// the KNN-DBSCAN backend on a d=64 embedding (batch_embed).
//
// Untraced jobs call SparkDbscan end to end. A traced job replays the same
// pipeline from the layers' public functions, in SparkDbscan::run_impl's
// order, with a span around each call; its labels must equal the untraced
// job's labels so the per-layer numbers describe the same program.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>

#include "common.hpp"
#include "core/codec.hpp"
#include "core/dbscan_seq.hpp"
#include "core/local_dbscan.hpp"
#include "core/merge.hpp"
#include "core/partitioners.hpp"
#include "core/quality.hpp"
#include "core/spark_dbscan.hpp"
#include "dfs/mini_dfs.hpp"
#include "knn/disagreement.hpp"
#include "knn/knn_backend.hpp"
#include "knn/knn_graph.hpp"
#include "minispark/spark_context.hpp"
#include "spatial/brute_force.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/generators.hpp"
#include "synth/io.hpp"
#include "synth/presets.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sdb;
using dbscan::DbscanBackend;

constexpr int kSetupRepeats = 5;
constexpr u32 kPartitions = 8;
/// A run makes a fixed number of jobs, --seconds over this, at least
/// kMinJobs (so the attempt count, and with it failed_frac, does not
/// depend on host speed). Traced runs make pairs of one untraced and one
/// traced job, half as many.
constexpr double kNominalJobS = 2.0;
constexpr size_t kMinJobs = 3;
/// batch_embed: the e64 shape of bench_knn at n = 8,000.
constexpr i64 kEmbedPoints = 8'000;
constexpr u32 kEmbedK = 32;
constexpr u32 kEmbedSample = 16;
/// KNN disagreement bound (the one bench_knn asserts).
constexpr double kMinAri = 0.95;
constexpr double kMaxDisagreement = 0.02;

/// Deletes a scratch directory when the run ends.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Input {
  PointSet points;
  std::unique_ptr<dfs::MiniDfs> dfs;  // batch_lowd only
  std::string path;
  dbscan::DbscanParams params;
};

Input make_lowd_input(u64 seed, const std::string& dfs_root) {
  const synth::DatasetSpec spec = *synth::find_preset("r100k");
  Input in;
  in.points = synth::generate(spec, seed, 1.0);
  in.params = {spec.eps, spec.minpts};
  in.dfs = std::make_unique<dfs::MiniDfs>(dfs_root);
  in.path = "/input/r100k.txt";
  in.dfs->write(in.path, synth::to_text(in.points));
  return in;
}

Input make_embed_input(u64 seed) {
  Rng rng(seed);
  synth::EmbeddingConfig cfg;
  cfg.n = kEmbedPoints;
  cfg.dim = 64;
  cfg.intrinsic_dim = 16;
  cfg.clusters = 1;
  cfg.center_separation = 3.0;
  Input in;
  in.points = synth::embedding_clusters(cfg, rng);
  // k-dist eps: median 16th-neighbour distance over a 256-point stride
  // sample, as bench_knn chooses it.
  const BruteForceIndex brute(in.points);
  const size_t stride = std::max<size_t>(1, in.points.size() / 256);
  std::vector<KnnHit> hits;
  std::vector<double> kth;
  for (size_t p = 0; p < in.points.size(); p += stride) {
    hits.clear();
    brute.knn_query(in.points[static_cast<PointId>(p)], 17, QueryBudget{},
                    hits);
    kth.push_back(std::sqrt(hits.back().d2));
  }
  std::sort(kth.begin(), kth.end());
  in.params = {kth[kth.size() / 2], 5};
  return in;
}

struct Reference {
  std::unique_ptr<KdTree> tree;
  dbscan::SeqResult seq;
  double seconds = 0.0;
};

/// The plain single-threaded sequential DBSCAN of the same problem.
Reference make_reference(const Input& in) {
  Reference ref;
  const auto t0 = Clock::now();
  ref.tree = std::make_unique<KdTree>(
      in.points, KdTreeOptions{.build_threads = 1});
  ref.seq = dbscan::dbscan_sequential(in.points, *ref.tree, in.params);
  ref.seconds = seconds_since(t0);
  return ref;
}

/// Approximate clusters that are not the largest one mapped onto their
/// majority exact cluster. The majority is taken over the members that are
/// core in the exact result (border points may legitimately join either of
/// two clusters), or over all members when none is. Approximate clusters
/// whose majority is exact noise map onto no cluster and are not counted.
u64 count_fragments(const dbscan::SeqResult& exact,
                    const dbscan::Clustering& approx) {
  std::vector<char> core(approx.labels.size(), 0);
  for (const PointId id : exact.core_points) core[static_cast<size_t>(id)] = 1;
  std::map<ClusterId, std::map<ClusterId, u64>> overlap;
  std::map<ClusterId, std::map<ClusterId, u64>> core_overlap;
  for (size_t i = 0; i < approx.labels.size(); ++i) {
    if (approx.labels[i] == kNoise) continue;
    ++overlap[approx.labels[i]][exact.clustering.labels[i]];
    if (core[i] != 0) {
      ++core_overlap[approx.labels[i]][exact.clustering.labels[i]];
    }
  }
  for (const auto& [approx_id, by_exact] : core_overlap) {
    overlap[approx_id] = by_exact;
  }
  std::map<ClusterId, u64> mapped;  // exact cluster -> approx clusters
  for (const auto& [approx_id, by_exact] : overlap) {
    ClusterId best = kNoise;
    u64 best_count = 0;
    for (const auto& [exact_id, count] : by_exact) {
      if (count > best_count) {
        best = exact_id;
        best_count = count;
      }
    }
    if (best != kNoise) ++mapped[best];
  }
  u64 fragments = 0;
  for (const auto& [exact_id, n] : mapped) fragments += n - 1;
  return fragments;
}

/// Host-independent work of one untraced job.
WorkCounts job_counts(const dbscan::SparkDbscanReport& r,
                      const minispark::JobMetrics& job) {
  WorkCounters tasks;
  u64 attempts = 0;
  for (const auto& t : job.tasks) {
    tasks += t.counters;
    attempts += t.attempts;
  }
  WorkCounts c;
  c["core.local.distance_evals"] = tasks.distance_evals;
  c["core.local.tree_nodes"] = tasks.tree_nodes;
  c["core.local.hash_ops"] = tasks.hash_ops;
  c["core.local.queue_ops"] = tasks.queue_ops;
  c["core.local.seed_ops"] = tasks.seed_ops;
  c["core.local.frontier_peak"] = tasks.frontier_peak;
  c["core.codec.bytes"] = tasks.codec_bytes;
  c["core.merge.partial_clusters"] = r.partial_clusters;
  c["core.merge.seeds_examined"] = r.merge_stats.seeds_examined;
  c["core.merge.merges"] = r.merge_stats.merges;
  c["core.merge.border_claims"] = r.merge_stats.border_claims;
  c["minispark.task_attempts"] = attempts;
  c["minispark.broadcast_bytes"] = r.broadcast_bytes;
  c["minispark.accumulator_bytes"] = r.accumulator_bytes;
  c["knn.graph_evals"] = r.knn_graph_evals;
  c["knn.rounds"] = r.knn_graph_rounds;
  c["knn.eps_edges"] = r.knn_eps_edges;
  c["knn.core_points"] = r.knn_core_points;
  c["result.clusters"] = r.clustering.num_clusters;
  c["result.noise"] = r.clustering.noise_count();
  return c;
}

/// What the traced replay broadcasts to its executors (as run_impl does).
struct Shared {
  const PointSet* points = nullptr;
  const SpatialIndex* tree = nullptr;
  const knn::KnnEpsGraph* eps_graph = nullptr;
  const dbscan::Partitioning* partitioning = nullptr;
  dbscan::LocalDbscanConfig local_config;
};

/// Per-layer facts of one traced job.
struct TracedJob {
  double seconds = 0.0;
  WorkCounters local;  ///< summed over partitions
  u64 dfs_bytes = 0;
  u64 codec_bytes = 0;
  dbscan::MergeResult merged;
  knn::KnnGraphBuildStats graph_stats;
  u64 eps_edges = 0;
  u64 core_points = 0;
  knn::KnnGraph graph;  ///< kept for the recall measurement
};

class BatchBench {
 public:
  BatchBench(const Options& opt, const Threads& threads, DbscanBackend backend)
      : opt_(opt), threads_(threads), backend_(backend), tracer_(opt.trace) {}

  Outcome run();

 private:
  [[nodiscard]] bool lowd() const { return backend_ == DbscanBackend::kExact; }
  [[nodiscard]] dbscan::SparkDbscanConfig job_config() const;
  dbscan::SparkDbscanReport run_job(minispark::SparkContext& ctx);
  TracedJob run_traced(minispark::SparkContext& ctx, u32 trace);
  void check_job(const dbscan::Clustering& result, Outcome& out);

  const Options& opt_;
  const Threads& threads_;
  DbscanBackend backend_;
  Tracer tracer_;
  Input input_;
  Reference ref_;
  std::vector<ClusterId> checked_labels_;  ///< labels that passed the check
  double ari_ = 0.0;
  u64 fragments_ = 0;
};

dbscan::SparkDbscanConfig BatchBench::job_config() const {
  dbscan::SparkDbscanConfig cfg;
  cfg.params = input_.params;
  cfg.backend = backend_;
  cfg.partitions = kPartitions;
  cfg.partitioner = dbscan::PartitionerKind::kBlock;
  cfg.index = dbscan::IndexKind::kKdTree;
  cfg.index_build_threads = threads_.batch;
  if (!lowd()) {
    cfg.knn.k = kEmbedK;
    cfg.knn.sample = kEmbedSample;
    cfg.knn.threads = threads_.batch;
  }
  return cfg;
}

dbscan::SparkDbscanReport BatchBench::run_job(minispark::SparkContext& ctx) {
  dbscan::SparkDbscan engine(ctx, job_config());
  return lowd() ? engine.run_from_dfs(*input_.dfs, input_.path)
                : engine.run(input_.points);
}

TracedJob BatchBench::run_traced(minispark::SparkContext& ctx, u32 trace) {
  using Scope = Tracer::Scope;
  const dbscan::SparkDbscanConfig cfg = job_config();
  TracedJob out;
  const auto t0 = Clock::now();
  Scope job(tracer_, "job", 0, trace);

  // Read + parse (run_from_dfs) or the in-memory points (run).
  PointSet parsed;
  const PointSet* points = &input_.points;
  if (lowd()) {
    std::string text;
    {
      Scope s(tracer_, "dfs.read", job.id(), trace);
      text = input_.dfs->read(input_.path);
    }
    out.dfs_bytes = text.size();
    {
      Scope s(tracer_, "synth.parse", job.id(), trace);
      parsed = synth::from_text(text);
    }
    points = &parsed;
  }

  // The neighbourhood machinery, built before the broadcast.
  std::unique_ptr<KdTree> tree;
  knn::KnnEpsGraph eps_graph;
  if (lowd()) {
    Scope s(tracer_, "spatial.build", job.id(), trace);
    tree = std::make_unique<KdTree>(
        *points, KdTreeOptions{.build_threads = cfg.index_build_threads});
  } else {
    {
      Scope s(tracer_, "knn.graph", job.id(), trace);
      out.graph = knn::build_knn_graph(*points, cfg.knn, &out.graph_stats);
    }
    Scope s(tracer_, "knn.eps_graph", job.id(), trace);
    eps_graph = knn::KnnEpsGraph::build(out.graph, cfg.params);
    out.eps_edges = eps_graph.num_edges();
    out.core_points = eps_graph.num_core();
  }
  dbscan::Partitioning partitioning;
  {
    Scope s(tracer_, "core.partition", job.id(), trace);
    partitioning = dbscan::make_partitioning(cfg.partitioner, *points,
                                             cfg.partitions, cfg.seed);
  }

  // Broadcast + executors through minispark.
  Shared shared;
  shared.points = points;
  shared.tree = tree.get();
  shared.eps_graph = lowd() ? nullptr : &eps_graph;
  shared.partitioning = &partitioning;
  shared.local_config.params = cfg.params;
  shared.local_config.seed_strategy = cfg.seed_strategy;
  const u64 broadcast_bytes =
      (lowd() ? tree->byte_size() : eps_graph.byte_size()) +
      partitioning.byte_size() + 64;
  auto broadcast = ctx.broadcast(shared, broadcast_bytes);
  std::vector<std::string> blobs(cfg.partitions);
  std::vector<WorkCounters> local_wc(cfg.partitions);
  {
    Scope exec(tracer_, "minispark.job", job.id(), trace);
    auto rdd = ctx.generate<u32>(
        [](u32 i) { return std::vector<u32>{i}; }, cfg.partitions,
        "partitions");
    const u32 exec_id = exec.id();
    ctx.foreach_partition(
        *rdd,
        [&](u32, std::vector<u32>&& data) {
          const u32 p = data.at(0);
          const Shared& st = broadcast.value();
          dbscan::LocalClusterResult local;
          {
            Scope s(tracer_, "core.local", exec_id, trace);
            WorkCounters wc;
            {
              ScopedCounters scope(&wc);
              local = st.eps_graph != nullptr
                          ? knn::local_knn_dbscan(
                                *st.eps_graph, *st.partitioning,
                                static_cast<PartitionId>(p),
                                knn::LocalKnnDbscanConfig{
                                    st.local_config.seed_strategy})
                          : dbscan::local_dbscan(
                                *st.points, *st.tree, *st.partitioning,
                                static_cast<PartitionId>(p), st.local_config);
            }
            local_wc[p] = wc;
          }
          Scope s(tracer_, "core.codec.encode", exec_id, trace);
          blobs[p] = dbscan::encode(local, cfg.codec);
        },
        "dbscan-local-clustering");
  }

  // Collect: decode + merge.
  std::vector<dbscan::LocalClusterResult> locals;
  {
    Scope s(tracer_, "core.codec.decode", job.id(), trace);
    locals.reserve(blobs.size());
    for (const std::string& blob : blobs) {
      out.codec_bytes += blob.size();
      locals.push_back(dbscan::decode(blob, cfg.codec));
    }
  }
  {
    Scope s(tracer_, "core.merge", job.id(), trace);
    dbscan::MergeOptions merge_options;
    merge_options.strategy = cfg.merge_strategy;
    merge_options.min_partial_cluster_size = cfg.min_partial_cluster_size;
    merge_options.merge_threads = cfg.merge_threads;
    out.merged =
        dbscan::merge_partial_clusters(locals, points->size(), merge_options);
  }
  out.seconds = seconds_since(t0);
  for (const WorkCounters& wc : local_wc) out.local += wc;
  return out;
}

void BatchBench::check_job(const dbscan::Clustering& result, Outcome& out) {
  // Every job of a run clusters the same input with the same program, so
  // labels identical to ones that already passed pass too; anything else
  // gets the full check.
  if (!checked_labels_.empty() && result.labels == checked_labels_) return;
  if (lowd()) {
    const auto eq = dbscan::check_equivalence(
        input_.points, *ref_.tree, input_.params, ref_.seq.core_points,
        ref_.seq.clustering, result);
    if (!eq.equivalent) {
      out.fail("batch_lowd: job not equivalent to dbscan_sequential: " +
               eq.detail);
      return;
    }
    ari_ = dbscan::adjusted_rand_index(ref_.seq.clustering, result);
  } else {
    const knn::DisagreementReport gap =
        knn::measure_disagreement(ref_.seq.clustering, result);
    if (!gap.within(kMinAri, kMaxDisagreement)) {
      out.fail("batch_embed: outside the disagreement bound (ari " +
               std::to_string(gap.ari) + ", fraction " +
               std::to_string(gap.disagreement_frac()) + ")");
      return;
    }
    ari_ = gap.ari;
  }
  fragments_ = count_fragments(ref_.seq, result);
  checked_labels_ = result.labels;
}

Outcome BatchBench::run() {
  Outcome out;
  const std::string name = lowd() ? "batch_lowd" : "batch_embed";
  out.settings["host_threads"] = std::to_string(threads_.batch);
  out.settings["index_build_threads"] = std::to_string(threads_.batch);
  out.settings["knn.threads"] = lowd() ? "0" : std::to_string(threads_.batch);
  out.settings["partitions"] = std::to_string(kPartitions);

  // --- set-up: input generation (and, for batch_lowd, the DFS write) ---
  std::vector<double> setup_s;
  const std::string dfs_base = opt_.work_dir + "/dfs";
  const RemoveOnExit cleanup{dfs_base};
  for (int i = 0; i < kSetupRepeats; ++i) {
    std::filesystem::remove_all(dfs_base);
    const auto t0 = Clock::now();
    input_ = lowd() ? make_lowd_input(opt_.seed, dfs_base)
                    : make_embed_input(opt_.seed);
    setup_s.push_back(seconds_since(t0));
  }
  out.settings["points"] = std::to_string(input_.points.size());
  out.settings["dim"] = std::to_string(input_.points.dim());
  out.settings["eps"] = std::to_string(input_.params.eps);
  out.settings["minpts"] = std::to_string(input_.params.minpts);

  // --- correctness reference (not part of set-up) ---
  ref_ = make_reference(input_);

  minispark::ClusterConfig cluster;
  cluster.executors = kPartitions;
  cluster.cores_per_executor = 1;
  cluster.host_threads = threads_.batch;
  minispark::SparkContext ctx(cluster);

  std::vector<double> job_s;
  std::vector<double> traced_s;
  std::vector<double> job_wall_s;
  std::vector<double> task_busy_s;
  std::vector<TracedJob> traced;
  WorkCounts first_counts;
  u64 ok = 0;
  const size_t jobs = std::max<size_t>(
      kMinJobs, static_cast<size_t>(std::llround(
                    opt_.seconds / kNominalJobS / (opt_.trace ? 2.0 : 1.0))));
  out.settings["jobs"] = std::to_string(jobs);
  while (out.correct && out.attempted < jobs) {
    // Untraced job: the library's own pipeline, timed end to end.
    ++out.attempted;
    dbscan::SparkDbscanReport report;
    const auto t0 = Clock::now();
    try {
      report = run_job(ctx);
    } catch (const std::exception& e) {
      out.fail(name + ": job threw: " + e.what());
      continue;
    }
    const double dt = seconds_since(t0);
    const u64 failed_before = out.failed;
    check_job(report.clustering, out);
    const minispark::JobMetrics& job = ctx.last_job();
    const WorkCounts counts = job_counts(report, job);
    if (first_counts.empty()) {
      first_counts = counts;
    } else if (counts != first_counts) {
      out.fail(name + ": work counters differ between jobs of one run");
    }
    if (out.failed != failed_before) continue;
    ++ok;
    job_s.push_back(dt);
    job_wall_s.push_back(job.wall_s);
    double busy = 0.0;
    for (const auto& t : job.tasks) busy += t.wall_s;
    task_busy_s.push_back(busy);

    if (!opt_.trace) continue;
    // Traced replay of the same job from the layers' public functions.
    const u32 trace_id = static_cast<u32>(traced.size() + 1);
    TracedJob t = run_traced(ctx, trace_id);
    const dbscan::Clustering& replayed = t.merged.clustering;
    if (replayed.labels != report.clustering.labels ||
        replayed.num_clusters != report.clustering.num_clusters) {
      out.fail(name + ": traced replay labels differ from SparkDbscan::run");
    }
    traced_s.push_back(t.seconds);
    traced.push_back(std::move(t));
  }

  // --- end-to-end metrics ---
  const Tail jt = tail(job_s);
  const double p50 = median(job_s);
  const double tail_s = jt.value;
  out.settings["job_s.samples"] = std::to_string(job_s.size());
  out.settings["job_s.tail_percentile"] = std::to_string(jt.percentile);
  out.end_to_end.set("job_s.p50", p50, "s");
  out.end_to_end.set("job_s.tail", tail_s, "s");
  out.end_to_end.set("ari", ari_, "ari");
  // A batch job is one read of the whole input that writes one whole
  // clustering, so its read and write latency is the job latency.
  out.end_to_end.set("read_latency_us.p50", p50 * 1e6, "us");
  out.end_to_end.set("read_latency_us.tail", tail_s * 1e6, "us");
  out.end_to_end.set("write_latency_us.p50", p50 * 1e6, "us");
  out.end_to_end.set("write_latency_us.tail", tail_s * 1e6, "us");
  double job_total_s = 0.0;
  for (const double s : job_s) job_total_s += s;
  out.end_to_end.set("goodput_qps",
                     job_total_s > 0.0 ? static_cast<double>(ok) / job_total_s
                                       : 0.0,
                     "1/s");
  out.end_to_end.set("failed_frac", smoothed_share(out.failed, out.attempted),
                     "frac");
  finish_common(out, setup_s);

  // --- deterministic work counters ---
  out.counts = first_counts;
  out.counts["ref.distance_evals"] = ref_.seq.counters.distance_evals;
  out.counts["quality.fragments"] = fragments_;

  // --- per-layer metrics ---
  Metrics& L = out.per_layer;
  L.set("ref.seq_s", ref_.seconds, "s");
  L.set("quality.fragments", static_cast<double>(fragments_), "count");
  L.set("minispark.job_wall_s", median(job_wall_s), "s");
  L.set("minispark.task_busy_s", median(task_busy_s), "s");
  std::vector<double> idle;
  for (size_t i = 0; i < job_wall_s.size(); ++i) {
    idle.push_back(threads_.batch * job_wall_s[i] - task_busy_s[i]);
  }
  L.set("minispark.idle_core_s", median(idle), "s");
  L.set("minispark.task_attempts",
        static_cast<double>(first_counts["minispark.task_attempts"]), "count");
  L.set("minispark.broadcast_bytes",
        static_cast<double>(first_counts["minispark.broadcast_bytes"]),
        "bytes");
  if (!opt_.trace) return out;

  const auto per_job = [&](auto fn) {
    std::vector<double> v;
    for (size_t i = 0; i < traced.size(); ++i) {
      v.push_back(fn(static_cast<u32>(i + 1), traced[i]));
    }
    return median(v);
  };
  const auto self = [&](const char* span) {
    return per_job([&](u32 id, const TracedJob&) {
      return tracer_.self_seconds(span, id);
    });
  };
  const TracedJob& last = traced.back();
  L.set("trace.job_s.p50", median(traced_s), "s");
  L.set("trace.overhead_s", median(traced_s) - p50, "s");
  L.set("dfs.read_s", self("dfs.read"), "s");
  L.set("dfs.bytes_read", static_cast<double>(last.dfs_bytes), "bytes");
  L.set("synth.parse_s", self("synth.parse"), "s");
  L.set("spatial.build_s", self("spatial.build"), "s");
  L.set("core.partition_s", self("core.partition"), "s");
  L.set("minispark.self_s", self("minispark.job"), "s");
  const double busy = per_job([&](u32 id, const TracedJob&) {
    return tracer_.total_seconds("core.local", id);
  });
  const double max_s = per_job([&](u32 id, const TracedJob&) {
    return tracer_.max_seconds("core.local", id);
  });
  L.set("core.local.busy_s", busy, "s");
  L.set("core.local.max_s", max_s, "s");
  L.set("core.local.imbalance",
        busy > 0.0 ? max_s / (busy / static_cast<double>(kPartitions)) : 0.0,
        "ratio");
  L.set("core.local.distance_evals",
        static_cast<double>(last.local.distance_evals), "count");
  L.set("core.local.tree_nodes", static_cast<double>(last.local.tree_nodes),
        "count");
  L.set("core.local.hash_ops", static_cast<double>(last.local.hash_ops),
        "count");
  L.set("core.local.queue_ops", static_cast<double>(last.local.queue_ops),
        "count");
  L.set("core.local.seed_ops", static_cast<double>(last.local.seed_ops),
        "count");
  L.set("core.local.frontier_peak",
        static_cast<double>(last.local.frontier_peak), "count");
  L.set("geom.ns_per_distance_eval",
        last.local.distance_evals > 0
            ? busy * 1e9 / static_cast<double>(last.local.distance_evals)
            : 0.0,
        "ns");
  L.set("core.codec.encode_s", per_job([&](u32 id, const TracedJob&) {
          return tracer_.total_seconds("core.codec.encode", id);
        }),
        "s");
  L.set("core.codec.decode_s", self("core.codec.decode"), "s");
  L.set("core.codec.bytes", static_cast<double>(last.codec_bytes), "bytes");
  L.set("core.merge_s", self("core.merge"), "s");
  L.set("core.merge.ops", static_cast<double>(last.merged.counters.merge_ops),
        "count");
  L.set("core.merge.partial_clusters",
        static_cast<double>(last.merged.stats.partial_clusters), "count");
  L.set("core.merge.seeds_examined",
        static_cast<double>(last.merged.stats.seeds_examined), "count");
  out.counts["core.merge.ops"] = last.merged.counters.merge_ops;
  for (const TracedJob& t : traced) {
    if (t.merged.counters.merge_ops != last.merged.counters.merge_ops ||
        t.local.distance_evals != first_counts["core.local.distance_evals"]) {
      out.fail(name + ": traced work counters differ from the untraced job");
      break;
    }
  }
  if (!lowd()) {
    const double graph_s = self("knn.graph");
    const auto evals = static_cast<double>(last.graph_stats.distance_evals);
    L.set("knn.graph_s", graph_s, "s");
    L.set("knn.graph_evals", evals, "count");
    L.set("knn.rounds", static_cast<double>(last.graph_stats.rounds), "count");
    L.set("knn.graph_ns_per_eval",
          evals > 0 ? graph_s * threads_.batch * 1e9 / evals : 0.0, "ns");
    L.set("knn.eps_graph_s", self("knn.eps_graph"), "s");
    L.set("knn.eps_edges", static_cast<double>(last.eps_edges), "count");
    L.set("knn.core_points", static_cast<double>(last.core_points), "count");
    // Stride-sampled recall against brute-force rows, as bench_knn does.
    const BruteForceIndex brute(input_.points);
    const size_t stride = std::max<size_t>(1, input_.points.size() / 1024);
    std::vector<KnnHit> hits;
    u64 total = 0;
    u64 found = 0;
    for (size_t p = 0; p < input_.points.size(); p += stride) {
      const auto pid = static_cast<PointId>(p);
      hits.clear();
      brute.knn_query(input_.points[pid], kEmbedK + 1, QueryBudget{}, hits);
      for (const KnnHit& h : hits) {
        if (h.id == pid) continue;
        ++total;
        found += last.graph.has_edge(pid, h.id) ? 1 : 0;
      }
    }
    L.set("knn.recall",
          total > 0 ? static_cast<double>(found) / static_cast<double>(total)
                    : 1.0,
          "frac");
  }
  tracer_.write(opt_.work_dir + "/trace-" + name + "-seed" +
                    std::to_string(opt_.seed) + ".json",
                host_stamp(opt_, threads_));
  return out;
}

}  // namespace

Outcome run_batch_lowd(const Options& opt, const Threads& threads) {
  BatchBench bench(opt, threads, DbscanBackend::kExact);
  return bench.run();
}

Outcome run_batch_embed(const Options& opt, const Threads& threads) {
  BatchBench bench(opt, threads, DbscanBackend::kKnn);
  return bench.run();
}

}  // namespace perfbench
