// Load harness for the serving subsystem (src/serve/).
//
// Pipeline: synthesize an n-point 2-D dataset -> batch-cluster it (seq
// engine, exact) -> build a ClusterModel snapshot -> bootstrap a
// ModelRegistry/QueryEngine -> drive open-loop synthetic query traffic and
// report wall-clock throughput, latency percentiles (p50/p99/p999), cache
// hit rate, and shed rate. Reads go through the QueryEngine; writes take
// the one write path, an IngestPipeline over the same registry. Three
// phases:
//
//   capacity  — pure classify traffic with hot-key skew, big admission
//               queue: measures sustainable queries/sec (the acceptance
//               floor is 100k/s on a 100k-point model);
//   mixed     — classify/lookup/insert blend: the insert share is submitted
//               to the IngestPipeline (shed writes counted, the ladder's
//               rung entries reported) concurrently with the reads;
//   overload  — tiny admission queue + unpaced submission: demonstrates
//               backpressure (nonzero shed rate, bounded latency for the
//               admitted requests).
//
// A fourth phase exercises the REPLICATED tier (src/replica/): a
// ShardedCluster of `--shards` consistent-hash shards × `--replicas`
// WAL-shipped replicas each, with `--readers` threads classifying
// concurrently while the driver thread writes, pumps replication, and —
// at half-time — SIGKILLs shard 0's primary. It reports aggregate QPS,
// latency percentiles overall AND during the failover window, the window
// length itself, staleness redirects, and (the acceptance gate) that no
// committed epoch was lost across the promotion. Results land in
// machine-readable JSON (--out, schema in README "Serve topology bench")
// so future PRs diff against the committed BENCH_serve_topology.json.
//
// Unlike the paper-figure benches this one runs on the real wall clock —
// it measures this host's serving capacity, not the simulated cluster.
// --smoke shrinks every phase to seconds-scale for the `perf` ctest label.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "core/dbscan_seq.hpp"
#include "replica/sharded_cluster.hpp"
#include "serve/cluster_model.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/query_engine.hpp"
#include "spatial/kd_tree.hpp"
#include "stream/ingest_pipeline.hpp"
#include "synth/generators.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace sdb;
using namespace sdb::serve;

namespace {

struct TrafficMix {
  double classify = 1.0;
  double lookup = 0.0;
  double insert = 0.0;
};

struct PhaseResult {
  std::string name;
  double wall_s = 0.0;
  MetricsSnapshot metrics;
  stream::StreamMetrics writes;  ///< the phase's pipeline; zero if read-only
};

/// Open-loop generator: submits read batches to `engine` and insert rolls
/// to `writes` as fast as it can for `seconds`, with `hot_fraction` of
/// classify queries drawn from a small hot set of repeated points (the skew
/// that makes the LRU cache earn its keep). `writes` may be null when the
/// mix has no inserts.
PhaseResult run_phase(const std::string& name, QueryEngine& engine,
                      stream::IngestPipeline* writes, const PointSet& points,
                      const TrafficMix& mix, double seconds, size_t batch_size,
                      double hot_fraction, size_t hot_keys, u64 seed) {
  SDB_CHECK(mix.insert == 0.0 || writes != nullptr,
            "an insert mix needs an ingest pipeline");
  Rng rng(seed);
  // Pre-draw the hot set from real points so hot queries hit clusters.
  std::vector<std::vector<double>> hot;
  hot.reserve(hot_keys);
  for (size_t k = 0; k < hot_keys; ++k) {
    const PointId id =
        static_cast<PointId>(rng.uniform_index(points.size()));
    const auto p = points[id];
    hot.emplace_back(p.begin(), p.end());
  }

  const MetricsSnapshot before = engine.metrics();
  Stopwatch wall;
  std::vector<Request> batch;
  batch.reserve(batch_size);
  std::vector<double> insert_point(2);
  while (wall.seconds() < seconds) {
    batch.clear();
    for (size_t i = 0; i < batch_size; ++i) {
      Request req;
      const double roll = rng.uniform();
      if (roll < mix.classify) {
        req.type = RequestType::kClassify;
        if (rng.chance(hot_fraction)) {
          req.point = hot[rng.uniform_index(hot.size())];
        } else {
          const PointId id =
              static_cast<PointId>(rng.uniform_index(points.size()));
          const auto p = points[id];
          req.point.assign(p.begin(), p.end());
          req.point[0] += rng.uniform(-0.01, 0.01);  // near-data cold query
        }
      } else if (roll < mix.classify + mix.lookup) {
        req.type = RequestType::kLookup;
        req.id = static_cast<PointId>(rng.uniform_index(points.size()));
      } else {
        insert_point = {rng.uniform(), rng.uniform()};
        writes->submit_insert(insert_point);  // shed writes: pipeline metrics
        continue;
      }
      batch.push_back(std::move(req));
    }
    engine.try_submit_batch(std::move(batch));
    batch = std::vector<Request>();
    batch.reserve(batch_size);
  }
  engine.drain();

  PhaseResult result;
  result.name = name;
  result.wall_s = wall.seconds();
  // The write backlog drains outside the read window (qps counts reads).
  if (writes != nullptr) writes->drain();
  // Report this phase's deltas, not cumulative engine totals.
  MetricsSnapshot after = engine.metrics();
  after.submitted -= before.submitted;
  after.accepted -= before.accepted;
  after.shed -= before.shed;
  after.completed -= before.completed;
  after.invalid -= before.invalid;
  after.degraded_model_reads -= before.degraded_model_reads;
  after.cache_hits -= before.cache_hits;
  after.cache_misses -= before.cache_misses;
  for (size_t t = 0; t < kRequestTypes; ++t) {
    after.by_type[t] -= before.by_type[t];
  }
  for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    after.latency.counts[b] -= before.latency.counts[b];
    after.classify_latency.counts[b] -= before.classify_latency.counts[b];
  }
  result.metrics = after;
  if (writes != nullptr) result.writes = writes->metrics();
  return result;
}

std::vector<std::string> phase_row(const PhaseResult& r) {
  const auto& m = r.metrics;
  const double qps =
      r.wall_s > 0 ? static_cast<double>(m.completed) / r.wall_s : 0.0;
  const double hit_rate =
      (m.cache_hits + m.cache_misses) > 0
          ? static_cast<double>(m.cache_hits) /
                static_cast<double>(m.cache_hits + m.cache_misses)
          : 0.0;
  return {r.name,
          TablePrinter::cell(m.completed),
          TablePrinter::cell(qps, 0),
          TablePrinter::cell(m.classify_latency.quantile_micros(0.50), 2),
          TablePrinter::cell(m.classify_latency.quantile_micros(0.99), 2),
          TablePrinter::cell(m.classify_latency.quantile_micros(0.999), 2),
          TablePrinter::cell(hit_rate, 3),
          TablePrinter::cell(m.shed_rate(), 3)};
}

// ---------------------------------------------------------------------------
// Replicated / sharded topology phase.

struct TopologyResult {
  size_t shards = 0;
  size_t replicas = 0;
  size_t readers = 0;
  size_t points = 0;
  double wall_s = 0.0;
  u64 queries = 0;
  u64 redirected_reads = 0;  ///< ClassifyResult.redirected, reader-counted
  HistogramSnapshot overall;
  HistogramSnapshot during_failover;
  u64 queries_during_failover = 0;
  double failover_window_ms = 0.0;
  u64 failovers = 0;
  u64 stale_redirects = 0;  ///< set-side counter (includes dead-node reads)
  u64 inserts = 0;
  u64 rejected_writes = 0;
  u64 committed_before_kill = 0;
  u64 lost_committed_epochs = 0;  ///< the acceptance gate: must be 0

  [[nodiscard]] double qps() const {
    return wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0;
  }
};

/// Drive `readers` classify threads against a sharded, replicated cluster
/// while this thread writes + pumps replication; SIGKILL shard 0's primary
/// at half-time and measure straight through the failover window.
TopologyResult run_topology(const PointSet& points,
                            const dbscan::DbscanParams& params, size_t shards,
                            size_t replicas, size_t readers, double seconds,
                            u64 seed) {
  using replica::ShardedCluster;
  ShardedCluster::Options opts;
  opts.shards = shards;
  opts.replica.replicas = replicas;
  opts.replica.staleness_bound = 8;
  opts.replica.heartbeat_timeout = 3;
  opts.replica.ack_replicas = 1;
  opts.replica.batch_records = 256;
  opts.replica.pipeline_batches = 4;
  opts.replica.registry.params = params;
  opts.replica.registry.publish_every = 0;  // the driver publishes explicitly
  ShardedCluster cluster(opts, points.dim());

  std::printf("topology: bootstrapping %zu points across %zu shards x %zu "
              "replicas...\n",
              points.size(), shards, replicas);
  Stopwatch boot;
  cluster.bootstrap(points);
  // Compact each shard so followers bootstrap via ONE snapshot install
  // instead of replaying the whole insert log record-by-record.
  for (size_t s = 0; s < cluster.shards(); ++s) (void)cluster.shard(s).compact();
  const auto all_committed = [&] {
    for (size_t s = 0; s < cluster.shards(); ++s) {
      const replica::ReplicaSet& rs = cluster.shard(s);
      const auto primary = rs.node_registry(rs.primary_index());
      if (rs.committed_epoch() < primary->epoch()) return false;
    }
    return true;
  };
  u64 warmup_rounds = 0;
  while (!all_committed()) {
    cluster.pump_all();
    SDB_CHECK(++warmup_rounds < 1'000'000, "replication warmup did not converge");
  }
  std::printf("topology: warm (bootstrap+replicate %.2fs, %" PRIu64
              " pump rounds)\n",
              boot.seconds(), warmup_rounds);

  TopologyResult out;
  out.shards = shards;
  out.replicas = replicas;
  out.readers = readers;
  out.points = points.size();

  struct ReaderSlot {
    serve::LatencyHistogram overall;
    serve::LatencyHistogram during;
    u64 queries = 0;
    u64 queries_during = 0;
    u64 redirected = 0;
  };
  std::atomic<bool> stop{false};
  std::atomic<bool> failover_window{false};
  std::vector<ReaderSlot> slots(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + 100 + t);
      std::vector<double> q(static_cast<size_t>(points.dim()));
      ReaderSlot& slot = slots[t];
      while (!stop.load(std::memory_order_relaxed)) {
        const auto p = points[static_cast<PointId>(
            rng.uniform_index(points.size()))];
        q.assign(p.begin(), p.end());
        q[0] += rng.uniform(-0.01, 0.01);  // near-data cold query
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = cluster.classify(q, t);
        const u64 nanos = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        slot.overall.record_nanos(nanos);
        ++slot.queries;
        slot.redirected += r.redirected ? 1 : 0;
        if (failover_window.load(std::memory_order_relaxed)) {
          slot.during.record_nanos(nanos);
          ++slot.queries_during;
        }
      }
    });
  }

  // Driver loop: write + publish + pump; ticks on a real-time cadence so the
  // failover window spans milliseconds of reader traffic rather than a
  // handful of driver iterations.
  constexpr double kTickMs = 2.0;
  Rng rng(seed + 1);
  Stopwatch wall;
  Stopwatch tick_timer;
  Stopwatch window_timer;
  bool killed = false;
  u64 iter = 0;
  std::vector<double> c(static_cast<size_t>(points.dim()));
  while (wall.seconds() < seconds) {
    for (int k = 0; k < 8; ++k) {
      for (double& v : c) v = rng.uniform();
      if (cluster.insert(c).has_value()) {
        ++out.inserts;
      } else {
        ++out.rejected_writes;
      }
    }
    if (++iter % 4 == 0) cluster.publish_all();
    cluster.pump_all();
    if (tick_timer.millis() >= kTickMs) {
      cluster.tick_all();
      tick_timer = Stopwatch();
    }
    if (!killed && wall.seconds() >= seconds * 0.5) {
      killed = true;
      out.committed_before_kill = cluster.shard(0).committed_epoch();
      failover_window.store(true, std::memory_order_relaxed);
      window_timer = Stopwatch();
      cluster.shard(0).kill_primary();
    }
    if (killed && failover_window.load(std::memory_order_relaxed) &&
        cluster.shard(0).has_live_primary()) {
      out.failover_window_ms = window_timer.millis();
      failover_window.store(false, std::memory_order_relaxed);
    }
  }
  // Finish an in-progress failover, then let every shard converge.
  u64 drain_rounds = 0;
  while (!cluster.shard(0).has_live_primary()) {
    cluster.tick_all();
    cluster.pump_all();
    SDB_CHECK(++drain_rounds < 1'000'000, "failover did not complete");
  }
  if (failover_window.load(std::memory_order_relaxed)) {
    out.failover_window_ms = window_timer.millis();
    failover_window.store(false, std::memory_order_relaxed);
  }
  while (!all_committed()) {
    cluster.pump_all();
    SDB_CHECK(++drain_rounds < 1'000'000, "post-run drain did not converge");
  }
  out.wall_s = wall.seconds();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  for (const ReaderSlot& slot : slots) {
    out.overall += slot.overall.snapshot();
    out.during_failover += slot.during.snapshot();
    out.queries += slot.queries;
    out.queries_during_failover += slot.queries_during;
    out.redirected_reads += slot.redirected;
  }
  for (size_t s = 0; s < cluster.shards(); ++s) {
    out.failovers += cluster.shard(s).failovers();
    out.stale_redirects += cluster.shard(s).stale_redirects();
  }
  const u64 committed_after = cluster.shard(0).committed_epoch();
  out.lost_committed_epochs = committed_after >= out.committed_before_kill
                                  ? 0
                                  : out.committed_before_kill - committed_after;
  return out;
}

void write_topology_json(const std::string& path, bool smoke, u64 seed,
                         double seconds,
                         const std::vector<PhaseResult>& phases,
                         const TopologyResult& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  SDB_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n  \"bench\": \"serve_topology\",\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : "full");
  // Single-node phases, with the backpressure/degradation counters the
  // streaming ladder surfaces (shed + shed_rate prove admission control
  // engaged in the overload phase; degraded_model_reads counts replies
  // answered from a DBSCAN++-subsampled snapshot; writes_* and
  // rung_entries are the phase's IngestPipeline, zero for read-only
  // phases).
  std::fprintf(f, "  \"phases\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    const auto& m = p.metrics;
    const double qps =
        p.wall_s > 0 ? static_cast<double>(m.completed) / p.wall_s : 0.0;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"wall_s\": %.2f, \"completed\": %llu, "
        "\"qps\": %.0f,\n"
        "     \"p50us\": %.2f, \"p99us\": %.2f, \"p999us\": %.2f,\n"
        "     \"submitted\": %llu, \"accepted\": %llu, \"shed\": %llu, "
        "\"shed_rate\": %.4f,\n"
        "     \"degraded_model_reads\": %llu, \"writes_accepted\": %llu, "
        "\"writes_shed\": %llu, \"writes_acked\": %llu,\n"
        "     \"rung_entries\": [%llu, %llu, %llu, %llu]}%s\n",
        p.name.c_str(), p.wall_s,
        static_cast<unsigned long long>(m.completed), qps,
        m.classify_latency.quantile_micros(0.50),
        m.classify_latency.quantile_micros(0.99),
        m.classify_latency.quantile_micros(0.999),
        static_cast<unsigned long long>(m.submitted),
        static_cast<unsigned long long>(m.accepted),
        static_cast<unsigned long long>(m.shed), m.shed_rate(),
        static_cast<unsigned long long>(m.degraded_model_reads),
        static_cast<unsigned long long>(p.writes.accepted),
        static_cast<unsigned long long>(p.writes.shed),
        static_cast<unsigned long long>(p.writes.acked),
        static_cast<unsigned long long>(p.writes.rung_entries[0]),
        static_cast<unsigned long long>(p.writes.rung_entries[1]),
        static_cast<unsigned long long>(p.writes.rung_entries[2]),
        static_cast<unsigned long long>(p.writes.rung_entries[3]),
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"shards\": %zu,\n  \"replicas\": %zu,\n  \"readers\": %zu,\n"
               "  \"points\": %zu,\n  \"seconds\": %.2f,\n  \"seed\": %llu,\n",
               r.shards, r.replicas, r.readers, r.points, seconds,
               static_cast<unsigned long long>(seed));
  std::fprintf(f,
               "  \"aggregate\": {\"queries\": %llu, \"qps\": %.1f, "
               "\"p50us\": %.2f, \"p99us\": %.2f, \"p999us\": %.2f},\n",
               static_cast<unsigned long long>(r.queries), r.qps(),
               r.overall.quantile_micros(0.50), r.overall.quantile_micros(0.99),
               r.overall.quantile_micros(0.999));
  std::fprintf(f,
               "  \"failover\": {\"window_ms\": %.2f, \"failovers\": %llu, "
               "\"queries_during\": %llu, \"p999us_during\": %.2f, "
               "\"committed_before_kill\": %llu, "
               "\"lost_committed_epochs\": %llu},\n",
               r.failover_window_ms,
               static_cast<unsigned long long>(r.failovers),
               static_cast<unsigned long long>(r.queries_during_failover),
               r.during_failover.quantile_micros(0.999),
               static_cast<unsigned long long>(r.committed_before_kill),
               static_cast<unsigned long long>(r.lost_committed_epochs));
  std::fprintf(f,
               "  \"staleness\": {\"redirected_reads\": %llu, "
               "\"stale_redirects\": %llu},\n",
               static_cast<unsigned long long>(r.redirected_reads),
               static_cast<unsigned long long>(r.stale_redirects));
  std::fprintf(f, "  \"writes\": {\"inserts\": %llu, \"rejected\": %llu}\n}\n",
               static_cast<unsigned long long>(r.inserts),
               static_cast<unsigned long long>(r.rejected_writes));
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_i64("points", 100'000, "model size (points)");
  flags.add_f64("eps", 0.02, "DBSCAN eps for the model build");
  flags.add_i64("minpts", 5, "DBSCAN minpts");
  flags.add_i64("threads", 2, "query engine worker threads");
  flags.add_i64("queue", 65536, "admission queue capacity (capacity/mixed)");
  flags.add_i64("batch", 256, "requests per submitted batch");
  flags.add_f64("seconds", 2.0, "wall seconds per phase");
  flags.add_f64("hot_fraction", 0.9, "fraction of classify traffic on hot keys");
  flags.add_i64("hot_keys", 64, "size of the hot key set");
  flags.add_f64("core_sample", 1.0,
                "core subsample fraction (DBSCAN++ serving knob)");
  flags.add_i64("seed", 42, "rng seed");
  flags.add_bool("csv", false, "also print CSV");
  flags.add_bool("smoke", false,
                 "seconds-scale run for the perf ctest label (small model, "
                 "short phases)");
  flags.add_i64("shards", 2, "consistent-hash shards (topology phase)");
  flags.add_i64("replicas", 3, "replicas per shard (topology phase)");
  flags.add_i64("readers", 4, "concurrent classify threads (topology phase)");
  flags.add_i64("topo_points", 20'000, "dataset size for the topology phase");
  flags.add_f64("topo_seconds", 4.0, "wall seconds for the topology phase");
  flags.add_string("out", "BENCH_serve_topology.json",
                   "topology-phase JSON output path");
  flags.parse(argc, argv);

  const bool smoke = flags.boolean("smoke");
  const auto n = flags.i64_flag("points") / (smoke ? 12 : 1);
  const u64 seed = static_cast<u64>(flags.i64_flag("seed"));
  Rng rng(seed);

  std::printf("generating %" PRId64 " 2-D points...\n", n);
  const PointSet points = synth::blobs_2d(n, 12, 0.02, n / 20, rng);

  std::printf("batch clustering (seq engine)...\n");
  Stopwatch sw;
  const KdTree tree(points);
  const dbscan::DbscanParams params{flags.f64("eps"), flags.i64_flag("minpts")};
  const auto seq = dbscan::dbscan_sequential(points, tree, params);
  const double cluster_s = sw.restart();

  std::vector<char> core_mask(points.size(), 0);
  for (const PointId id : seq.core_points) {
    core_mask[static_cast<size_t>(id)] = 1;
  }
  ClusterModel::Options model_options;
  model_options.core_sample_fraction = flags.f64("core_sample");
  model_options.sample_seed = seed;
  const auto model = ClusterModel::build(points, seq.clustering, core_mask,
                                         params, model_options);
  const double build_s = sw.restart();
  const auto snapshot_bytes = model->save();
  std::printf(
      "model: %zu points, %" PRIu64 " clusters, %" PRIu64
      " core points (sample %.2f), snapshot %.1f MiB; cluster %.2fs build "
      "%.2fs\n",
      points.size(), model->num_clusters(), model->core_count(),
      flags.f64("core_sample"),
      static_cast<double>(snapshot_bytes.size()) / (1024.0 * 1024.0),
      cluster_s, build_s);

  // Serve through a registry so the mixed phase's inserts mutate a live
  // clustering; bootstrap feeds the points through IncrementalDbscan (exact
  // DBSCAN semantics, so the registry's snapshot matches the batch model up
  // to border assignment).
  ModelRegistry::Config reg_cfg;
  reg_cfg.params = params;
  reg_cfg.publish_every = 0;  // the pipeline owns the epoch cadence
  reg_cfg.model_options = model_options;
  ModelRegistry registry(reg_cfg, points.dim());
  std::printf("bootstrapping registry (incremental re-cluster)...\n");
  sw.restart();
  registry.bootstrap(points);
  std::printf("bootstrap took %.2fs\n", sw.seconds());
  std::printf("registry ready: %zu active points, epoch %" PRIu64 "\n",
              registry.active_points(), registry.epoch());

  QueryEngine::Config engine_cfg;
  engine_cfg.threads = static_cast<unsigned>(flags.i64_flag("threads"));
  engine_cfg.queue_capacity = static_cast<size_t>(flags.i64_flag("queue"));
  const auto batch = static_cast<size_t>(flags.i64_flag("batch"));
  const double secs = flags.f64("seconds") / (smoke ? 5.0 : 1.0);
  const double hot = flags.f64("hot_fraction");
  const auto hot_keys = static_cast<size_t>(flags.i64_flag("hot_keys"));

  TablePrinter table({"phase", "completed", "qps", "p50us", "p99us", "p999us",
                      "cache_hit", "shed_rate"});

  std::vector<PhaseResult> phases;
  {
    QueryEngine engine(registry, engine_cfg);
    phases.push_back(run_phase("capacity", engine, nullptr, points,
                               TrafficMix{1.0, 0.0, 0.0}, secs, batch, hot,
                               hot_keys, seed + 1));
  }
  {
    QueryEngine engine(registry, engine_cfg);
    // Insert traffic republishes every 4096 ops: one micro-epoch of up to
    // 4096 inserts per publish (a partial one when the batch deadline
    // fires first). Queue and lag scales sit well above one epoch so a
    // single full epoch reads as low pressure on the ladder.
    stream::IngestPipeline::Config pipe_cfg;
    pipe_cfg.batch_max = 4096;
    pipe_cfg.queue_capacity = engine_cfg.queue_capacity;
    pipe_cfg.lag_capacity = 16.0 * 4096.0;
    stream::IngestPipeline pipeline(registry, pipe_cfg);
    phases.push_back(run_phase("mixed", engine, &pipeline, points,
                               TrafficMix{0.90, 0.05, 0.05}, secs, batch, hot,
                               hot_keys, seed + 2));
  }
  {
    // Deliberate overload: admission queue far below what the generator
    // produces -> the engine must shed (nonzero shed rate) while admitted
    // requests keep bounded latency.
    QueryEngine::Config overload_cfg = engine_cfg;
    overload_cfg.queue_capacity = 512;
    QueryEngine engine(registry, overload_cfg);
    phases.push_back(run_phase("overload", engine, nullptr, points,
                               TrafficMix{1.0, 0.0, 0.0}, secs, batch, hot,
                               hot_keys, seed + 3));
  }
  for (const PhaseResult& p : phases) table.add_row(phase_row(p));

  table.print("serve load (wall clock)");
  if (flags.boolean("csv")) std::fputs(table.to_csv().c_str(), stdout);
  std::printf("\n");

  // --- phase 4: replicated / sharded topology with a mid-run failover ---
  const auto shards = static_cast<size_t>(flags.i64_flag("shards"));
  const auto replicas = static_cast<size_t>(flags.i64_flag("replicas"));
  const auto readers = static_cast<size_t>(flags.i64_flag("readers"));
  const auto topo_n =
      static_cast<i64>(flags.i64_flag("topo_points")) / (smoke ? 10 : 1);
  const double topo_secs = flags.f64("topo_seconds") / (smoke ? 4.0 : 1.0);
  Rng topo_rng(seed + 7);
  const PointSet topo_points =
      synth::blobs_2d(topo_n, 12, 0.02, topo_n / 20, topo_rng);
  const TopologyResult topo =
      run_topology(topo_points, params, shards, replicas, readers, topo_secs,
                   seed);

  TablePrinter topo_table({"metric", "value"});
  topo_table.add_row({"aggregate qps", TablePrinter::cell(topo.qps(), 0)});
  topo_table.add_row(
      {"p50 us", TablePrinter::cell(topo.overall.quantile_micros(0.50), 2)});
  topo_table.add_row(
      {"p99 us", TablePrinter::cell(topo.overall.quantile_micros(0.99), 2)});
  topo_table.add_row(
      {"p999 us", TablePrinter::cell(topo.overall.quantile_micros(0.999), 2)});
  topo_table.add_row(
      {"failover window ms", TablePrinter::cell(topo.failover_window_ms, 2)});
  topo_table.add_row(
      {"p999 us during failover",
       TablePrinter::cell(topo.during_failover.quantile_micros(0.999), 2)});
  topo_table.add_row(
      {"queries during failover",
       TablePrinter::cell(topo.queries_during_failover)});
  topo_table.add_row({"failovers", TablePrinter::cell(topo.failovers)});
  topo_table.add_row(
      {"stale redirects", TablePrinter::cell(topo.stale_redirects)});
  topo_table.add_row(
      {"rejected writes", TablePrinter::cell(topo.rejected_writes)});
  topo_table.add_row({"lost committed epochs",
                      TablePrinter::cell(topo.lost_committed_epochs)});
  topo_table.print("serve topology: " + std::to_string(shards) + " shards x " +
                   std::to_string(replicas) + " replicas, " +
                   std::to_string(readers) + " readers");
  if (flags.boolean("csv")) std::fputs(topo_table.to_csv().c_str(), stdout);
  std::printf("\n");
  SDB_CHECK(topo.lost_committed_epochs == 0,
            "failover lost committed epochs — replication bug");
  write_topology_json(flags.string("out"), smoke, seed, topo_secs, phases,
                      topo);
  return 0;
}
