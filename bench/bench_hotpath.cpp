// Hot-path benchmark + perf-regression baseline (BENCH_hotpath.json).
//
// Three sections over the kd-tree (strip-transposed leaf layout, SIMD strip
// kernels):
//   build  — construction wall time, sequential and on the thread pool;
//   query  — exact range-query throughput through range_query_budgeted,
//            re-run on the forced-scalar kernel (counters checked equal),
//            plus a batched arm through range_query_batch (the executor's
//            entry point) checked list-for-list against it, each reported
//            as ns per distance eval raw and normalised to a same-run host
//            reference (a fixed double scalar loop);
//   e2e    — the full spark_dbscan pipeline wall time.
// Results print as tables and are also written as machine-readable JSON
// (schema documented in README "Hot-path bench") so every future PR can
// diff its perf trajectory against the committed BENCH_hotpath.json.
//
// --smoke shrinks the datasets so the run finishes in seconds; it is wired
// into ctest under the `perf` label, where --baseline compares the run's
// deterministic work counters against bench/hotpath_smoke_counters.txt
// exactly, so counter drift fails CI.
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "geom/distance_simd.hpp"

using namespace sdb;

namespace {

struct BuildNumbers {
  double seq_ms = 0.0;
  double parallel_ms = 0.0;
};

struct QueryNumbers {
  u64 queries = 0;
  double blocked_qps = 0.0;  ///< dispatched strip kernel
  double scalar_qps = 0.0;   ///< forced-scalar kernel
  double batch_qps = 0.0;    ///< one range_query_batch call
  u64 distance_evals_blocked = 0;
  u64 distance_evals_scalar = 0;
  u64 tree_nodes = 0;
  u64 neighbors = 0;
  double reference_ns = 0.0;  ///< host reference loop, ns per eval
};

/// ns per distance eval of an arm that answered `queries` at `qps`.
double ns_per_eval(const QueryNumbers& q, double qps) {
  return 1e9 * static_cast<double>(q.queries) /
         (qps * static_cast<double>(q.distance_evals_blocked));
}

struct E2eNumbers {
  bool pruned = false;
  u32 cores = 0;
  double wall_s = 0.0;
  double sim_total_s = 0.0;
};

struct ScalingPoint {
  unsigned threads = 1;
  double build_ms = 0.0;   ///< parallel build, best of reps
  double query_qps = 0.0;  ///< aggregate across `threads` query threads
};

struct DatasetReport {
  std::string name;
  size_t n = 0;
  int dim = 0;
  double eps = 0.0;
  size_t node_count = 0;  ///< kd-tree nodes at the default leaf size
  BuildNumbers build;
  QueryNumbers query;
  std::vector<ScalingPoint> scaling;
  E2eNumbers e2e;
  bool has_e2e = false;
};

double best_build_ms(const PointSet& points, const KdTreeOptions& options,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    const KdTree tree(points, options);
    best = std::min(best, sw.millis());
  }
  return best;
}

/// Round-robins the configs inside each rep so host-speed drift (routine on
/// virtualized hosts) hits every config equally instead of penalizing
/// whichever one happens to run last; each config reports its best pass.
void best_build_ms_interleaved(const PointSet& points,
                               std::span<const KdTreeOptions> options,
                               std::span<double* const> out, int reps) {
  for (double* o : out) *o = 1e300;
  for (int r = 0; r < reps; ++r) {
    for (size_t c = 0; c < options.size(); ++c) {
      Stopwatch sw;
      const KdTree tree(points, options[c]);
      *out[c] = std::min(*out[c], sw.millis());
    }
  }
}

/// Same-run host reference: a fixed double, ascending-d, scalar loop over
/// `rows_per_query` consecutive dataset rows per query point (as many rows
/// as the tree examines per query), best of `reps`, in ns per row. Dividing
/// a kernel's ns/eval by it cancels host-speed phases between recordings.
/// Keep this loop as it is: its value is that no change touches it.
double reference_ns_per_eval(const PointSet& points, double eps, u64 queries,
                             size_t stride, u64 rows_per_query, int reps) {
  const size_t n = points.size();
  const size_t dim = static_cast<size_t>(points.dim());
  const double eps2 = eps * eps;
  double best = 1e300;
  u64 hits = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    u64 done = 0;
    for (size_t i = 0; done < queries && i < n; i += stride, ++done) {
      const double* q = points[static_cast<PointId>(i)].data();
      size_t row = i;
      for (u64 r = 0; r < rows_per_query; ++r, ++row) {
        if (row == n) row = 0;
        const double* p = points[static_cast<PointId>(row)].data();
        double s = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = q[d] - p[d];
          s += diff * diff;
        }
        hits += s <= eps2 ? 1 : 0;
      }
    }
    best = std::min(best, sw.seconds() * 1e9 /
                              static_cast<double>(done * rows_per_query));
  }
  // Keep the loop observable so it cannot be optimised away.
  static std::atomic<u64> sink{0};
  sink.fetch_add(hits, std::memory_order_relaxed);
  return best;
}

/// Exact range queries from `queries` dataset points, round-robin. Each
/// variant is timed `reps` times and reports its best pass — on shared /
/// virtualized hosts the run-to-run swing is easily 2x, and best-of keeps
/// the ratios between variants meaningful even when a slow window hits one
/// of the passes.
QueryNumbers measure_queries(const PointSet& points, const KdTree& tree,
                             double eps, u64 queries, int reps) {
  QueryNumbers out;
  out.queries = queries;
  const size_t stride = std::max<size_t>(1, points.size() / queries);
  std::vector<PointId> hits;
  auto run = [&](u64* evals, double* qps) {
    u64 neighbors = 0;
    double best_qps = 0.0;
    u64 nodes = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WorkCounters wc;
      Stopwatch sw;
      neighbors = 0;
      {
        ScopedCounters scope(&wc);
        u64 done = 0;
        for (size_t i = 0; done < queries && i < points.size();
             i += stride, ++done) {
          hits.clear();
          tree.range_query_budgeted(points[static_cast<PointId>(i)], eps,
                                    QueryBudget{}, hits);
          neighbors += hits.size();
        }
      }
      best_qps = std::max(best_qps, static_cast<double>(queries) / sw.seconds());
      *evals = wc.distance_evals;
      nodes = wc.tree_nodes;
    }
    *qps = best_qps;
    out.tree_nodes = nodes;
    return neighbors;
  };
  out.neighbors = run(&out.distance_evals_blocked, &out.blocked_qps);
  out.reference_ns = reference_ns_per_eval(
      points, eps, queries, stride, out.distance_evals_blocked / queries,
      reps);
  // Scalar-vs-SIMD self-check: the same tree re-queried with the dispatched
  // kernel pinned to the scalar fallback must report the exact same
  // distance_evals and neighbor totals (the kernels' bit-identical
  // contract, distance_simd.hpp). scalar_qps also isolates the kernel's
  // contribution from the traversal work shared by both variants.
  simd::force_scalar(true);
  const u64 scalar_neighbors =
      run(&out.distance_evals_scalar, &out.scalar_qps);
  simd::force_scalar(false);
  SDB_CHECK(out.distance_evals_scalar == out.distance_evals_blocked,
            "forced-scalar rerun must evaluate the same candidates");
  SDB_CHECK(scalar_neighbors == out.neighbors,
            "forced-scalar rerun must find the same neighbors");

  // Batched arm: the same query points answered by one range_query_batch
  // call (blocks of kDistanceStrip queries sharing a tree walk). Its lists
  // and counters must equal the per-query arm's exactly.
  std::vector<PointId> ids;
  for (size_t i = 0; ids.size() < queries && i < points.size(); i += stride) {
    ids.push_back(static_cast<PointId>(i));
  }
  NeighborhoodCsr reference;
  reference.offsets.push_back(0);
  WorkCounters reference_wc;
  {
    ScopedCounters scope(&reference_wc);
    for (const PointId id : ids) {
      tree.range_query_budgeted(points[id], eps, QueryBudget{},
                                reference.ids);
      reference.offsets.push_back(reference.ids.size());
    }
  }
  NeighborhoodCsr batch;
  for (int rep = 0; rep < reps; ++rep) {
    WorkCounters wc;
    Stopwatch sw;
    {
      ScopedCounters scope(&wc);
      tree.range_query_batch(ids, eps, QueryBudget{}, batch);
    }
    out.batch_qps = std::max(
        out.batch_qps, static_cast<double>(ids.size()) / sw.seconds());
    SDB_CHECK(wc.distance_evals == reference_wc.distance_evals &&
                  wc.tree_nodes == reference_wc.tree_nodes,
              "batched queries must charge the per-query counters");
  }
  SDB_CHECK(batch.ids == reference.ids && batch.offsets == reference.offsets,
            "batched queries must return the per-query lists");
  return out;
}

/// Aggregate range-query throughput with `threads` concurrent query threads
/// sharing one (immutable) tree. STRONG scaling: `total_queries` is fixed
/// across thread counts and partitioned — each thread runs its share over
/// its own CONTIGUOUS chunk of the dataset at the same stride every arm
/// uses (the same access shape as the real pipeline, where every executor
/// range-queries its own spatial partition's points), with its own hits
/// buffer and thread-local WorkCounters, so the only shared state is the
/// read-only index. Fixed total work + equal stride keeps the 1-vs-N rows
/// comparable: earlier versions fixed PER-THREAD work, so higher thread
/// counts queried at a denser stride and the rows measured different
/// locality, not scaling. Chunked (not interleaved) assignment matters on a
/// timeslicing host: threads roaming the whole dataset evict each other's
/// tree regions at every context switch.
///
/// Measurement discipline (the old version's 1->4 thread "regression" was
/// entirely harness artifact): every worker warms up (faults in its stack,
/// hits buffer, and first tree pages), parks on a start flag, and only once
/// ALL workers are parked does the clock start — so thread spawn cost and
/// ragged starts are off the books. Best-of-`reps` absorbs scheduler noise,
/// which dominates when `threads` exceeds the host's cores and the workers
/// are purely timeslicing.
double threaded_query_qps(const PointSet& points, const KdTree& tree,
                          double eps, u64 total_queries, unsigned threads,
                          int reps) {
  double best_qps = 0.0;
  const size_t stride =
      std::max<size_t>(1, points.size() / std::max<u64>(1, total_queries));
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<u64> total{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        WorkCounters wc;
        ScopedCounters scope(&wc);
        std::vector<PointId> hits;
        const size_t chunk = points.size() / threads;
        const size_t begin = t * chunk;
        const size_t end = (t + 1 == threads) ? points.size() : begin + chunk;
        const u64 quota = total_queries / threads +
                          (t + 1 == threads ? total_queries % threads : 0);
        hits.clear();  // warmup query before signalling ready
        tree.range_query_budgeted(points[static_cast<PointId>(begin)], eps,
                                  QueryBudget{}, hits);
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        u64 done = 0;
        for (size_t i = begin; done < quota && i < end; i += stride, ++done) {
          hits.clear();
          tree.range_query_budgeted(points[static_cast<PointId>(i)], eps,
                                    QueryBudget{}, hits);
        }
        total.fetch_add(done, std::memory_order_relaxed);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    Stopwatch sw;
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    best_qps = std::max(best_qps,
                        static_cast<double>(total.load()) / sw.seconds());
  }
  return best_qps;
}

E2eNumbers measure_e2e(const PointSet& points, const synth::DatasetSpec& spec,
                       u64 seed, bool pruned) {
  E2eNumbers out;
  out.pruned = pruned;
  out.cores = 8;
  dbscan::SparkDbscanConfig cfg;
  cfg.params = dbscan::DbscanParams{spec.eps, spec.minpts};
  cfg.partitions = out.cores;
  cfg.seed = seed;
  if (pruned) {
    cfg.budget.max_neighbors = 64;  // the paper's r1m pruning configuration
    cfg.min_partial_cluster_size = 4;
  }
  minispark::SparkContext ctx(bench::cluster_config(out.cores, seed));
  dbscan::SparkDbscan dbscan(ctx, cfg);
  const auto report = dbscan.run(points);
  out.sim_total_s = report.sim_read_s + report.sim_tree_s +
                    report.sim_broadcast_s + report.sim_executor_s +
                    report.sim_collect_s + report.sim_merge_s;
  out.wall_s = report.wall_s;
  return out;
}

void write_json(const std::string& path, const std::string& mode,
                unsigned threads, u64 seed,
                const std::vector<DatasetReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  SDB_CHECK(f != nullptr, "cannot open bench output file");
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n  \"mode\": \"%s\",\n",
               mode.c_str());
  std::fprintf(f, "  \"kernel_variant\": \"%s\",\n",
               simd::active_variant_name());
  std::fprintf(f, "  \"host_threads\": %u,\n",
               std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(f, "  \"build_threads\": %u,\n  \"seed\": %llu,\n", threads,
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& r = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n\": %zu, \"dim\": %d, "
                 "\"eps\": %.3f,\n",
                 r.name.c_str(), r.n, r.dim, r.eps);
    std::fprintf(f,
                 "     \"build\": {\"seq_ms\": %.3f, \"parallel_ms\": %.3f, "
                 "\"parallel_speedup\": %.3f},\n",
                 r.build.seq_ms, r.build.parallel_ms,
                 r.build.seq_ms / r.build.parallel_ms);
    std::fprintf(f,
                 "     \"query\": {\"queries\": %llu, "
                 "\"blocked_qps\": %.1f, "
                 "\"scalar_qps\": %.1f, \"simd_speedup\": %.3f, "
                 "\"batch_qps\": %.1f, \"batch_speedup\": %.3f, "
                 "\"neighbors\": %llu, \"distance_evals_blocked\": %llu, "
                 "\"tree_nodes\": %llu,\n"
                 "               \"ns_per_eval\": %.3f, "
                 "\"batch_ns_per_eval\": %.3f, "
                 "\"reference_ns_per_eval\": %.3f, "
                 "\"ns_per_eval_norm\": %.3f, "
                 "\"batch_ns_per_eval_norm\": %.3f}",
                 static_cast<unsigned long long>(r.query.queries),
                 r.query.blocked_qps, r.query.scalar_qps,
                 r.query.blocked_qps / r.query.scalar_qps, r.query.batch_qps,
                 r.query.batch_qps / r.query.blocked_qps,
                 static_cast<unsigned long long>(r.query.neighbors),
                 static_cast<unsigned long long>(
                     r.query.distance_evals_blocked),
                 static_cast<unsigned long long>(r.query.tree_nodes),
                 ns_per_eval(r.query, r.query.blocked_qps),
                 ns_per_eval(r.query, r.query.batch_qps),
                 r.query.reference_ns,
                 ns_per_eval(r.query, r.query.blocked_qps) /
                     r.query.reference_ns,
                 ns_per_eval(r.query, r.query.batch_qps) /
                     r.query.reference_ns);
    std::fprintf(f, ",\n     \"scaling\": [");
    for (size_t s = 0; s < r.scaling.size(); ++s) {
      const ScalingPoint& sp = r.scaling[s];
      std::fprintf(f,
                   "%s{\"threads\": %u, \"build_ms\": %.3f, "
                   "\"query_qps\": %.1f}",
                   s == 0 ? "" : ", ", sp.threads, sp.build_ms, sp.query_qps);
    }
    std::fprintf(f, "]");
    if (r.has_e2e) {
      std::fprintf(f,
                   ",\n     \"e2e\": {\"pruned\": %s, \"cores\": %u, "
                   "\"wall_s\": %.3f, \"sim_total_s\": %.3f}",
                   r.e2e.pruned ? "true" : "false", r.e2e.cores,
                   r.e2e.wall_s, r.e2e.sim_total_s);
    }
    std::fprintf(f, "}%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// The run's deterministic work counters: per dataset, the per-query arm's
/// distance evals, neighbors and tree-node visits, and the tree's size.
std::map<std::string, u64> work_counters(
    const std::vector<DatasetReport>& reports) {
  std::map<std::string, u64> out;
  for (const DatasetReport& r : reports) {
    out[r.name + ".distance_evals_blocked"] = r.query.distance_evals_blocked;
    out[r.name + ".neighbors"] = r.query.neighbors;
    out[r.name + ".tree_nodes"] = r.query.tree_nodes;
    out[r.name + ".node_count"] = r.node_count;
  }
  return out;
}

/// Compare `got` with the "name value" lines of the file at `path` ('#'
/// starts a comment). On any difference print each one plus the lines that
/// would re-pin the file, and return false.
bool counters_match(const std::string& path,
                    const std::map<std::string, u64>& got) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "baseline %s: cannot open\n", path.c_str());
    return false;
  }
  std::map<std::string, u64> want;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    u64 value = 0;
    if (fields >> name >> value) want[name] = value;
  }
  if (want == got) {
    std::printf("work counters match %s\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "work counters differ from %s:\n", path.c_str());
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it == got.end()) {
      std::fprintf(stderr, "  %s: baseline %llu, not measured\n",
                   name.c_str(), static_cast<unsigned long long>(value));
    } else if (it->second != value) {
      std::fprintf(stderr, "  %s: baseline %llu, run %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value),
                   static_cast<unsigned long long>(it->second));
    }
  }
  std::fprintf(stderr, "this run's lines (re-pin only for an intended "
                       "change to the work):\n");
  for (const auto& [name, value] : got) {
    std::fprintf(stderr, "%s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.add_bool("smoke", false,
                 "seconds-scale run for the perf ctest label (small datasets, "
                 "fewer queries)");
  flags.add_string("out", "BENCH_hotpath.json", "JSON output path");
  flags.add_i64("threads", 0,
                "parallel build threads (0 = hardware concurrency)");
  flags.add_i64("queries", 2000, "range queries per dataset");
  flags.add_i64("seed", 42, "dataset seed");
  flags.add_bool("csv", false, "also print tables as CSV");
  flags.add_string("baseline", "",
                   "committed work-counter file to compare against exactly "
                   "(exit 1 on any difference)");
  flags.parse(argc, argv);

  const bool smoke = flags.boolean("smoke");
  const u64 seed = static_cast<u64>(flags.i64_flag("seed"));
  const u64 queries =
      static_cast<u64>(flags.i64_flag("queries")) / (smoke ? 4 : 1);
  unsigned threads = static_cast<unsigned>(flags.i64_flag("threads"));
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const int build_reps = smoke ? 2 : 3;

  // 100k and 1M uniform points at the paper's d=10 (Table I r100k / r1m);
  // smoke shrinks both so the perf-label ctest stays in the seconds range.
  struct Run {
    const char* preset;
    double scale;
    bool e2e;
    bool e2e_pruned;
  };
  const std::vector<Run> runs =
      smoke ? std::vector<Run>{{"r10k", 1.0, true, false}}
            : std::vector<Run>{{"r100k", 1.0, true, false},
                               {"r1m", 1.0, true, true}};

  std::vector<DatasetReport> reports;
  for (const Run& run : runs) {
    const auto spec = *synth::find_preset(run.preset);
    const PointSet points = synth::generate(spec, seed, run.scale);
    DatasetReport r;
    r.name = spec.name;
    r.n = points.size();
    r.dim = points.dim();
    r.eps = spec.eps;

    const KdTreeOptions build_cfgs[] = {{.build_threads = 1},
                                        {.build_threads = threads}};
    double* const build_outs[] = {&r.build.seq_ms, &r.build.parallel_ms};
    best_build_ms_interleaved(points, build_cfgs, build_outs, build_reps);

    const KdTree tree(points, {.build_threads = threads});
    r.node_count = tree.node_count();
    r.query = measure_queries(points, tree, spec.eps, queries, smoke ? 2 : 3);

    // Thread-scaling: parallel build and concurrent query throughput at
    // 1/2/4/hw threads (the ROADMAP's multi-thread build/query row).
    std::vector<unsigned> scale_threads = smoke
        ? std::vector<unsigned>{1, 2}
        : std::vector<unsigned>{1, 2, 4,
                                std::max(1u,
                                         std::thread::hardware_concurrency())};
    std::sort(scale_threads.begin(), scale_threads.end());
    scale_threads.erase(std::unique(scale_threads.begin(),
                                    scale_threads.end()),
                        scale_threads.end());
    // Interleave the reps across thread counts (round-robin, like the build
    // arms): on a throttled host, drift between back-to-back measurement
    // windows otherwise shows up as fake scaling dips.
    for (const unsigned t : scale_threads) {
      ScalingPoint sp;
      sp.threads = t;
      sp.build_ms = 1e300;
      sp.query_qps = 0.0;
      r.scaling.push_back(sp);
    }
    for (int rep = 0; rep < (smoke ? 2 : 5); ++rep) {
      for (size_t s = 0; s < scale_threads.size(); ++s) {
        ScalingPoint& sp = r.scaling[s];
        sp.build_ms = std::min(
            sp.build_ms,
            best_build_ms(points, {.build_threads = sp.threads}, 1));
        sp.query_qps = std::max(
            sp.query_qps,
            threaded_query_qps(points, tree, spec.eps, queries, sp.threads,
                               1));
      }
    }

    if (run.e2e) {
      r.e2e = measure_e2e(points, spec, seed, run.e2e_pruned);
      r.has_e2e = true;
    }
    reports.push_back(r);

    TablePrinter table({"metric", "baseline", "measured", "speedup"});
    table.add_row({"build: 1 thread vs pool (ms)",
                   TablePrinter::cell(r.build.seq_ms, 1),
                   TablePrinter::cell(r.build.parallel_ms, 1),
                   TablePrinter::cell(r.build.seq_ms / r.build.parallel_ms,
                                      2)});
    table.add_row(
        {"query: scalar vs SIMD kernel (q/s)",
         TablePrinter::cell(r.query.scalar_qps, 0),
         TablePrinter::cell(r.query.blocked_qps, 0),
         TablePrinter::cell(r.query.blocked_qps / r.query.scalar_qps, 2)});
    table.add_row(
        {"query: per-query vs batched (q/s)",
         TablePrinter::cell(r.query.blocked_qps, 0),
         TablePrinter::cell(r.query.batch_qps, 0),
         TablePrinter::cell(r.query.batch_qps / r.query.blocked_qps, 2)});
    table.add_row(
        {"ns/eval: host reference vs batched",
         TablePrinter::cell(r.query.reference_ns, 3),
         TablePrinter::cell(ns_per_eval(r.query, r.query.batch_qps), 3),
         TablePrinter::cell(r.query.reference_ns /
                                ns_per_eval(r.query, r.query.batch_qps),
                            2)});
    if (r.has_e2e) {
      table.add_row({"e2e wall (s)", "-", TablePrinter::cell(r.e2e.wall_s, 2),
                     "-"});
    }
    bench::emit(table,
                "hot path: " + r.name + " (" + std::to_string(r.n) +
                    " points, d=" + std::to_string(r.dim) + ", " +
                    std::to_string(threads) + " build threads, kernel=" +
                    simd::active_variant_name() + ")",
                flags.boolean("csv"));

    TablePrinter scaling_table(
        {"threads", "build_ms", "build_speedup", "query_qps", "query_speedup"});
    for (const ScalingPoint& sp : r.scaling) {
      scaling_table.add_row(
          {TablePrinter::cell(static_cast<u64>(sp.threads)),
           TablePrinter::cell(sp.build_ms, 1),
           TablePrinter::cell(r.scaling.front().build_ms / sp.build_ms, 2),
           TablePrinter::cell(sp.query_qps, 0),
           TablePrinter::cell(sp.query_qps / r.scaling.front().query_qps, 2)});
    }
    bench::emit(scaling_table, "thread scaling: " + r.name,
                flags.boolean("csv"));
  }

  write_json(flags.string("out"), smoke ? "smoke" : "full", threads, seed,
             reports);
  const std::string baseline = flags.string("baseline");
  if (!baseline.empty() && !counters_match(baseline, work_counters(reports))) {
    return 1;
  }
  return 0;
}
