// Shared plumbing for the per-figure bench harnesses.
//
// Every harness reproduces one table/figure of the paper. Datasets default
// to a reduced scale so the whole bench suite completes in minutes on a
// laptop-class host; pass --full for the paper's exact sizes (Table I).
// All results are reported on the simulated cluster clock (see
// minispark/cost_model.hpp and DESIGN.md §2).
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/dbscan_seq.hpp"
#include "core/spark_dbscan.hpp"
#include "minispark/spark_context.hpp"
#include "spatial/kd_tree.hpp"
#include "synth/presets.hpp"
#include "util/flags.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace sdb::bench {

/// Default down-scale factor per Table I preset (1.0 = paper size).
inline double default_scale(const std::string& preset) {
  if (preset == "c10k" || preset == "r10k") return 1.0;
  if (preset == "c100k" || preset == "r100k") return 0.25;
  if (preset == "r1m") return 0.05;
  return 1.0;
}

/// Resolve the scale for a preset from --full / --scale flags.
inline double resolve_scale(const Flags& flags, const std::string& preset) {
  if (flags.boolean("full")) return 1.0;
  const double s = flags.f64("scale");
  return s > 0.0 ? s : default_scale(preset);
}

/// Register the flags every harness shares.
inline void add_common_flags(Flags& flags) {
  flags.add_bool("full", false, "run at the paper's full Table I sizes");
  flags.add_f64("scale", 0.0,
                "explicit dataset scale in (0,1]; 0 = per-preset default");
  flags.add_i64("seed", 42, "experiment seed (data, stragglers, faults)");
  flags.add_bool("csv", false, "also print tables as CSV");
}

/// Simulated-clock results of one sequential (1-core) DBSCAN run.
struct SeqBaseline {
  double sim_read_s = 0.0;
  double sim_tree_s = 0.0;
  double sim_cluster_s = 0.0;
  dbscan::Clustering clustering;

  [[nodiscard]] double sim_total_s() const {
    return sim_read_s + sim_tree_s + sim_cluster_s;
  }
};

/// Run the sequential baseline with the same cost model the cluster uses.
inline SeqBaseline sequential_baseline(const PointSet& points,
                                       const dbscan::DbscanParams& params,
                                       const minispark::CostModel& cost,
                                       const QueryBudget& budget = {}) {
  SeqBaseline out;
  WorkCounters read_wc;
  read_wc.bytes_read = points.byte_size();
  read_wc.points_processed = points.size();
  out.sim_read_s = cost.compute_seconds(read_wc);

  WorkCounters tree_wc;
  Stopwatch sw;
  std::unique_ptr<KdTree> tree;
  {
    ScopedCounters scope(&tree_wc);
    tree = std::make_unique<KdTree>(points);
    double log2n = 1.0;
    for (size_t x = points.size(); x > 1; x >>= 1) log2n += 1.0;
    tree_wc.distance_evals +=
        static_cast<u64>(static_cast<double>(points.size()) * log2n);
  }
  out.sim_tree_s = cost.compute_seconds(tree_wc);

  auto seq = dbscan::dbscan_sequential(points, *tree, params, budget);
  out.sim_cluster_s = cost.compute_seconds(seq.counters);
  out.clustering = std::move(seq.clustering);
  return out;
}

/// Cluster config the benches share: executors == cores, mild stragglers.
inline minispark::ClusterConfig cluster_config(u32 cores, u64 seed) {
  minispark::ClusterConfig cfg;
  cfg.executors = cores;
  cfg.cores_per_executor = 1;
  cfg.host_threads = 1;  // deterministic single-host execution
  cfg.seed = seed;
  cfg.straggler.fraction = 0.05;
  cfg.straggler.max_extra = 0.3;
  return cfg;
}

/// Figure benches reproduce the PAPER's system, so they default to the
/// paper's own choices: one SEED per foreign partition (Algorithm 3) and the
/// single-pass status merge (Algorithm 4). The sound variants (all-foreign +
/// union-find) are library defaults and are compared in bench_ablation_seeds.
inline void apply_paper_strategies(dbscan::SparkDbscanConfig& cfg) {
  cfg.seed_strategy = dbscan::SeedStrategy::kOnePerPartition;
  cfg.merge_strategy = dbscan::MergeStrategy::kPaperSinglePass;
}

inline void emit(const TablePrinter& table, const std::string& title,
                 bool csv) {
  table.print(title);
  if (csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  }
  std::printf("\n");
}

/// Compare `got` with the "name value" lines of the file at `path` ('#'
/// starts a comment). On any difference print each one plus the lines that
/// would re-pin the file, and return false.
inline bool counters_match(const std::string& path,
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

}  // namespace sdb::bench
