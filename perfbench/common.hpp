// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills in, exact sample statistics, and the span
// tracer used by traced runs (see README.md in this directory).
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace perfbench {

using sdb::i64;
using sdb::u32;
using sdb::u64;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (DFS blocks, trace files).
  std::string work_dir = ".bench_build/run";
  /// Where deterministic work counters are kept across runs (empty = off).
  std::string state_dir;
  unsigned nproc = 1;
};

/// Thread settings, chosen once from nproc and stamped into every result.
struct Threads {
  unsigned batch = 4;  ///< host_threads, index_build_threads, knn.threads
};
Threads choose_threads(unsigned nproc);

/// Ordered name -> (value, unit) list, printed as the result's metrics.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Deterministic work counters of one run: host-independent counts that
/// must repeat exactly for the same seed (and the same program).
using WorkCounts = std::map<std::string, u64>;

/// Everything a workload reports. Construction declares every end-to-end
/// and per-layer metric (at 0, the value of a layer a workload leaves
/// idle), so every workload prints the same metric set.
struct Outcome {
  Outcome();

  bool correct = true;
  u64 attempted = 0;
  /// Operations that did not complete correctly (errors, shed requests,
  /// failed checks).
  u64 failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  WorkCounts counts;
  /// Workload settings stamped next to the host/build stamp.
  std::map<std::string, std::string> settings;

  /// Record a correctness failure (printed to stderr, fails the run).
  void fail(const std::string& why);
};

// --- exact sample statistics ----------------------------------------------

double median(std::vector<double> samples);

/// The highest percentile (nearest rank) that still has at least ten
/// samples beyond it, but never below the median (with fewer than twenty
/// samples no percentile above the median has ten beyond it, and the tail
/// is the median). Reported with its percentile and sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
Tail tail(std::vector<double> samples);

/// Failures over attempts, add-one smoothed so that a clean run reads
/// 1/(attempted+1) instead of 0 (a zero median has no relative bound).
double smoothed_share(u64 failed, u64 attempted);

double seconds_since(Clock::time_point t0);

// --- process stamps ---------------------------------------------------------

double peak_rss_mb();
double process_cpu_s();

/// Collect host + build facts (nproc, SIMD variant, build type, SDB_SIMD).
std::map<std::string, std::string> host_stamp(const Options& opt,
                                              const Threads& threads);

// --- span tracer ------------------------------------------------------------

/// In-memory span recorder. Spans are recorded by the benchmark around its
/// calls into a layer's public functions; nothing inside the library is
/// instrumented. Thread-safe: executor tasks record from pool threads.
class Tracer {
 public:
  struct Span {
    u32 id = 0;
    u32 parent = 0;  ///< 0 = root
    u32 trace = 0;   ///< one id per job (all spans of a job share it)
    std::string name;
    i64 start_ns = 0;
    i64 end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, u32 parent, u32 trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] u32 id() const { return id_; }

   private:
    Tracer& tracer_;
    u32 id_ = 0;
  };

  /// Sum over spans called `name` in `trace` of their self time: duration
  /// minus the part of the interval their child spans cover.
  [[nodiscard]] double self_seconds(const std::string& name, u32 trace) const;
  /// Sum of plain durations of spans called `name` in `trace`.
  [[nodiscard]] double total_seconds(const std::string& name, u32 trace) const;
  /// Largest single duration of a span called `name` in `trace`.
  [[nodiscard]] double max_seconds(const std::string& name, u32 trace) const;

  /// Write every span plus per-name self-time totals as JSON.
  void write(const std::string& path,
             const std::map<std::string, std::string>& stamp) const;

 private:
  u32 begin(std::string name, u32 parent, u32 trace);
  void end(u32 id);
  [[nodiscard]] i64 now_ns() const;
  [[nodiscard]] double self_of(const Span& span) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// --- workloads ---------------------------------------------------------------

Outcome run_batch_lowd(const Options& opt, const Threads& threads);
Outcome run_batch_embed(const Options& opt, const Threads& threads);

/// Fill the metrics every workload reports the same way: setup_s (median of
/// the set-ups), peak_rss_mb and proc.cpu_s.
void finish_common(Outcome& out, const std::vector<double>& setup_s);

}  // namespace perfbench
