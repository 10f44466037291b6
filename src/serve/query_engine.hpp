// QueryEngine — the serving read front end: admission control, a ThreadPool
// worker back end, a sharded classify cache, and per-request metrics.
//
// The engine only reads. Writes take the one write path,
// stream::IngestPipeline -> ModelRegistry::apply_batch; a server runs one
// QueryEngine and one IngestPipeline over the same registry, and readers
// see a write once the pipeline publishes the epoch that carries it.
//
// Request life cycle:
//   try_submit -> admission (bounded in-flight count; full => shed with
//   kOverloaded, the backpressure signal) -> ThreadPool task -> execute()
//   against an RCU snapshot from the ModelRegistry -> completion callback.
//
// Admission is a single atomic counter rather than a second queue: the
// ThreadPool's own queue holds the admitted requests, and the counter
// bounds how many may be queued or running at once. Rejection is
// synchronous and cheap — an overloaded server answers "no" in O(1)
// instead of timing out, which is what an upstream load balancer wants.
//
// Metrics: monotonic counters (submitted/accepted/shed/completed, per-type,
// cache hits/misses), log-bucket latency histograms (p50/p99/p999 via
// HistogramSnapshot::quantile_micros), and the repo-wide WorkCounters
// (distance evals, tree node visits, ...) aggregated across workers so the
// serving layer's physical work is priced in the same currency as the
// batch engines (util/counters.hpp).
#pragma once

#include <array>
#include <chrono>
#include <functional>

#include "serve/classify_cache.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/model_registry.hpp"
#include "util/counters.hpp"
#include "util/thread_pool.hpp"

namespace sdb::serve {

enum class RequestType : u32 {
  kClassify = 0,  ///< which cluster would this point join?
  kLookup = 1,    ///< label of an existing point id
};
inline constexpr size_t kRequestTypes = 2;

enum class ReplyStatus : u32 {
  kOk = 0,
  kOverloaded,  ///< shed at admission (backpressure)
  kNotFound,    ///< lookup of an id the snapshot does not cover
  kInvalid,     ///< malformed request (bad dimension, bad id)
};

struct Request {
  RequestType type = RequestType::kClassify;
  std::vector<double> point;  ///< classify payload
  PointId id = -1;            ///< lookup target
};

struct Reply {
  ReplyStatus status = ReplyStatus::kInvalid;
  ClusterId label = kNoise;  ///< classify / lookup answer
  PointId id = -1;           ///< lookup: echo of the target
  u64 epoch = 0;             ///< snapshot epoch that answered
  bool cache_hit = false;
  /// The answering snapshot was built with DBSCAN++ core subsampling (the
  /// streaming ladder's degraded rung): eps-boundary points may misreport
  /// as noise. Callers that need exact answers should retry after the
  /// ladder recovers (the flag clears on the next exact publish).
  bool degraded_model = false;
};

struct MetricsSnapshot {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 shed = 0;       ///< rejected at admission
  u64 completed = 0;
  u64 invalid = 0;
  u64 degraded_model_reads = 0;  ///< reads answered from a subsampled snapshot
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  std::array<u64, kRequestTypes> by_type{};
  HistogramSnapshot latency;           ///< submit -> completion, all types
  HistogramSnapshot classify_latency;  ///< classify only
  WorkCounters work;                   ///< physical work done by workers

  [[nodiscard]] double shed_rate() const {
    return submitted == 0
               ? 0.0
               : static_cast<double>(shed) / static_cast<double>(submitted);
  }
};

class QueryEngine {
 public:
  struct Config {
    unsigned threads = 2;         ///< worker threads
    size_t queue_capacity = 1024; ///< max queued+running requests (admission)
    size_t cache_shards = 8;
    size_t cache_entries_per_shard = 1024;  ///< 0 disables the cache
  };

  QueryEngine(ModelRegistry& registry, Config config);
  /// Drains in-flight requests (ThreadPool teardown runs the queue dry).
  ~QueryEngine() = default;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  using Callback = std::function<void(const Reply&)>;

  /// Admit one request. Returns false (and invokes `on_done` with
  /// kOverloaded, if provided) when the engine is at capacity.
  bool try_submit(Request request, Callback on_done = {});

  /// Admit up to requests.size() requests as one ThreadPool task (amortizes
  /// per-task overhead for open-loop generators). Requests beyond the free
  /// capacity are shed; returns the number admitted. `on_done` fires once
  /// per admitted request.
  size_t try_submit_batch(std::vector<Request> requests, Callback on_done = {});

  /// Execute synchronously on the calling thread, bypassing admission (used
  /// by the workers themselves, the CLI serve loop, and tests).
  Reply execute(const Request& request);

  /// Block until every admitted request has completed.
  void drain() { pool_.wait_idle(); }

  [[nodiscard]] MetricsSnapshot metrics() const;
  [[nodiscard]] ModelRegistry& registry() { return registry_; }

 private:
  using Clock = std::chrono::steady_clock;

  Reply execute_counted(const Request& request);
  void complete(const Request& request, const Reply& reply,
                Clock::time_point submitted_at);

  ModelRegistry& registry_;
  Config config_;
  ClassifyCache cache_;

  std::atomic<size_t> in_flight_{0};
  std::atomic<u64> submitted_{0};
  std::atomic<u64> accepted_{0};
  std::atomic<u64> shed_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> invalid_{0};
  std::atomic<u64> degraded_model_reads_{0};
  std::atomic<u64> cache_hits_{0};
  std::atomic<u64> cache_misses_{0};
  std::array<std::atomic<u64>, kRequestTypes> by_type_{};
  LatencyHistogram latency_;
  LatencyHistogram classify_latency_;

  /// Work counters striped to keep completion cheap; summed on read.
  struct alignas(64) WorkStripe {
    mutable std::mutex mu;
    WorkCounters wc;
  };
  static constexpr size_t kWorkStripes = 8;
  std::array<WorkStripe, kWorkStripes> work_stripes_;

  ThreadPool pool_;  // last member: destroyed (joined) first
};

}  // namespace sdb::serve
