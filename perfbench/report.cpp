#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common.hpp"
#include "geom/distance_simd.hpp"

namespace perfbench {

Threads choose_threads(unsigned nproc) {
  Threads t;
  const unsigned n = std::max(1u, nproc);
  t.batch = std::min(4u, n);
  return t;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

Outcome::Outcome() {
  static const char* const kEndToEnd[][2] = {
      {"setup_s", "s"},
      {"job_s.p50", "s"},
      {"job_s.tail", "s"},
      {"ari", "ari"},
      {"read_latency_us.p50", "us"},
      {"read_latency_us.tail", "us"},
      {"write_latency_us.p50", "us"},
      {"write_latency_us.tail", "us"},
      {"goodput_qps", "1/s"},
      {"failed_frac", "frac"},
      {"peak_rss_mb", "MB"},
  };
  static const char* const kPerLayer[][2] = {
      {"dfs.read_s", "s"},
      {"dfs.bytes_read", "bytes"},
      {"synth.parse_s", "s"},
      {"spatial.build_s", "s"},
      {"core.partition_s", "s"},
      {"core.local.busy_s", "s"},
      {"core.local.max_s", "s"},
      {"core.local.imbalance", "ratio"},
      {"core.local.distance_evals", "count"},
      {"core.local.tree_nodes", "count"},
      {"core.local.hash_ops", "count"},
      {"core.local.queue_ops", "count"},
      {"core.local.seed_ops", "count"},
      {"core.local.frontier_peak", "count"},
      {"geom.ns_per_distance_eval", "ns"},
      {"core.codec.encode_s", "s"},
      {"core.codec.decode_s", "s"},
      {"core.codec.bytes", "bytes"},
      {"core.merge_s", "s"},
      {"core.merge.ops", "count"},
      {"core.merge.partial_clusters", "count"},
      {"core.merge.seeds_examined", "count"},
      {"knn.graph_s", "s"},
      {"knn.graph_evals", "count"},
      {"knn.rounds", "count"},
      {"knn.graph_ns_per_eval", "ns"},
      {"knn.recall", "frac"},
      {"knn.eps_graph_s", "s"},
      {"knn.eps_edges", "count"},
      {"knn.core_points", "count"},
      {"minispark.job_wall_s", "s"},
      {"minispark.task_busy_s", "s"},
      {"minispark.idle_core_s", "s"},
      {"minispark.self_s", "s"},
      {"minispark.task_attempts", "count"},
      {"minispark.broadcast_bytes", "bytes"},
      {"ref.seq_s", "s"},
      {"quality.fragments", "count"},
      {"trace.job_s.p50", "s"},
      {"trace.overhead_s", "s"},
      {"proc.cpu_s", "s"},
  };
  for (const auto& m : kEndToEnd) end_to_end.set(m[0], 0.0, m[1]);
  for (const auto& m : kPerLayer) per_layer.set(m[0], 0.0, m[1]);
}

void Outcome::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: correctness failure: %s\n", why.c_str());
  correct = false;
  ++failed;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  // Nearest rank r (1-based) leaves n - r samples beyond it.
  const size_t n = samples.size();
  const size_t rank = std::max(n >= 10 ? n - 10 : 0, (n + 1) / 2);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::map<std::string, std::string> host_stamp(const Options& opt,
                                              const Threads& threads) {
  std::map<std::string, std::string> s;
  s["nproc"] = std::to_string(opt.nproc);
  s["simd_variant"] = sdb::simd::active_variant_name();
  s["build_type"] = PERFBENCH_BUILD_TYPE;
  const char* env = std::getenv("SDB_SIMD");
  s["env.SDB_SIMD"] = env != nullptr ? env : "";
  s["threads.batch"] = std::to_string(threads.batch);
  s["seed"] = std::to_string(opt.seed);
  s["workload"] = opt.workload;
  s["seconds"] = std::to_string(opt.seconds);
  s["trace"] = opt.trace ? "1" : "0";
  return s;
}

double smoothed_share(u64 failed, u64 attempted) {
  return static_cast<double>(failed + 1) / static_cast<double>(attempted + 1);
}

void finish_common(Outcome& out, const std::vector<double>& setup_s) {
  std::string each;
  for (const double v : setup_s) {
    each += (each.empty() ? "" : " ") + std::to_string(v);
  }
  out.settings["setup_s.each"] = each;
  out.end_to_end.set("setup_s", median(setup_s), "s");
  out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.per_layer.set("proc.cpu_s", process_cpu_s(), "s");
}

// --- Tracer -------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, std::string name, u32 parent, u32 trace)
    : tracer_(tracer) {
  if (tracer_.enabled_) id_ = tracer_.begin(std::move(name), parent, trace);
}

Tracer::Scope::~Scope() {
  if (id_ != 0) tracer_.end(id_);
}

i64 Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

u32 Tracer::begin(std::string name, u32 parent, u32 trace) {
  const i64 t = now_ns();
  const std::scoped_lock lock(mu_);
  Span span;
  span.id = static_cast<u32>(spans_.size() + 1);
  span.parent = parent;
  span.trace = trace;
  span.name = std::move(name);
  span.start_ns = t;
  span.end_ns = t;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(u32 id) {
  const i64 t = now_ns();
  const std::scoped_lock lock(mu_);
  spans_[id - 1].end_ns = t;
}

double Tracer::self_of(const Span& span) const {
  // Union of the child intervals, clipped to the span (children may run in
  // parallel on executor threads and overlap each other).
  std::vector<std::pair<i64, i64>> kids;
  for (const Span& s : spans_) {
    if (s.parent != span.id) continue;
    const i64 a = std::max(s.start_ns, span.start_ns);
    const i64 b = std::min(s.end_ns, span.end_ns);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  i64 covered = 0;
  i64 cur_a = 0;
  i64 cur_b = -1;
  for (const auto& [a, b] : kids) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
}

double Tracer::self_seconds(const std::string& name, u32 trace) const {
  const std::scoped_lock lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.trace == trace && s.name == name) total += self_of(s);
  }
  return total;
}

double Tracer::total_seconds(const std::string& name, u32 trace) const {
  const std::scoped_lock lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.trace == trace && s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

double Tracer::max_seconds(const std::string& name, u32 trace) const {
  const std::scoped_lock lock(mu_);
  double best = 0.0;
  for (const Span& s : spans_) {
    if (s.trace == trace && s.name == name) {
      best = std::max(best, static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return best;
}

void Tracer::write(const std::string& path,
                   const std::map<std::string, std::string>& stamp) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const std::scoped_lock lock(mu_);
  f << "{\n  \"stamp\": {";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    f << (first ? "" : ", ") << '"' << k << "\": \"" << v << '"';
    first = false;
  }
  f << "},\n  \"self_s\": {";
  std::map<std::string, double> self_by_name;
  for (const Span& s : spans_) self_by_name[s.name] += self_of(s);
  first = true;
  char buf[64];
  for (const auto& [name, secs] : self_by_name) {
    std::snprintf(buf, sizeof(buf), "%.9f", secs);
    f << (first ? "" : ", ") << '"' << name << "\": " << buf;
    first = false;
  }
  f << "},\n  \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "    {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"trace\": " << s.trace << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "  ]\n}\n";
}

}  // namespace perfbench
