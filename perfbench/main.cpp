// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload <batch_lowd|batch_embed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--state-dir <dir>]
//
// Prints a host/build stamp line, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits non-zero when any correctness check failed.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--state-dir <dir>]\n",
               why);
  std::exit(2);
}

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--work-dir") {
        opt.work_dir = val;
      } else if (key == "--state-dir") {
        opt.state_dir = val;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  opt.nproc = host_nproc();
  return opt;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, std::string>& kv) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    s += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
    first = false;
  }
  return s + "}";
}

/// Compare this run's deterministic work counters with the ones an earlier
/// run of the same program, workload, seed and mode left in the state
/// directory; record them when this is the first such run.
void check_counts_across_runs(const Options& opt, Outcome& out) {
  if (opt.state_dir.empty() || out.counts.empty()) return;
  std::filesystem::create_directories(opt.state_dir);
  const std::string path = opt.state_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".counts";
  std::ifstream in(path);
  if (in) {
    WorkCounts earlier;
    std::string name;
    u64 value = 0;
    while (in >> name >> value) earlier[name] = value;
    if (earlier != out.counts) {
      for (const auto& [k, v] : out.counts) {
        const auto it = earlier.find(k);
        if (it == earlier.end() || it->second != v) {
          out.fail("work counter " + k + " = " + std::to_string(v) +
                   " differs from an earlier run with the same seed (" +
                   (it == earlier.end() ? std::string("absent")
                                        : std::to_string(it->second)) +
                   ")");
        }
      }
      if (earlier.size() != out.counts.size()) {
        out.fail("work counter set differs from an earlier run");
      }
    }
    return;
  }
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream f(tmp);
    for (const auto& [k, v] : out.counts) f << k << ' ' << v << '\n';
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with asserts "
                       "enabled (NDEBUG unset)\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const Threads threads = choose_threads(opt.nproc);
  std::filesystem::create_directories(opt.work_dir);

  Outcome out;
  if (opt.workload == "batch_lowd") {
    out = run_batch_lowd(opt, threads);
  } else if (opt.workload == "batch_embed") {
    out = run_batch_embed(opt, threads);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  check_counts_across_runs(opt, out);

  std::map<std::string, std::string> stamp = host_stamp(opt, threads);
  for (const auto& [k, v] : out.settings) stamp[k] = v;
  std::map<std::string, std::string> counts;
  for (const auto& [k, v] : out.counts) counts[k] = std::to_string(v);
  std::printf("{\"stamp\": %s, \"work_counters\": %s}\n",
              json_object(stamp).c_str(), json_object(counts).c_str());

  const Metrics& shown = opt.trace ? out.per_layer : out.end_to_end;
  std::string metrics = "{";
  bool first = true;
  for (const auto& [name, vu] : shown.items()) {
    if (!std::isfinite(vu.first)) {
      out.fail("metric " + name + " is not a finite number");
      continue;
    }
    metrics += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
               json_number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<u64>(1, out.attempted)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
