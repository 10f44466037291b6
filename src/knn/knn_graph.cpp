#include "knn/knn_graph.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <thread>
#include <utility>

#include "fault/injection.hpp"
#include "geom/distance.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdb::knn {

double KnnGraph::kth_distance2(PointId i) const {
  const u32 m = row_size(i);
  if (m < k_) return std::numeric_limits<double>::infinity();
  return row_d2(i)[k_ - 1];
}

u64 KnnGraph::digest() const {
  u64 h = 1469598103934665603ull;
  auto fold = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t b = 0; b < size; ++b) {
      h ^= bytes[b];
      h *= 1099511628211ull;
    }
  };
  fold(&n_, sizeof(n_));
  fold(&k_, sizeof(k_));
  fold(ids_.data(), ids_.size() * sizeof(PointId));
  fold(d2_.data(), d2_.size() * sizeof(double));
  return h;
}

namespace {

/// Bounded max-heap over lexicographic (d2, id) pairs backing one graph row
/// during construction — the same smaller-id tie-break at the k-th distance
/// as SpatialIndex::knn_query, so exact rows are unique and build-order
/// independent.
struct RowHeap {
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  size_t cap = 0;

  void offer(double d2, PointId id) {
    const Entry cand{d2, id};
    if (heap.size() < cap) {
      heap.push(cand);
    } else if (cand < heap.top()) {
      heap.pop();
      heap.push(cand);
    }
  }
  [[nodiscard]] bool full() const { return heap.size() == cap; }
  [[nodiscard]] double worst() const { return heap.top().first; }

  /// Drain ascending into a graph row (padding already in place).
  void drain(std::span<PointId> ids, std::span<double> d2s) {
    for (size_t i = heap.size(); i-- > 0;) {
      ids[i] = heap.top().second;
      d2s[i] = heap.top().first;
      heap.pop();
    }
  }
};

unsigned resolve_threads(unsigned requested, size_t n) {
  if (requested == 1) return 1;
  unsigned t = requested != 0 ? requested
                              : std::max(1u, std::thread::hardware_concurrency());
  // Below ~4k points the task-spawn overhead beats the parallelism.
  if (n < 4096) return 1;
  return std::min<unsigned>(t, 16);
}

/// Run fn(begin, end, chunk_index) over [0, n) in contiguous chunks —
/// sequential inline when threads == 1, else on a pool with a barrier.
/// Chunk boundaries are identical either way, so per-chunk tallies are too.
template <typename Fn>
void parallel_chunks(size_t n, unsigned threads, Fn&& fn) {
  if (threads <= 1 || n == 0) {
    fn(size_t{0}, n, size_t{0});
    return;
  }
  const size_t chunks = std::min<size_t>(threads * 4, (n + 255) / 256);
  const size_t per = (n + chunks - 1) / chunks;
  ThreadPool pool(threads);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per;
    const size_t end = std::min(n, begin + per);
    if (begin >= end) break;
    pool.submit([&fn, begin, end, c] { fn(begin, end, c); });
  }
  pool.wait_idle();
}

/// Per-chunk work tallies of one parallel pass. Each point's work is
/// independent of the chunking, so the folded totals are thread-invariant.
struct ChunkTally {
  u64 updates = 0;
  u64 evals = 0;
  u64 exact = 0;
  u64 drops = 0;
  u64 candidates = 0;
};

/// Add a pass's tallies to `stats` and zero them; returns the pass's
/// row-slot updates.
u64 fold_tallies(std::vector<ChunkTally>& tally, KnnGraphBuildStats& stats) {
  u64 updates = 0;
  for (ChunkTally& t : tally) {
    updates += t.updates;
    stats.distance_evals += t.evals;
    stats.exact_evals += t.exact;
    stats.dropped_edges += t.drops;
    stats.candidates += t.candidates;
    t = ChunkTally{};
  }
  stats.updates += updates;
  return updates;
}

/// Kernel filter of one block of `count` candidate rows (ids from `id(l)`)
/// against a full row's worst d2 `tau`. Each row is transposed as
/// float(p - q) — the query-relative form of DESIGN.md §14, whose slack has
/// no extent term — into `strip`, and the kernel scans it with the zero
/// query `origin`. Returns the maybe lanes: a superset of the rows whose
/// double d2 is <= tau (every row when the thresholds are unusable), which
/// the caller rechecks.
template <typename IdFn>
u32 filter_block(simd::StripKernelFn kernel, const PointSet& points,
                 std::span<const double> q, double tau, size_t count,
                 IdFn&& id, float* strip, const float* origin) {
  const u32 all = strip_lanes(0, count);
  const simd::StripThresholds th =
      simd::StripSlack(tau, q.size()).at(0.0);
  if (!th.usable) return all;
  for (size_t l = 0; l < count; ++l) {
    strip_relative(points[id(l)], q.data(), strip + l, kDistanceStrip);
  }
  simd::StripMasks m;
  kernel(origin, 1, q.size(), th.sure_le, th.maybe_le, strip, all, &m);
  return m.maybe;
}

/// Exact rows: brute-force scan per point in blocks of kDistanceStrip
/// rows, filtered by the kernel against the row's worst d2 once the row is
/// full (the kd-tree knn idiom — see KdTree::knn_query). One distance_eval
/// per candidate row examined (n-1 per point: self excluded); exact_evals
/// counts the candidates offered to the row with their double d2.
void build_exact(const PointSet& points, const KnnGraphConfig& cfg,
                 KnnGraph& graph, KnnGraphBuildStats& stats) {
  const size_t n = points.size();
  const size_t dim = static_cast<size_t>(points.dim());
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  const unsigned threads = resolve_threads(cfg.threads, n);

  std::vector<ChunkTally> tally(threads * 4 + 1);
  parallel_chunks(n, threads, [&](size_t begin, size_t end, size_t chunk) {
    RowHeap row;
    u64 exact = 0;
    std::vector<float> strip(kDistanceStrip * dim, 0.0f);
    const std::vector<float> origin(dim, 0.0f);
    for (size_t p = begin; p < end; ++p) {
      const std::span<const double> q = points[static_cast<PointId>(p)];
      row.cap = cfg.k;
      for (size_t base = 0; base < n; base += kDistanceStrip) {
        const size_t m = std::min(kDistanceStrip, n - base);
        // A full row only admits rows with d2 <= its (finite) worst: the
        // kernel's maybe lanes hold all of them, the recheck drops the rest.
        const bool full = row.full() && std::isfinite(row.worst());
        const double tau = full ? row.worst() : 0.0;
        u32 mask = full ? filter_block(
                              kernel, points, q, tau, m,
                              [&](size_t l) {
                                return static_cast<PointId>(base + l);
                              },
                              strip.data(), origin.data())
                        : strip_lanes(0, m);
        for (; mask != 0; mask &= mask - 1) {
          const auto id = static_cast<PointId>(base + std::countr_zero(mask));
          if (id == static_cast<PointId>(p)) continue;
          const double d2 = squared_distance_uncounted(q, points[id]);
          if (full && !(d2 <= tau)) continue;
          row.offer(d2, id);
          ++exact;
        }
      }
      row.drain(graph.mutable_row_ids(static_cast<PointId>(p)),
                graph.mutable_row_d2(static_cast<PointId>(p)));
    }
    tally[chunk].evals += (end - begin) * (n - 1);
    tally[chunk].exact += exact;
  });
  fold_tallies(tally, stats);
}

/// Sorted-row insertion for descent: keep row ascending (d2, id), return
/// whether the candidate displaced a slot. Skips ids already present.
/// `flags` is the row's per-slot new/old bits for the incremental local
/// join — it shifts in lockstep with the slots and an inserted entry is
/// always marked new.
bool row_insert(std::span<PointId> ids, std::span<double> d2s,
                std::span<unsigned char> flags, u32 k, double d2,
                PointId id) {
  // Fast reject before the O(k) dedup scan: a full row turns away any
  // candidate that does not beat the worst (d2, id) slot — including a
  // candidate already present at that exact slot, which the scan below
  // would also reject.
  if (ids[k - 1] != kNoNeighbor &&
      std::pair{d2, id} >= std::pair{d2s[k - 1], ids[k - 1]}) {
    return false;
  }
  u32 m = 0;
  while (m < k && ids[m] != kNoNeighbor) {
    if (ids[m] == id) return false;
    ++m;
  }
  if (m == k) {
    // Full: must beat the worst (d2, id) pair.
    if (std::pair{d2, id} >= std::pair{d2s[k - 1], ids[k - 1]}) return false;
    --m;  // the worst slot is overwritten by the shift below
  }
  // Shift the tail up and insert in (d2, id) order.
  u32 pos = m;
  while (pos > 0 &&
         std::pair{d2s[pos - 1], ids[pos - 1]} > std::pair{d2, id}) {
    d2s[pos] = d2s[pos - 1];
    ids[pos] = ids[pos - 1];
    flags[pos] = flags[pos - 1];
    --pos;
  }
  d2s[pos] = d2;
  ids[pos] = id;
  flags[pos] = 1;
  return true;
}

/// Pull every cache line of a point's coordinate row toward L1 — the rows
/// of a join block are scattered across the point set.
void prefetch_row(std::span<const double> p) {
  const char* bytes = reinterpret_cast<const char*>(p.data());
  for (size_t off = 0; off < p.size_bytes(); off += 64) {
    __builtin_prefetch(bytes + off);
  }
}

/// Candidate set of one point's local join: an id bitmap with a one-bit-
/// per-word summary level, plus the OR of the path new-bits per id. Adding
/// is O(1); draining visits ids in ascending order — the order the sort +
/// unique it replaces produced — in O(n/4096 + distinct ids), and leaves
/// every array zeroed for the next point.
class CandidateSet {
 public:
  explicit CandidateSet(size_t n)
      : seen_((n + 63) / 64, 0), summary_((seen_.size() + 63) / 64, 0),
        fresh_(n, 0) {}

  void add(PointId c, unsigned char fresh) {
    const auto id = static_cast<size_t>(c);
    seen_[id >> 6] |= u64{1} << (id & 63);
    summary_[id >> 12] |= u64{1} << ((id >> 6) & 63);
    fresh_[id] |= fresh;
  }

  /// fn(id, fresh) once per distinct id, ascending; resets the set.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (size_t s = 0; s < summary_.size(); ++s) {
      for (u64 words = std::exchange(summary_[s], 0); words != 0;
           words &= words - 1) {
        const size_t w = s * 64 + static_cast<size_t>(std::countr_zero(words));
        for (u64 bits = std::exchange(seen_[w], 0); bits != 0;
             bits &= bits - 1) {
          const size_t id =
              w * 64 + static_cast<size_t>(std::countr_zero(bits));
          fn(static_cast<PointId>(id), std::exchange(fresh_[id], 0));
        }
      }
    }
  }

 private:
  std::vector<u64> seen_;
  std::vector<u64> summary_;
  std::vector<unsigned char> fresh_;
};

/// NN-descent refinement (Dong et al., incremental local join): every
/// round, each point t gathers candidates from its sampled forward +
/// reverse neighborhood's neighborhoods (read from the PREVIOUS round's
/// rows — the double buffer is what makes the build bit-deterministic for
/// any thread count), evaluates the ones reachable through at least one
/// new edge, and improves its own row in place.
void build_descent(const PointSet& points, const KnnGraphConfig& cfg,
                   KnnGraph& graph, KnnGraphBuildStats& stats) {
  const size_t n = points.size();
  const size_t dim = static_cast<size_t>(points.dim());
  const u32 k = cfg.k;
  const unsigned threads = resolve_threads(cfg.threads, n);
  const u64 init_seed = derive_seed(cfg.seed, "knn.init");
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();

  // Per-slot new/old bits for the incremental local join (Dong et al.): a
  // slot is "new" until the round that exploits it as a join pivot, and a
  // candidate pair is evaluated only when at least one of its two
  // connecting edges is new. Without this, late rounds re-propose (and
  // re-evaluate) almost exactly the candidate sets of earlier rounds —
  // the rows barely change, so neither do their neighbors-of-neighbors.
  std::vector<unsigned char> new_flag(n * k, 0);
  const auto row_flags = [&](size_t p) {
    return std::span<unsigned char>(new_flag.data() + p * k, k);
  };

  // --- Seeded random initial rows (n - 1 > k: the caller builds smaller
  // inputs exactly). ---
  std::vector<ChunkTally> tally(threads * 4 + 1);
  parallel_chunks(n, threads, [&](size_t begin, size_t end, size_t chunk) {
    std::vector<PointId> picks;
    for (size_t p = begin; p < end; ++p) {
      const auto pid = static_cast<PointId>(p);
      picks.clear();
      // Per-point independent stream: identical rows for any threading.
      Rng rng(init_seed ^ (0x9e3779b97f4a7c15ull * (p + 1)));
      while (picks.size() < k) {
        const auto c = static_cast<PointId>(rng.uniform_index(n));
        if (c == pid) continue;
        if (std::find(picks.begin(), picks.end(), c) != picks.end()) {
          continue;
        }
        picks.push_back(c);
      }
      auto ids = graph.mutable_row_ids(pid);
      auto d2s = graph.mutable_row_d2(pid);
      for (const PointId c : picks) {
        row_insert(ids, d2s, row_flags(p), k,
                   squared_distance_uncounted(points[pid], points[c]), c);
      }
    }
    tally[chunk].evals += (end - begin) * k;
    tally[chunk].exact += (end - begin) * k;
  });
  fold_tallies(tally, stats);

  // --- Refinement rounds. ---
  std::vector<PointId> prev_ids;
  std::vector<unsigned char> prev_flag;
  // Reverse neighbors in fixed-stride rows of `sample` slots, with the
  // edge's new bit alongside and the fill count per point.
  const size_t rs = cfg.sample;
  std::vector<PointId> rev_ids(n * rs);
  std::vector<unsigned char> rev_flag(n * rs);
  std::vector<u32> rev_len(n);
  const u64 target_slots = static_cast<u64>(n) * k;
  for (u32 round = 0; round < cfg.max_rounds; ++round) {
    ++stats.rounds;
    // Snapshot the rows + new/old bits: candidate generation reads prev,
    // updates land in the live graph (each row written only by its owner
    // chunk).
    prev_ids.assign(n * k, kNoNeighbor);
    for (size_t p = 0; p < n; ++p) {
      const auto row = graph.row_ids(static_cast<PointId>(p));
      std::copy(row.begin(), row.end(), prev_ids.begin() + p * k);
    }
    prev_flag = new_flag;
    // Reverse adjacency from the snapshot, capped at `sample` per point
    // (sources arrive in ascending id order — deterministic cap). Each rev
    // entry carries its edge's new bit. Slots that participate in this
    // round's join — the sampled forward prefix of every row plus every
    // edge accepted into a rev list — are marked old in the live bits:
    // they have now been fully exploited as pivots, and only a future
    // insertion may make them new again. Capped-out rev edges keep their
    // bit and retry in a later round.
    std::fill(rev_len.begin(), rev_len.end(), 0u);
    const u32 fwd_sample = std::min(k, cfg.sample);
    for (size_t p = 0; p < n; ++p) {
      for (u32 s = 0; s < k; ++s) {
        const PointId j = prev_ids[p * k + s];
        if (j == kNoNeighbor) break;
        u32& len = rev_len[static_cast<size_t>(j)];
        if (len < rs) {
          rev_ids[static_cast<size_t>(j) * rs + len] = static_cast<PointId>(p);
          rev_flag[static_cast<size_t>(j) * rs + len] = prev_flag[p * k + s];
          ++len;
          new_flag[p * k + s] = 0;
        }
        if (s < fwd_sample) new_flag[p * k + s] = 0;
      }
    }

    parallel_chunks(n, threads, [&](size_t begin, size_t end, size_t chunk) {
      ChunkTally tl;
      // The drop_edge site below is skipped outright unless a fault plan is
      // installed (one check per chunk, not one call per candidate).
      const bool faults = fault::plan_installed();
      // B(t): sampled fwd + rev neighbors, each with its edge's new bit.
      std::vector<std::pair<PointId, unsigned char>> bucket;
      CandidateSet candidates(n);
      // One join block: queued candidate ids and their rows transposed
      // (relative to the query row) into one strip for the kernel.
      std::array<PointId, kDistanceStrip> block{};
      std::vector<float> strip(kDistanceStrip * dim, 0.0f);
      const std::vector<float> origin(dim, 0.0f);
      for (size_t t = begin; t < end; ++t) {
        const auto tid = static_cast<PointId>(t);
        bucket.clear();
        for (u32 s = 0; s < fwd_sample; ++s) {
          const PointId j = prev_ids[t * k + s];
          if (j == kNoNeighbor) break;
          bucket.emplace_back(j, prev_flag[t * k + s]);
        }
        for (u32 r = 0; r < rev_len[t]; ++r) {
          bucket.emplace_back(rev_ids[t * rs + r], rev_flag[t * rs + r]);
        }

        // A candidate (t, c) reached through pivot edges (t~j, j~c) is
        // evaluated only if at least one of the two edges is new — an
        // old/old pair was already proposed the round both edges turned
        // old. Duplicates keep the OR of their path bits.
        for (const auto& [j, fj] : bucket) {
          candidates.add(j, fj);  // rev members may beat the row
          ++tl.candidates;
          const size_t jb = static_cast<size_t>(j) * k;
          for (u32 s = 0; s < fwd_sample; ++s) {
            const PointId c = prev_ids[jb + s];
            if (c == kNoNeighbor) break;
            candidates.add(c,
                           static_cast<unsigned char>(fj | prev_flag[jb + s]));
            ++tl.candidates;
          }
          const size_t jr = static_cast<size_t>(j) * rs;
          const u32 jlen = rev_len[static_cast<size_t>(j)];
          for (u32 r = 0; r < jlen; ++r) {
            candidates.add(rev_ids[jr + r],
                           static_cast<unsigned char>(fj | rev_flag[jr + r]));
          }
          tl.candidates += jlen;
        }

        const std::span<const double> q = points[tid];
        auto ids = graph.mutable_row_ids(tid);
        auto d2s = graph.mutable_row_d2(tid);
        const auto flags = row_flags(t);
        size_t queued = 0;
        // Evaluate the queued block. A full row filters it through the
        // strip kernel with its worst d2 at block start as the cutoff: the
        // row only improves while the block is applied, so every candidate
        // row_insert could accept has a double d2 <= that cutoff and is in
        // the kernel's maybe mask. Survivors get the exact distance; those
        // above the cutoff are dropped uncounted (row_insert would reject
        // them), the rest meet row_insert's worst-slot check against the
        // row as it is now.
        const auto flush = [&] {
          const bool full = ids[k - 1] != kNoNeighbor;
          const double tau = full ? d2s[k - 1] : 0.0;
          u32 mask = full ? filter_block(
                                kernel, points, q, tau, queued,
                                [&](size_t l) { return block[l]; },
                                strip.data(), origin.data())
                          : strip_lanes(0, queued);
          for (; mask != 0; mask &= mask - 1) {
            const PointId c =
                block[static_cast<size_t>(std::countr_zero(mask))];
            const double d2 = squared_distance_uncounted(q, points[c]);
            if (full && !(d2 <= tau)) continue;
            ++tl.exact;
            if (row_insert(ids, d2s, flags, k, d2, c)) ++tl.updates;
          }
          queued = 0;
        };
        candidates.drain([&](PointId c, unsigned char fresh) {
          if (c == tid) return;
          if (!fresh) return;  // old/old pair: already proposed before
          // Fault site: drop this candidate edge on the floor. NN-descent
          // is self-healing — later rounds re-propose surviving paths — so
          // a faulted build still converges to a usable graph (pinned by
          // the knn chaos cells).
          if (faults && SDB_INJECT("knn.graph.drop_edge")) {
            ++tl.drops;
            return;
          }
          // One eval is charged per candidate examined, filtered or not —
          // the unified counter contract.
          ++tl.evals;
          prefetch_row(points[c]);
          block[queued++] = c;
          if (queued == kDistanceStrip) flush();
        });
        if (queued != 0) flush();
      }
      tally[chunk] = tl;
    });
    const u64 round_updates = fold_tallies(tally, stats);
    if (static_cast<double>(round_updates) <
        cfg.termination_frac * static_cast<double>(target_slots)) {
      break;
    }
  }
}

}  // namespace

KnnGraph build_knn_graph(const PointSet& points, const KnnGraphConfig& cfg,
                         KnnGraphBuildStats* stats_out) {
  SDB_CHECK(cfg.k > 0, "kNN graph needs k > 0");
  const size_t n = points.size();
  KnnGraph graph(n, cfg.k);
  KnnGraphBuildStats stats;
  if (n > 1) {
    if (cfg.build == KnnGraphConfig::Build::kExact || n - 1 <= cfg.k) {
      build_exact(points, cfg, graph, stats);
    } else {
      build_descent(points, cfg, graph, stats);
    }
  }
  // One flush on the calling thread (worker tasks tally into plain chunk
  // slots, not thread-local sinks, so totals are exact and deterministic).
  counters::distance_evals(stats.distance_evals);
  if (stats_out != nullptr) *stats_out = stats;
  return graph;
}

double graph_recall(const KnnGraph& exact, const KnnGraph& approx) {
  SDB_CHECK(exact.size() == approx.size(), "graph size mismatch");
  if (exact.size() == 0) return 1.0;
  u64 total = 0;
  u64 hit = 0;
  for (size_t p = 0; p < exact.size(); ++p) {
    const auto pid = static_cast<PointId>(p);
    for (const PointId j : exact.row_ids(pid)) {
      if (j == kNoNeighbor) break;
      ++total;
      if (approx.has_edge(pid, j)) ++hit;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total);
}

}  // namespace sdb::knn
