#include "core/merge.hpp"

#include <algorithm>
#include <future>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spatial/concurrent_union_find.hpp"
#include "spatial/union_find.hpp"
#include "util/thread_pool.hpp"

namespace sdb::dbscan {

const char* merge_strategy_name(MergeStrategy s) {
  switch (s) {
    case MergeStrategy::kPaperSinglePass: return "paper-single-pass";
    case MergeStrategy::kUnionFind: return "union-find";
  }
  return "?";
}

namespace {

constexpr i64 kNone = -1;

/// Fixed edge-chunk size for the parallel pipeline. Chunk boundaries are a
/// function of the edge array alone — NOT of the thread count — so the
/// concatenated per-chunk outputs (border claims, deterministic work
/// counts, stats.rounds) are identical for any number of workers.
constexpr size_t kEdgeChunk = 2048;

/// One resolved merge edge: seed cluster index (position in the uid-sorted
/// filtered cluster list) plus the seed point whose owner-side facts
/// (master cluster, core-ness) the union stage reads from the point tables.
struct ResolvedEdge {
  u32 origin = 0;
  PointId seed = 0;
};

struct MergePrelude {
  std::vector<const PartialCluster*> pcs;  ///< uid-sorted, filter applied
};

/// Flatten, filter, and uid-canonicalize the partial clusters.
///
/// The sort makes the merge invariant to the ARRIVAL order of partial
/// results: task retries, speculative re-execution and scheduling jitter
/// permute `locals`, and everything downstream — member ownership,
/// union-find indices, label ids, border-claim priority — keys off
/// positions in this list (tests/test_merge.cpp
/// OrderInvariantAcrossArrivalPermutations).
MergePrelude make_prelude(const std::vector<LocalClusterResult>& locals,
                          const MergeOptions& options, MergeResult* result) {
  MergePrelude pre;
  for (const auto& local : locals) {
    for (const auto& pc : local.clusters) {
      if (options.min_partial_cluster_size > 0 &&
          pc.members.size() < options.min_partial_cluster_size) {
        ++result->stats.filtered_partial_clusters;
        continue;
      }
      pre.pcs.push_back(&pc);
    }
  }
  std::sort(pre.pcs.begin(), pre.pcs.end(),
            [](const PartialCluster* a, const PartialCluster* b) {
              return a->uid < b->uid;
            });
  result->stats.partial_clusters = pre.pcs.size();
  for (const auto* pc : pre.pcs) {
    result->stats.max_partial_cluster_size = std::max<u64>(
        result->stats.max_partial_cluster_size, pc->members.size());
  }
  return pre;
}

/// The sequential reference paths (Algorithm 4 and the sound union-find
/// variant), byte-for-byte the pre-parallel behavior including the
/// path-length-dependent work-counter charges.
void merge_sequential(const std::vector<LocalClusterResult>& locals,
                      const std::vector<const PartialCluster*>& pcs,
                      u64 num_points, const MergeOptions& options,
                      MergeResult* result) {
  const size_t m = pcs.size();

  // Global facts: which partial cluster owns each point, which points are
  // core. (The driver has all LocalClusterResults at this stage — this is
  // the "analyze partial clusters based on the placed SEEDs" of Algorithm 2
  // line 30.)
  std::vector<i64> member_of(num_points, kNone);
  std::vector<char> is_core(num_points, 0);
  for (size_t i = 0; i < m; ++i) {
    for (const PointId p : pcs[i]->members) {
      member_of[static_cast<size_t>(p)] = static_cast<i64>(i);
      counters::merge_ops(1);
    }
  }
  for (const auto& local : locals) {
    for (const PointId p : local.core_points) {
      is_core[static_cast<size_t>(p)] = 1;
    }
  }

  // Ordinal of each partial cluster within its partition's list, and the
  // per-partition list sizes: Algorithm 4's "find master partial cluster
  // index" scans the owner partition's clusters (the owner is known from
  // the seed's index range), so that scan length is what the paper-faithful
  // merge charges per seed.
  std::vector<u64> ordinal(m, 0);
  std::unordered_map<PartitionId, u64> partition_counts;
  for (size_t i = 0; i < m; ++i) {
    ordinal[i] = partition_counts[pcs[i]->partition]++;
  }

  UnionFind uf(m);
  // border_claim[q] = partial cluster that adopts unclaimed foreign point q.
  std::vector<std::pair<PointId, size_t>> border_claims;

  switch (options.strategy) {
    case MergeStrategy::kPaperSinglePass: {
      // Algorithm 4: statuses gate which clusters get their seeds processed.
      std::vector<char> finished(m, 0);
      for (size_t i = 0; i < m; ++i) {
        if (finished[i]) continue;  // line 2: only 'unfinished'
        for (const PointId q : pcs[i]->seeds) {  // line 3: dig out seeds
          ++result->stats.seeds_examined;
          counters::merge_ops(1);
          const i64 j = member_of[static_cast<size_t>(q)];
          // Algorithm 4 line 5 "find master partial cluster index" is a
          // LINEAR SCAN in the paper (no inverted index is described) over
          // the seed's owner partition's cluster list. We resolve via
          // member_of but charge the scan the paper's implementation
          // performs — the super-linear driver term behind the Figure 8d
          // speedup drop at 32 cores (9279 partial clusters).
          if (j >= 0) {
            counters::merge_ops(ordinal[static_cast<size_t>(j)] + 1);
          } else {
            // Not found anywhere: full scan of one partition's list; charge
            // the average list length.
            counters::merge_ops(
                m / std::max<size_t>(1, partition_counts.size()) + 1);
          }
          if (j >= 0 && static_cast<size_t>(j) != i) {
            // line 5-7: master found (ANY regular membership qualifies —
            // the paper does not check core-ness), merge, mark finished.
            if (uf.unite(i, static_cast<size_t>(j))) ++result->stats.merges;
            finished[static_cast<size_t>(j)] = 1;
          } else if (j == kNone) {
            // Seed points to a foreign point that is noise in its own
            // partition: a cross-partition border point; adopt it (the
            // paper keeps seeds in the merged member list, Figure 4b).
            border_claims.emplace_back(q, i);
          }
        }
        finished[i] = 1;  // line 9
      }
      break;
    }
    case MergeStrategy::kUnionFind: {
      // Process EVERY cluster's seeds; fuse only through core seeds.
      for (size_t i = 0; i < m; ++i) {
        for (const PointId q : pcs[i]->seeds) {
          ++result->stats.seeds_examined;
          counters::merge_ops(1);
          const i64 j = member_of[static_cast<size_t>(q)];
          if (is_core[static_cast<size_t>(q)] && j >= 0) {
            // A core point is always a regular member of its own partition's
            // clustering (j < 0 can only happen when the small-cluster
            // filter dropped that cluster — fall through to adoption).
            if (static_cast<size_t>(j) != i &&
                uf.unite(i, static_cast<size_t>(j))) {
              ++result->stats.merges;
            }
          } else if (j == kNone) {
            // Non-core, unclaimed anywhere: cross-partition border point.
            border_claims.emplace_back(q, i);
          }
          // Non-core seed already claimed by its own partition: border-point
          // assignment ambiguity — leave it where it is (sequential DBSCAN
          // also assigns such points to one adjacent cluster arbitrarily).
        }
      }
      break;
    }
  }

  // Emit dense labels by union-find root.
  result->clustering.labels.assign(num_points, kNoise);
  std::vector<ClusterId> root_label(m, kUnlabeled);
  ClusterId next = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t root = uf.find(i);
    if (root_label[root] == kUnlabeled) root_label[root] = next++;
    const ClusterId label = root_label[root];
    for (const PointId p : pcs[i]->members) {
      result->clustering.labels[static_cast<size_t>(p)] = label;
      counters::merge_ops(1);
    }
  }
  // Border adoptions (first claim wins, deterministic in pc order).
  for (const auto& [q, i] : border_claims) {
    ClusterId& l = result->clustering.labels[static_cast<size_t>(q)];
    if (l == kNoise) {
      l = root_label[uf.find(i)];
      ++result->stats.border_claims;
    }
  }
  result->clustering.num_clusters = static_cast<u64>(next);
}

/// The parallel edge-based kUnionFind pipeline (DESIGN.md §13). Five
/// stages; every parallel write is to a disjoint slot (each point is owned
/// by exactly one partition and claimed by at most one of its clusters;
/// each cluster's edge slice is a precomputed range), so the only
/// cross-thread contention is inside ConcurrentUnionFind.
///
/// Output contract: labels, num_clusters and the deterministic MergeStats
/// fields are byte-identical to merge_sequential(kUnionFind) for any thread
/// count. Work-counter charges are deterministic too, but follow a flat
/// per-edge accounting model instead of the sequential path's
/// path-halving-dependent one (the schedule-dependent part — CAS retries —
/// goes to stats.cas_retries only).
void merge_parallel_union_find(const std::vector<LocalClusterResult>& locals,
                               const std::vector<const PartialCluster*>& pcs,
                               u64 num_points, unsigned threads,
                               MergeResult* result) {
  const size_t m = pcs.size();
  ThreadPool pool(threads);

  auto wait_all = [](std::vector<std::future<void>>& fs) {
    for (auto& f : fs) f.get();
    fs.clear();
  };

  // --- Stage 1: point tables + edge gather (one barrier, disjoint writes).
  // member_of[p] = uid-sorted index of the surviving cluster claiming p;
  // is_core[p] from the owner partition's core list. Cluster i's seeds fill
  // the precomputed slice edges[edge_offset[i] ..], so the slot of every
  // edge — and therefore the whole downstream order — is a function of
  // (cluster uid, seed position) alone, never of which worker or which
  // arrival order produced it. Clusters dropped by the small-cluster filter
  // are not in `pcs`, so their seeds are never examined, matching the
  // sequential path.
  std::vector<i64> member_of(num_points, kNone);
  std::vector<char> is_core(num_points, 0);

  std::vector<size_t> edge_offset(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    edge_offset[i + 1] = edge_offset[i] + pcs[i]->seeds.size();
  }
  const size_t num_edges = edge_offset[m];
  std::vector<ResolvedEdge> edges(num_edges);

  u64 total_members = 0;
  for (size_t i = 0; i < m; ++i) total_members += pcs[i]->members.size();

  std::vector<std::future<void>> futures;
  const size_t pc_chunk = std::max<size_t>(1, (m + threads - 1) / threads);
  for (size_t begin = 0; begin < m; begin += pc_chunk) {
    const size_t end = std::min(m, begin + pc_chunk);
    futures.push_back(pool.submit([&, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        for (const PointId p : pcs[i]->members) {
          member_of[static_cast<size_t>(p)] = static_cast<i64>(i);
        }
        const auto& seeds = pcs[i]->seeds;
        for (size_t k = 0; k < seeds.size(); ++k) {
          edges[edge_offset[i] + k] = {static_cast<u32>(i), seeds[k]};
        }
      }
    }));
  }
  for (const auto& local : locals) {
    futures.push_back(pool.submit([&, local = &local] {
      for (const PointId p : local->core_points) {
        is_core[static_cast<size_t>(p)] = 1;
      }
    }));
  }
  wait_all(futures);

  // --- Stage 2: concurrent union over fixed-size edge chunks. Each chunk
  // also collects its border claims locally; chunk order (a pure function
  // of the edge array) reproduces the sequential claim order exactly.
  ConcurrentUnionFind cuf(m);
  const size_t num_chunks = (num_edges + kEdgeChunk - 1) / kEdgeChunk;
  std::vector<std::vector<std::pair<PointId, u32>>> chunk_claims(num_chunks);
  std::vector<u64> chunk_union_edges(num_chunks, 0);
  std::vector<u64> chunk_merges(num_chunks, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    futures.push_back(pool.submit([&, c] {
      const size_t begin = c * kEdgeChunk;
      const size_t end = std::min(num_edges, begin + kEdgeChunk);
      auto& claims = chunk_claims[c];
      u64 union_edges = 0;
      u64 merges = 0;
      for (size_t e = begin; e < end; ++e) {
        const u32 i = edges[e].origin;
        const PointId q = edges[e].seed;
        const i64 j = member_of[static_cast<size_t>(q)];
        if (is_core[static_cast<size_t>(q)] && j >= 0) {
          if (static_cast<u32>(j) != i) {
            ++union_edges;
            if (cuf.unite(i, static_cast<u64>(j))) ++merges;
          }
        } else if (j == kNone) {
          claims.emplace_back(q, i);
        }
      }
      chunk_union_edges[c] = union_edges;
      chunk_merges[c] = merges;
    }));
  }
  wait_all(futures);

  u64 union_edges = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    union_edges += chunk_union_edges[c];
    // Successful unites across any schedule = m - final component count, so
    // the sum is deterministic even though each chunk's share is not.
    result->stats.merges += chunk_merges[c];
  }
  result->stats.seeds_examined = num_edges;
  result->stats.rounds = num_chunks;
  result->stats.cas_retries = cuf.cas_retries();

  // --- Stage 3: deterministic uid-canonical relabel (sequential, O(m)).
  // Union-by-min-root has already made every component's root its minimum
  // cluster index; assigning labels by first appearance over ascending i
  // therefore reproduces the sequential pass bit-for-bit (proof sketch in
  // DESIGN.md §13).
  std::vector<ClusterId> root_label(m, kUnlabeled);
  std::vector<ClusterId> label_of(m, kNoise);
  ClusterId next = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t root = cuf.find(i);
    if (root_label[root] == kUnlabeled) root_label[root] = next++;
    label_of[i] = root_label[root];
  }
  result->clustering.num_clusters = static_cast<u64>(next);

  // --- Stage 4: parallel label write (disjoint member slots).
  result->clustering.labels.assign(num_points, kNoise);
  auto& labels = result->clustering.labels;
  for (size_t begin = 0; begin < m; begin += pc_chunk) {
    const size_t end = std::min(m, begin + pc_chunk);
    futures.push_back(pool.submit([&, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        const ClusterId label = label_of[i];
        for (const PointId p : pcs[i]->members) {
          labels[static_cast<size_t>(p)] = label;
        }
      }
    }));
  }
  wait_all(futures);

  // --- Stage 5: border adoptions, first claim wins in edge order.
  for (const auto& claims : chunk_claims) {
    for (const auto& [q, i] : claims) {
      ClusterId& l = labels[static_cast<size_t>(q)];
      if (l == kNoise) {
        l = label_of[i];
        ++result->stats.border_claims;
      }
    }
  }

  // Deterministic work-counter charges, applied on the driver thread (pool
  // workers have no ScopedCounters sink, and per-iteration charges there
  // would race or vary with the schedule): one op per member to build the
  // tables, one per edge examined, a flat two per union edge (find+unite),
  // one per member to write labels.
  counters::merge_ops(total_members);
  counters::merge_ops(num_edges);
  counters::merge_ops(2 * union_edges);
  counters::merge_ops(total_members);
}

}  // namespace

MergeResult merge_partial_clusters(
    const std::vector<LocalClusterResult>& locals, u64 num_points,
    const MergeOptions& options) {
  MergeResult result;
  ScopedCounters scope(&result.counters);

  const MergePrelude pre = make_prelude(locals, options, &result);

  unsigned threads = options.merge_threads != 0
                         ? options.merge_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (options.strategy != MergeStrategy::kUnionFind) threads = 1;

  if (threads <= 1) {
    merge_sequential(locals, pre.pcs, num_points, options, &result);
  } else {
    merge_parallel_union_find(locals, pre.pcs, num_points, threads, &result);
  }
  return result;
}

}  // namespace sdb::dbscan
