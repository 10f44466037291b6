#include "spatial/kd_tree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <queue>
#include <thread>

#include "geom/distance.hpp"
#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace sdb {

namespace {

/// Dimension cap for the stack scratch of the box pass and the per-query
/// paths; wider points take heap scratch.
constexpr int kStackDim = 64;
/// Below this many points a build is sequential regardless of the thread
/// option: thread-spawn plus task overhead would dominate.
constexpr u32 kParallelBuildThreshold = 1u << 14;
/// Cap on auto-detected build threads.
constexpr unsigned kMaxBuildThreads = 16;

/// Per-query scratch of `n` values: on the stack up to N, on the heap
/// beyond (only very wide points), so the per-query paths allocate nothing.
template <typename T, size_t N>
class SmallBuf {
 public:
  explicit SmallBuf(size_t n) {
    if (n > N) heap_.resize(n);
  }
  [[nodiscard]] T* data() { return heap_.empty() ? local_ : heap_.data(); }

 private:
  T local_[N];
  std::vector<T> heap_;
};

}  // namespace

/// Shared state of one build. Parallel builds claim node slots from one
/// atomic cursor over preallocated arrays, so forked subtree tasks never
/// touch a shared container: every task writes only its own node slots and
/// its own disjoint subrange of ids_ (and disjoint strip lanes). Visibility
/// of the writes back to the constructing thread is established by
/// ThreadPool::wait_idle(). Sequential builds (pool == nullptr) skip the
/// machinery entirely and use the plain counters — no atomic RMW per node.
struct KdTree::BuildCtx {
  std::atomic<u32> node_cursor{0};
  std::atomic<int> max_depth{0};
  u32 seq_cursor = 0;   // plain cursor, pool == nullptr only
  int seq_depth = 0;    // plain depth high-water, pool == nullptr only
  u32 max_nodes = 0;
  u32 seq_cutoff = 0;  // subtree ranges <= this build inline (no fork)
  ThreadPool* pool = nullptr;

  u32 alloc_node() {
    if (pool == nullptr) {
      SDB_CHECK(seq_cursor < max_nodes, "kd-tree node bound exceeded");
      return seq_cursor++;
    }
    const u32 idx = node_cursor.fetch_add(1, std::memory_order_relaxed);
    SDB_CHECK(idx < max_nodes, "kd-tree node bound exceeded");
    return idx;
  }

  /// Claim two ADJACENT slots for a sibling pair (left = base, right =
  /// base + 1). Adjacency is guaranteed even under parallel builds — one
  /// fetch_add(2) instead of two racing fetch_add(1)s — so the query loop
  /// can prefetch both children's node records and (contiguous) box rows
  /// with a fixed number of cache-line touches.
  u32 alloc_children() {
    if (pool == nullptr) {
      SDB_CHECK(seq_cursor + 1 < max_nodes, "kd-tree node bound exceeded");
      const u32 base = seq_cursor;
      seq_cursor += 2;
      return base;
    }
    const u32 base = node_cursor.fetch_add(2, std::memory_order_relaxed);
    SDB_CHECK(base + 1 < max_nodes, "kd-tree node bound exceeded");
    return base;
  }

  void note_depth(int depth) {
    if (pool == nullptr) {
      if (depth > seq_depth) seq_depth = depth;
      return;
    }
    int seen = max_depth.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] u32 nodes_allocated() const {
    return pool == nullptr ? seq_cursor
                           : node_cursor.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int depth_seen() const {
    return pool == nullptr ? seq_depth
                           : max_depth.load(std::memory_order_relaxed);
  }
};

KdTree::KdTree(const PointSet& points, const KdTreeOptions& options)
    : points_(points), leaf_size_(std::max(1, options.leaf_size)) {
  const size_t n = points_.size();
  ids_.resize(n);
  std::iota(ids_.begin(), ids_.end(), PointId{0});
  if (n == 0) return;

  const size_t dim = static_cast<size_t>(points_.dim());
  // Structural bound on the node count: internal nodes split at the median,
  // so every leaf holds > leaf_size/2 points (degenerate-spread leaves hold
  // more) => <= 2n/(L+1) * 2 nodes total. Preallocating at the bound lets
  // parallel tasks claim slots with one atomic increment.
  const size_t max_nodes =
      4 * n / (static_cast<size_t>(leaf_size_) + 1) + 8;
  BuildCtx ctx;
  ctx.max_nodes = static_cast<u32>(max_nodes);
  nodes_.resize(max_nodes);
  boxes_.resize(max_nodes * 2 * dim);

  // Strip-transposed leaf-order buffer, filled in place as leaves finalize.
  // Allocate without zero-filling the whole buffer (the leaf stores
  // overwrite every live lane); only the final block's padding lanes need
  // zeros so vector loads never read uninitialized memory.
  leaf_coords_len_ = strip_padded_len(n, dim);
  leaf_coords_ = std::make_unique_for_overwrite<float[]>(leaf_coords_len_);
#if defined(__linux__)
  // The buffer is large, written exactly once (by the leaf scatters), and
  // freshly mmapped by the allocator at this size — so at 4KiB pages the
  // build pays one minor fault per page (~2k faults at 1m points). Ask for
  // transparent huge pages on the page-aligned interior; a kernel without
  // (or with disabled) THP just returns EINVAL/ENOMEM and nothing changes.
  {
    const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto lo =
        (reinterpret_cast<uintptr_t>(leaf_coords_.get()) + page - 1) &
        ~(page - 1);
    const auto hi = (reinterpret_cast<uintptr_t>(leaf_coords_.get()) +
                     leaf_coords_len_ * sizeof(float)) &
                    ~(page - 1);
    if (hi > lo) {
      (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
    }
  }
#endif
  const size_t live = ((n - 1) / kDistanceStrip) * kDistanceStrip * dim;
  std::fill(leaf_coords_.get() + live, leaf_coords_.get() + leaf_coords_len_,
            0.0f);

  unsigned threads = options.build_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, kMaxBuildThreads);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= kParallelBuildThreshold) {
    pool = std::make_unique<ThreadPool>(threads);
    ctx.pool = pool.get();
    // Fork until subtrees are ~n/(8*threads): enough tasks to balance the
    // pool without drowning it in queue traffic.
    ctx.seq_cutoff = std::max<u32>(static_cast<u32>(leaf_size_),
                                   static_cast<u32>(n / (threads * 8)));
  }

  root_ = static_cast<i32>(ctx.alloc_node());
  build_range(root_, 0, static_cast<u32>(n), 0, ctx);
  if (ctx.pool != nullptr) ctx.pool->wait_idle();

  depth_ = ctx.depth_seen();
  // Median splits bound the depth at ~log2(n) + 1; enforce that the query
  // stack capacity covers it so a future split-policy change cannot turn
  // into silent stack corruption (see kQueryStackCap).
  SDB_CHECK(depth_ + 1 <= kQueryStackCap,
            "kd-tree depth exceeds query stack capacity");
  const u32 node_count = ctx.nodes_allocated();
  nodes_.resize(node_count);
  nodes_.shrink_to_fit();
  boxes_.resize(static_cast<size_t>(node_count) * 2 * dim);
  boxes_.shrink_to_fit();
}

/// Scatter rows [begin, end) of the id permutation into the strip buffer,
/// relative to the centre of the leaf's box `box`. Row-major reads (each
/// row contiguous, and L1/L2-resident after the box pass), lane-strided
/// writes that stay inside the leaf's few strip blocks. Non-temporal stores
/// were measured here and lost: on this class of host plain stores win at
/// both 100k and 1m points (partial-line NT writes cost more than the RFO
/// they save).
void KdTree::export_leaf_strips(u32 begin, u32 end, const double* box) {
  const size_t dim = static_cast<size_t>(points_.dim());
  SmallBuf<double, kStackDim> centre(dim);
  box_centre(box, dim, centre.data());
  float* strips = leaf_coords_.get();
  for (u32 i = begin; i < end; ++i) {
    strip_store_row(strips, i, points_[ids_[i]], centre.data());
  }
}

void KdTree::build_range(i32 idx, u32 begin, u32 end, int depth,
                         BuildCtx& ctx) {
  const int dim = points_.dim();
  ctx.note_depth(depth);

  Node node;
  node.begin = begin;
  node.end = end;
  node.box = static_cast<u32>(idx) * 2 * static_cast<u32>(dim);

  // Tight bounding box over [begin, end), interleaved [lo, hi] per dim.
  // STACK-LOCAL min/max accumulators (up to kStackDim dims): locals
  // provably don't alias the coordinate loads, so they live in
  // registers/L1 instead of a load-modify-store chain on b.
  double* b = boxes_.data() + node.box;
  SmallBuf<double, kStackDim> lo(static_cast<size_t>(dim));
  SmallBuf<double, kStackDim> hi(static_cast<size_t>(dim));
  for (int d = 0; d < dim; ++d) {
    lo.data()[d] = std::numeric_limits<double>::infinity();
    hi.data()[d] = -std::numeric_limits<double>::infinity();
  }
  for (u32 i = begin; i < end; ++i) {
    const auto p = points_[ids_[i]];
    for (int d = 0; d < dim; ++d) {
      lo.data()[d] = std::min(lo.data()[d], p[d]);
      hi.data()[d] = std::max(hi.data()[d], p[d]);
    }
  }
  for (int d = 0; d < dim; ++d) {
    b[2 * d] = lo.data()[d];
    b[2 * d + 1] = hi.data()[d];
  }

  if (end - begin <= static_cast<u32>(leaf_size_)) {
    // Size-bounded leaf: its rows into the strip buffer relative to the
    // box centre (rows the box pass just brought into cache).
    export_leaf_strips(begin, end, b);
    nodes_[static_cast<size_t>(idx)] = node;
    return;
  }

  // Split on the dimension of largest spread at the median.
  int best_dim = 0;
  double best_spread = -1.0;
  for (int d = 0; d < dim; ++d) {
    const double spread = b[2 * d + 1] - b[2 * d];
    if (spread > best_spread) {
      best_spread = spread;
      best_dim = d;
    }
  }

  // Degenerate spread (all coordinates equal): keep as leaf to guarantee
  // termination.
  if (best_spread <= 0.0) {
    export_leaf_strips(begin, end, b);
    nodes_[static_cast<size_t>(idx)] = node;
    return;
  }

  const u32 mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, [&](PointId a, PointId b) {
                     return points_[a][best_dim] < points_[b][best_dim];
                   });
  node.split_dim = best_dim;
  node.split_value = points_[ids_[mid]][best_dim];

  // Children slots are claimed by the parent so the node can be finalized
  // before the subtree tasks run — no post-hoc patching, no joins inside
  // tasks (the simple pool would deadlock on nested waits). The pair is
  // adjacent (alloc_children) so queries can prefetch both siblings.
  const u32 base = ctx.alloc_children();
  const i32 left = static_cast<i32>(base);
  const i32 right = static_cast<i32>(base + 1);
  node.left = left;
  node.right = right;
  nodes_[static_cast<size_t>(idx)] = node;

  // Task-recursive fork with a sequential cutoff: ship the left subtree to
  // the pool when it is big enough, keep the right on this thread (the
  // forked task forks its own children in turn). Build bodies never throw —
  // all storage is preallocated — so the discarded futures lose nothing.
  if (ctx.pool != nullptr && mid - begin > ctx.seq_cutoff) {
    ctx.pool->submit([this, left, begin, mid, depth, &ctx] {
      build_range(left, begin, mid, depth + 1, ctx);
    });
  } else {
    build_range(left, begin, mid, depth + 1, ctx);
  }
  build_range(right, mid, end, depth + 1, ctx);
}

double KdTree::box_distance2(const Node& node, std::span<const double> q,
                             double cutoff) const {
  // Branchless clamp: the outside-the-box excess per dimension is
  // max(lo-q, q-hi, 0). Accumulation stays a single ascending-d chain so
  // the result is identical for every build/query configuration; the
  // early exit only ever skips dimensions once "result > cutoff" is already
  // decided (the sum is monotone), and with the interleaved [lo, hi] box
  // rows it keeps most pruned nodes inside their first cache line.
  const int dim = points_.dim();
  const double* b = boxes_.data() + node.box;
  double s = 0.0;
  for (int d = 0; d < dim; ++d) {
    const double diff =
        std::max(std::max(b[2 * d] - q[d], q[d] - b[2 * d + 1]), 0.0);
    s += diff * diff;
    if (s > cutoff) break;
  }
  return s;
}

void KdTree::range_query(std::span<const double> q, double eps,
                         std::vector<PointId>& out) const {
  range_query_budgeted(q, eps, QueryBudget{}, out);
}

void KdTree::range_query_budgeted(std::span<const double> q, double eps,
                                  const QueryBudget& budget,
                                  std::vector<PointId>& out) const {
  if (root_ < 0) return;
  const size_t dim = static_cast<size_t>(points_.dim());
  QueryState st{eps * eps, &budget, &out,
                simd::StripSlack(eps * eps, dim)};
  SmallBuf<double, kStackDim> centre(dim);
  SmallBuf<float, kStackDim> qf(dim);
  st.centre = centre.data();
  st.qf = qf.data();
  st.kernel = simd::detail::strip_kernel();
  run_query(q, st);
  // One thread-local flush per query instead of one per node/evaluation;
  // totals are exactly what the per-op increments would have produced.
  counters::tree_nodes(st.nodes_visited);
  counters::distance_evals(st.distance_evals);
}

void KdTree::run_query(std::span<const double> q, QueryState& st) const {
  // Explicit-stack depth-first descent, near child popped first — the same
  // node sequence the recursive formulation visits, minus the call frames.
  // Median splits halve the range every level, so the depth (== max live
  // far-children on the stack) is bounded by ~log2(n) + 1; 64 covers any
  // 32-bit point count with a wide margin.
  const size_t dim = static_cast<size_t>(points_.dim());
  const float* strips = leaf_coords_.get();
  i32 stack[kQueryStackCap];  // depth_ + 1 <= cap, checked at build
  int top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const Node& node = nodes_[static_cast<size_t>(stack[--top])];
    ++st.nodes_visited;
    if (st.budget->max_nodes != 0 && st.nodes_visited > st.budget->max_nodes) {
      return;  // the paper's branch-pruning cutoff
    }
    if (box_distance2(node, q, st.eps2) > st.eps2) continue;

    if (!node.is_leaf()) {
      // The sibling pair is adjacent (alloc_children): start both children's
      // node records and box rows toward the cache while this iteration
      // finishes — the near child is popped immediately after.
      prefetch_children(node);
      // Descend the side containing q first: with a neighbor budget this
      // reports the densest nearby region before the cutoff fires.
      const bool left_first = q[node.split_dim] <= node.split_value;
      stack[top++] = left_first ? node.right : node.left;  // far: visited later
      stack[top++] = left_first ? node.left : node.right;  // near: popped next
      continue;
    }

    // Leaf: the query relative to the leaf's box centre, the slack for the
    // leaf's half-extent, then its strip blocks through the kernel with the
    // undecided lanes rechecked on the double rows (strip_block_mask).
    const simd::StripThresholds th =
        st.slack.at(box_centre(boxes_.data() + node.box, dim, st.centre));
    if (th.usable) strip_relative(q, st.centre, st.qf, 1);
    const auto block_mask = [&](size_t base, u32 active) {
      return strip_block_mask(
          st.kernel, th, st.qf, q, st.eps2, strip_block(strips, base, dim),
          active, [&](int j) { return row(static_cast<u32>(base) + j); });
    };
    if (st.budget->max_neighbors != 0) {
      // Neighbor-budgeted leaf scan: the mask walk reconstructs the exact
      // stop row and distance_evals charge of a row-at-a-time scalar loop
      // (see strip_scan_budgeted), so wide vector-era leaves don't degrade
      // the paper's pruned 1M-point mode to per-row scalar evaluation.
      const bool stop = strip_scan_budgeted(
          node.begin, node.end, st.budget->max_neighbors, st.found,
          st.distance_evals, block_mask,
          [&](size_t pos) { st.out->push_back(ids_[pos]); });
      if (stop) return;
      continue;
    }
    // Walk the leaf block by block; a leaf may enter its first block and
    // leave its last one at any lane. Ascending bit order is ascending
    // position, so candidates come out in ids_ order. The distance_evals
    // tally charges one evaluation per candidate row — the kernel's
    // abandonment and the recheck are implementation details of the
    // evaluation, like box_distance2's monotone early exit, and never show
    // up in the counters.
    st.distance_evals += node.end - node.begin;
    for (u32 i = node.begin; i < node.end;) {
      const u32 base = i - i % static_cast<u32>(kDistanceStrip);
      const u32 stop =
          std::min(base + static_cast<u32>(kDistanceStrip), node.end);
      if (stop < node.end) {
        // Start the next block's first dimension row toward L1 while the
        // kernel chews this one.
        __builtin_prefetch(strip_block(strips, stop, dim));
        __builtin_prefetch(strip_block(strips, stop, dim) + 16);
      }
      for (u32 mask = block_mask(base, strip_lanes(i - base, stop - base));
           mask != 0; mask &= mask - 1) {
        st.out->push_back(ids_[base + std::countr_zero(mask)]);
      }
      i = stop;
    }
  }
}

/// Working state of one block of range_query_batch: up to kDistanceStrip
/// queries walking the tree together.
struct KdTree::BlockState {
  explicit BlockState(double eps, size_t dim)
      : eps2(eps * eps), slack(eps2, dim), qs(kDistanceStrip * dim, 0.0),
        centre(dim), qf(kStripTile * dim) {}

  double eps2;
  simd::StripSlack slack;
  u32 count = 0;  ///< live lanes, [1, kDistanceStrip]
  /// The block's query coordinates, dimension-major (the box kernel's
  /// operand); lanes >= count repeat lane 0 so every lane stays finite.
  std::vector<double> qs;
  std::array<const double*, kDistanceStrip> rows{};  ///< each lane's row
  /// Per lane: hits as (path key, strip position).
  std::array<std::vector<std::pair<u64, u32>>, kDistanceStrip> hits;
  std::vector<double> centre;  ///< the current leaf's box centre
  std::vector<float> qf;       ///< one tile's query rows relative to it
  simd::StripKernelFn strip = nullptr;
  simd::BoxKernelFn box = nullptr;
  u64 nodes_visited = 0;
  u64 distance_evals = 0;
};

void KdTree::run_block(BlockState& st) const {
  // One depth-first walk for the whole block. A frame carries the lanes
  // whose own descent reaches the node, so each lane is charged exactly
  // the nodes, leaves and rows its run_query would visit. Walk order is
  // the same for every lane (left child first); each lane's near-first
  // order is recovered from the path key instead: bit (63 - t) is set when
  // the edge out of depth t leads to the lane's far side, so sorting a
  // lane's hits by (key, position) reproduces run_query's output order.
  const size_t dim = static_cast<size_t>(points_.dim());
  const float* strips = leaf_coords_.get();
  struct Frame {
    i32 node;
    u32 lanes;  ///< lanes that visit the node
    u32 far;    ///< lanes for which the edge into the node is the far side
    i32 depth;
  };
  Frame stack[kQueryStackCap];    // depth_ + 1 <= cap, checked at build
  u32 path[kQueryStackCap] = {};  // far lanes of each edge on the path
  int top = 0;
  stack[top++] = {root_,
                  st.count == kDistanceStrip ? ~u32{0}
                                             : (u32{1} << st.count) - 1,
                  0, 0};
  while (top > 0) {
    const Frame f = stack[--top];
    if (f.depth > 0) path[f.depth - 1] = f.far;
    const Node& node = nodes_[static_cast<size_t>(f.node)];
    st.nodes_visited += static_cast<u64>(std::popcount(f.lanes));
    const u32 pass =
        st.box(st.qs.data(), dim, st.eps2, boxes_.data() + node.box, f.lanes);
    if (pass == 0) continue;

    if (!node.is_leaf()) {
      prefetch_children(node);
      const double* split =
          st.qs.data() + static_cast<size_t>(node.split_dim) * kDistanceStrip;
      u32 left_near = 0;
      for (u32 j = 0; j < kDistanceStrip; ++j) {
        left_near |= static_cast<u32>(split[j] <= node.split_value) << j;
      }
      stack[top++] = {node.right, pass, pass & left_near, f.depth + 1};
      stack[top++] = {node.left, pass, pass & ~left_near, f.depth + 1};
      continue;
    }

    // Leaf: the passing lanes scan it in tiles of up to kStripTile queries,
    // so each strip row the kernel loads serves a whole tile while the
    // leaf's blocks are hot in L1.
    st.distance_evals +=
        static_cast<u64>(node.end - node.begin) * std::popcount(pass);
    const simd::StripThresholds th = st.slack.at(
        box_centre(boxes_.data() + node.box, dim, st.centre.data()));
    for (u32 lanes = pass; lanes != 0;) {
      u32 tile[kStripTile];
      size_t nq = 0;
      for (; lanes != 0 && nq < kStripTile; lanes &= lanes - 1) {
        tile[nq] = static_cast<u32>(std::countr_zero(lanes));
        if (th.usable) {
          strip_relative({st.rows[tile[nq]], dim}, st.centre.data(),
                         st.qf.data() + nq * dim, 1);
        }
        ++nq;
      }
      u64 key[kStripTile] = {};
      bool keyed[kStripTile] = {};
      for (u32 i = node.begin; i < node.end;) {
        const u32 base = i - i % static_cast<u32>(kDistanceStrip);
        const u32 stop =
            std::min(base + static_cast<u32>(kDistanceStrip), node.end);
        const u32 active = strip_lanes(i - base, stop - base);
        simd::StripMasks masks[kStripTile];
        if (th.usable) {
          st.strip(st.qf.data(), nq, dim, th.sure_le, th.maybe_le,
                   strip_block(strips, base, dim), active, masks);
        } else {
          for (size_t t = 0; t < nq; ++t) masks[t] = {0, active};
        }
        for (size_t t = 0; t < nq; ++t) {
          const u32 j = tile[t];
          u32 mask = strip_recheck(
              masks[t], {st.rows[j], dim}, st.eps2,
              [&](int l) { return row(base + static_cast<u32>(l)); });
          if (mask != 0 && !keyed[t]) {
            for (i32 d = 0; d < f.depth; ++d) {
              key[t] |= static_cast<u64>((path[d] >> j) & 1) << (63 - d);
            }
            keyed[t] = true;
          }
          for (; mask != 0; mask &= mask - 1) {
            st.hits[j].emplace_back(key[t], base + std::countr_zero(mask));
          }
        }
        i = stop;
      }
    }
  }
}

void KdTree::range_query_batch(std::span<const PointId> queries, double eps,
                               const QueryBudget& budget,
                               NeighborhoodCsr& out) const {
  if (!budget.exact()) {
    // Budgets stop a query mid-walk: keep the per-query loop.
    SpatialIndex::range_query_batch(queries, eps, budget, out);
    return;
  }
  const size_t n = ids_.size();
  const size_t m = queries.size();
  const size_t dim = static_cast<size_t>(points_.dim());
  out.offsets.assign(m + 1, 0);

  // Tree order: mark the queried ids in an n-bit scratch bitmap and walk
  // the build permutation, so neighbouring queries share their descent.
  // Caller slots sorted by id map each id found back to its slot(s).
  std::vector<u64> queried((n + 63) / 64, 0);
  for (const PointId id : queries) {
    SDB_CHECK(static_cast<u64>(id) < n,
              "range_query_batch: query id is not an indexed point");
    queried[static_cast<size_t>(id) >> 6] |= u64{1} << (id & 63);
  }
  std::vector<u32> by_id(m);
  std::iota(by_id.begin(), by_id.end(), u32{0});
  std::sort(by_id.begin(), by_id.end(), [&](u32 a, u32 b) {
    return queries[a] != queries[b] ? queries[a] < queries[b] : a < b;
  });
  std::vector<u32> order;  // caller slots in tree order
  order.reserve(m);
  for (size_t pos = 0; pos < n && order.size() < m; ++pos) {
    const PointId id = ids_[pos];
    if (((queried[static_cast<size_t>(id) >> 6] >> (id & 63)) & 1) == 0) {
      continue;
    }
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [&](u32 slot, PointId v) { return queries[slot] < v; });
    for (; it != by_id.end() && queries[*it] == id; ++it) order.push_back(*it);
  }

  BlockState st(eps, dim);
  st.strip = simd::detail::strip_kernel();
  st.box = simd::detail::box_kernel();
  std::vector<u32> found;  // hit positions, lists in tree order
  for (size_t b = 0; b < m; b += kDistanceStrip) {
    st.count = static_cast<u32>(std::min(kDistanceStrip, m - b));
    for (u32 j = 0; j < kDistanceStrip; ++j) {
      const u32 src = j < st.count ? j : 0;
      const auto row = points_[queries[order[b + src]]];
      st.rows[j] = row.data();
      for (size_t d = 0; d < dim; ++d) st.qs[d * kDistanceStrip + j] = row[d];
    }
    run_block(st);
    for (u32 j = 0; j < st.count; ++j) {
      auto& hits = st.hits[j];
      std::sort(hits.begin(), hits.end());
      for (const auto& h : hits) found.push_back(h.second);
      out.offsets[order[b + j] + 1] = hits.size();
      hits.clear();
    }
  }

  // Lists back into caller order.
  for (size_t i = 0; i < m; ++i) out.offsets[i + 1] += out.offsets[i];
  out.ids.resize(found.size());
  size_t src = 0;
  for (const u32 slot : order) {
    for (u64 o = out.offsets[slot]; o < out.offsets[slot + 1]; ++o) {
      out.ids[o] = ids_[found[src++]];
    }
  }
  counters::tree_nodes(st.nodes_visited);
  counters::distance_evals(st.distance_evals);
}

void KdTree::knn_query(std::span<const double> q, size_t k,
                       const QueryBudget& budget,
                       std::vector<KnnHit>& out) const {
  // Max-heap of (distance2, id), bounded to k entries. The PAIR compares —
  // lexicographic (d2, id) — so the retained set is the k smallest (d2, id)
  // pairs: ties at exactly the k-th distance are broken toward the smaller
  // id, deterministically, regardless of tree layout or traversal order.
  // (Comparing d2 alone kept whichever tied point the traversal reached
  // first — a function of leaf packing, not of the data.)
  using Entry = std::pair<double, PointId>;
  std::priority_queue<Entry> heap;
  if (root_ < 0 || k == 0) return;

  u64 nodes_visited = 0;
  u64 evals = 0;
  // Iterative best-first would be faster; recursive depth-first with heap
  // pruning is simpler and the call sites (examples, tests, the exact kNN
  // graph builder's oracle) are small.
  const size_t dim = static_cast<size_t>(points_.dim());
  const float* strips = leaf_coords_.get();
  const simd::StripKernelFn kernel = simd::detail::strip_kernel();
  SmallBuf<double, kStackDim> centre(dim);
  SmallBuf<float, kStackDim> qf(dim);
  auto visit = [&](auto&& self, i32 node_id) -> void {
    // Node budget: stop descending once the cap is reached (max_neighbors
    // is ignored for kNN — see the contract in spatial_index.hpp).
    if (budget.max_nodes != 0 && nodes_visited >= budget.max_nodes) return;
    ++nodes_visited;
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    // Strict > keeps the tie-break exact: a subtree at box distance equal
    // to the current k-th distance may still hold an equal-distance point
    // with a smaller id.
    if (heap.size() == k &&
        box_distance2(node, q, heap.top().first) > heap.top().first) {
      return;
    }
    if (node.is_leaf()) {
      if (heap.size() == k) {
        // Kernel-filtered leaf scan: with the heap full, a row can only
        // matter if (d2, id) < heap.top(), which requires d2 <= top.d2 —
        // and top.d2 never increases — so the kernel's maybe mask at
        // cutoff = top.d2-at-leaf-entry is a superset of every row a
        // scalar loop would insert (with unusable thresholds, e.g. an
        // overflowed inf cutoff, every row passes). Survivors get the
        // exact distance from the unfused scalar accumulation, so the heap
        // evolves exactly as under the scalar loop below; rows the filter
        // drops satisfy d2 > cutoff >= top.d2-current and were no-ops
        // anyway. Charged one eval per row, exactly like the scalar loop.
        evals += node.end - node.begin;
        const double cutoff = heap.top().first;
        // The recheck keeps rows with d2 <= cutoff, the rows the double
        // filter kept; an overflowed (inf) cutoff keeps every row, as the
        // scalar loop does.
        const bool finite = std::isfinite(cutoff);
        const simd::StripThresholds th = simd::StripSlack(cutoff, dim).at(
            box_centre(boxes_.data() + node.box, dim, centre.data()));
        if (th.usable) strip_relative(q, centre.data(), qf.data(), 1);
        for (u32 i = node.begin; i < node.end;) {
          const u32 base = i - i % static_cast<u32>(kDistanceStrip);
          const u32 stop =
              std::min(base + static_cast<u32>(kDistanceStrip), node.end);
          simd::StripMasks m{0, strip_lanes(i - base, stop - base)};
          if (th.usable) {
            kernel(qf.data(), 1, dim, th.sure_le, th.maybe_le,
                   strip_block(strips, base, dim), m.maybe, &m);
          }
          for (u32 mask = m.maybe; mask != 0; mask &= mask - 1) {
            const u32 pos = base + static_cast<u32>(std::countr_zero(mask));
            const Entry cand{squared_distance_uncounted(q, row(pos)),
                             ids_[pos]};
            if (finite && !(cand.first <= cutoff)) continue;
            if (cand < heap.top()) {
              heap.pop();
              heap.push(cand);
            }
          }
          i = stop;
        }
        return;
      }
      // Scalar leaf scan while the heap is filling (the first leaves).
      for (u32 i = node.begin; i < node.end; ++i) {
        ++evals;
        const Entry cand{squared_distance_uncounted(q, row(i)), ids_[i]};
        if (heap.size() < k) {
          heap.push(cand);
        } else if (cand < heap.top()) {
          heap.pop();
          heap.push(cand);
        }
      }
      return;
    }
    const bool left_first = q[node.split_dim] <= node.split_value;
    self(self, left_first ? node.left : node.right);
    self(self, left_first ? node.right : node.left);
  };
  visit(visit, root_);
  // One thread-local flush per query (see the counter contract).
  counters::tree_nodes(nodes_visited);
  counters::distance_evals(evals);

  const size_t base = out.size();
  out.resize(base + heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[base + i] = KnnHit{heap.top().first, heap.top().second};
    heap.pop();
  }
}

std::vector<PointId> KdTree::knn(std::span<const double> q, size_t k) const {
  std::vector<KnnHit> hits;
  knn_query(q, k, QueryBudget{}, hits);
  std::vector<PointId> out;
  out.reserve(hits.size());
  for (const KnnHit& h : hits) out.push_back(h.id);
  return out;
}

u64 KdTree::byte_size() const {
  return points_.byte_size() + ids_.size() * sizeof(PointId) +
         nodes_.size() * sizeof(Node) + boxes_.size() * sizeof(double) +
         leaf_coords_len_ * sizeof(float);
}

}  // namespace sdb
