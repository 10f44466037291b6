// Runtime-dispatched SIMD distance kernels over the strip-transposed (SoA)
// coordinate layout.
//
// The broadcast kd-tree's eps-range leaf scan is the hottest loop in the
// whole system, and the GPU DBSCAN literature (Prokopenko et al.; Wang et
// al.) shows the winning idiom: coalesced structure-of-arrays accesses and
// divergence-free inner loops. This header ports that idiom to SIMD lanes.
//
// Layout contract (the "strip" layout): candidate points are stored as
// float32 in blocks of kDistanceStrip lanes. Within a block, coordinates are
// dimension-major — all d=0 values of the block's points, then all d=1
// values, and so on — so the distance loop over `dim` is a pure vertical
// reduction: each vector lane accumulates one point's squared distance with
// unit-stride loads and no per-point pointer chasing. Blocks are addressed
// by global position: position i lives in block i / kDistanceStrip at lane
// i % kDistanceStrip. A stored coordinate is float(p[d] - c[d]) for an
// origin c chosen by the owner of the strip (the kd-tree: its leaf's box
// centre; brute force: the data's box centre; the kNN builders: the query
// row itself), and the query is converted the same way, so the float
// magnitudes are the leaf extent, not the data's offset from zero.
//
// Tile kernel: one call scans ONE whole block for up to kStripTile queries,
// so every strip row it loads serves several queries. `active` selects the
// block lanes that count (a kd-tree leaf may start or end mid-block; the
// other lanes belong to neighbouring leaves and are ignored).
//
// Decision contract: the float sum F of a lane is not the double sum D the
// rest of the system decides on (squared_distance_uncounted: unfused,
// ascending d). DESIGN.md §14 derives a rigorous slack s with |F - D| small
// enough that, for the thresholds StripSlack hands out,
//   F <= sure_le   implies D <= eps^2   (the lane is in),
//   F >  maybe_le  implies D >  eps^2   (the lane is out),
// and only lanes with sure_le < F <= maybe_le are undecided. Callers recheck
// those "maybe" lanes with squared_distance_uncounted on the double rows, so
// every final eps decision, cluster label and exactly-eps boundary pair is
// the double loop's, on every variant and host. The masks themselves are
// only bounded, not bit-identical across variants. When the bound is not
// usable (non-finite inputs, a leaf or threshold beyond float range) the
// thresholds report !usable and the caller decides every lane by the
// recheck: slow, but exact.
//
// FMA contraction is still not used: -ffp-contract=off is pinned
// PROJECT-WIDE (top-level CMakeLists), because the double recheck and the
// box test must stay the unfused ascending-d loops every decision is
// defined by.
//
// Abandonment: a kernel MAY stop fetching further dimension rows once every
// active lane of every query in the tile has a partial sum above maybe_le.
// Float accumulation of non-negative terms is monotone (round-to-nearest
// addition of a non-negative value never decreases a sum), so such a lane
// would end above maybe_le: out. The test is compare-based, so a NaN lane
// is simply "not <=" and never hides another lane.
//
// Box kernel: the kd-tree's batched walk (KdTree::range_query_batch) tests
// a block of up to 32 queries, stored in the same strip layout but as
// double, against one node box per call (BoxKernelFn below): ascending d,
// unfused, monotone abandonment, decisions bit-identical to the scalar box
// test.
//
// Dispatch: the kernels are function pointers resolved on first use — CPU
// feature detection (AVX-512F then AVX2 on x86-64, NEON on aarch64) gated by the
// SDB_SIMD cmake option, the SDB_SIMD=scalar environment variable, and the
// force_scalar() test hook. The scalar fallback is always compiled, so a
// scalar-only build (-DSDB_SIMD=OFF) is just the permanent fallback.
//
// Counters: these entry points do NOT touch work counters — callers charge
// distance_evals themselves (one per candidate row, rechecked or not), so
// counts stay exact and the hot loop stays free of thread-local lookups.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sdb {

/// Strip width of the blocked/SIMD kernels: callers evaluate candidates in
/// blocks of this many points (small enough for a stack result buffer,
/// large enough that the vector loops amortize dispatch).
inline constexpr size_t kDistanceStrip = 32;
/// Most queries one strip-kernel call scans per strip load.
inline constexpr size_t kStripTile = 4;

namespace simd {

enum class KernelVariant { kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

/// One query's result of a strip-kernel call, in block-lane bits.
struct StripMasks {
  std::uint32_t sure = 0;   ///< F <= sure_le: in, no recheck needed
  std::uint32_t maybe = 0;  ///< F <= maybe_le: in or undecided (sure ⊆ maybe)
};

/// fn(qs, nq, dim, sure_le, maybe_le, block, active, out):
///   for t < nq, with F(t, j) the float sum over d of
///   (qs[t * dim + d] - block[d * kDistanceStrip + j])^2,
///   bit j of out[t].maybe is set iff bit j of `active` is set and
///   F(t, j) <= maybe_le, and bit j of out[t].sure iff also
///   F(t, j) <= sure_le (a variant may compute F in any order and
///   precision the DESIGN.md §14 bound covers: float, unfused).
/// 1 <= nq <= kStripTile. `block` is the start of one whole strip block
/// (every lane readable; inactive lanes may hold anything, NaN included).
/// Requires sure_le <= maybe_le < FLT_MAX.
using StripKernelFn = void (*)(const float* qs, size_t nq, size_t dim,
                               float sure_le, float maybe_le,
                               const float* block, std::uint32_t active,
                               StripMasks* out);

/// fn(qs, dim, eps2, box, active) -> mask: the box test of a block of up
/// to kDistanceStrip queries against one axis-aligned box.
///   bit j of the result is set iff bit j of `active` is set and
///   sum_d max(max(box[2d] - qs[d * kDistanceStrip + j],
///                 qs[d * kDistanceStrip + j] - box[2d + 1]), 0)^2 <= eps2.
/// `qs` is one full strip block of query coordinates (double, dimension-
/// major, all kDistanceStrip lanes finite, inactive lanes included); `box`
/// is interleaved [lo0, hi0, lo1, hi1, ...]. Every variant accumulates in
/// ascending d with unfused multiply and add, so the decisions are
/// bit-identical to the kd-tree's scalar box_distance2 test.
using BoxKernelFn = std::uint32_t (*)(const double* qs, size_t dim,
                                      double eps2, const double* box,
                                      std::uint32_t active);

/// The float thresholds of one eps test (see the decision contract).
struct StripThresholds {
  float sure_le = 0.0f;
  float maybe_le = 0.0f;
  /// false: the bound does not hold here; decide every lane by the recheck.
  bool usable = false;
};

/// The slack of DESIGN.md §14 for one eps^2 and dimension, split so the
/// part that depends on eps^2 is computed once per query batch and the
/// per-strip part is a handful of flops.
class StripSlack {
 public:
  StripSlack(double eps2, size_t dim);
  /// Thresholds for strips whose stored coordinates satisfy
  /// |p[d] - c[d]| <= h[d] with half_extent >= ||h||_2 (0 for the
  /// query-relative form, where the origin is the query row itself).
  [[nodiscard]] StripThresholds at(double half_extent) const;

 private:
  double tau_ = 0.0;
  double gamma_ = 0.0;  ///< float squares + sum, relative
  double c0_ = 0.0;     ///< float underflow, absolute
  double b1_ = 0.0;     ///< beta = b1 * H + b0
  double b0_ = 0.0;
  double r_hi_ = 0.0;  ///< (1 + alpha) * sqrt(largest E with D <= tau)
  double r_lo_ = 0.0;  ///< (1 - alpha) * sqrt(smallest E with D > tau)
  bool usable_ = false;
};

namespace detail {

/// The dispatched kernels; null until first resolution. Relaxed atomics:
/// every candidate satisfies the same contract, so racing initializations
/// are benign.
extern std::atomic<StripKernelFn> g_strip;
extern std::atomic<BoxKernelFn> g_box;

/// Scalar reference implementations — always built.
void strip_scalar(const float* qs, size_t nq, size_t dim, float sure_le,
                  float maybe_le, const float* block, std::uint32_t active,
                  StripMasks* out);
std::uint32_t box_scalar(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active);

/// CPU detection + SDB_SIMD env + force_scalar() -> best variant. Stores
/// its kernels in g_strip and g_box.
void resolve();

/// The active strip kernel (resolving on first use). Fetch once per query
/// or batch, not per strip, to keep the atomic load off the inner loop.
inline StripKernelFn strip_kernel() {
  StripKernelFn fn = g_strip.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn;
  resolve();
  return g_strip.load(std::memory_order_relaxed);
}

/// The active box kernel, from the same variant as strip_kernel().
inline BoxKernelFn box_kernel() {
  BoxKernelFn fn = g_box.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn;
  resolve();
  return g_box.load(std::memory_order_relaxed);
}

/// Abandonment probe schedule shared by every vector kernel: probe after
/// dimension `d` iff this returns true. Dense early (every 2nd dim through
/// d=7, where low-d scans become decidable within a few dims), then
/// geometric (d = 15, 31, 63, ... — after each probe the kernel walks at
/// most as many dims again before the next one), so high-d strips whose
/// partial sums cross the threshold late do not pay ~d/2 probes. Probing is
/// decision-safe at ANY schedule (see Abandonment above); the schedule
/// changes bytes read and probe arithmetic only.
constexpr bool abandon_probe_due(size_t d, size_t dim) {
  return (d & 1) != 0 && (d < 8 || (d & (d + 1)) == 0) && d + 1 < dim;
}

}  // namespace detail

/// Which kernel the dispatcher currently selects.
KernelVariant active_variant();
const char* variant_name(KernelVariant v);
inline const char* active_variant_name() { return variant_name(active_variant()); }

/// Test hook: pin the dispatcher to the scalar fallback (true) or restore
/// CPU-detected dispatch (false). The SDB_SIMD=scalar environment variable
/// applies the same pin at startup — that is how the forced-scalar ctest
/// cell runs the whole suite on the fallback path.
void force_scalar(bool on);
[[nodiscard]] bool scalar_forced();

}  // namespace simd
}  // namespace sdb
