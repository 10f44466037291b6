// Runtime-dispatched SIMD distance kernels over the strip-transposed (SoA)
// coordinate layout.
//
// The broadcast kd-tree's eps-range leaf scan is the hottest loop in the
// whole system, and the GPU DBSCAN literature (Prokopenko et al.; Wang et
// al.) shows the winning idiom: coalesced structure-of-arrays accesses and
// divergence-free inner loops. This header ports that idiom to SIMD lanes.
//
// Layout contract (the "strip" layout): candidate points are stored in
// blocks of kDistanceStrip lanes. Within a block, coordinates are
// dimension-major — all d=0 values of the block's points, then all d=1
// values, and so on — so the distance loop over `dim` is a pure vertical
// reduction: each vector lane accumulates one point's squared distance with
// unit-stride loads and no per-point pointer chasing. Blocks are addressed
// by global position: position i lives in block i / kDistanceStrip at lane
// i % kDistanceStrip, and a scan may enter a block at any lane offset (a
// kd-tree leaf can start mid-block).
//
// Determinism contract: every variant (scalar fallback, AVX2, AVX-512, NEON)
// returns bit-identical eps-decision masks. Each lane accumulates
// (q[d] - p[d])^2 in ascending-d order with UNFUSED multiply and add — the
// same operation sequence as the scalar squared_distance() — so
// eps-membership decisions, cluster labels, and exactly-eps boundary pairs
// agree byte-for-byte across variants and hosts. FMA contraction is
// deliberately not used: a fused multiply-add rounds once instead of twice,
// which would flip points that land within one ulp of the eps boundary.
// -ffp-contract=off is pinned PROJECT-WIDE (top-level CMakeLists), not just
// on the vector TUs — the scalar reference loops are header-inline in every
// spatial TU, and on targets where fmadd is baseline (aarch64) the compiler
// would otherwise contract them while the kernels stay unfused.
//
// Abandonment: a kernel MAY stop accumulating a lane — or stop fetching
// further dimension rows for the whole strip — once the partial sums it is
// tracking already exceed eps^2. The accumulation is monotone (every term
// is non-negative, and IEEE round-to-nearest addition of a non-negative
// value never decreases a sum), so a partial sum above eps^2 decides the
// final test exactly; abandonment changes how many bytes the kernel reads,
// never which bits it returns. This is why the contract hands the kernel
// eps^2 and takes back a decision mask instead of raw squared distances:
// returning the distances would force every lane to full depth, and the
// leaf scan at scale is bound by strip memory traffic, not arithmetic.
// Callers that need actual squared distances still get kernel help: kNN
// filters leaf candidates through the mask with eps^2 = its current worst
// heap distance and computes exact distances only for survivors, and
// neighbor-budgeted scans reconstruct the scalar loop's exact stop row and
// distance_evals charge from the mask (strip_scan_budgeted, distance.hpp).
//
// Box kernel: the kd-tree's batched walk (KdTree::range_query_batch) tests
// a block of up to 32 queries, stored in the same strip layout, against one
// node box per call (BoxKernelFn below). Same rules: ascending d, unfused,
// monotone abandonment, decisions bit-identical to the scalar box test.
//
// Dispatch: the kernels are function pointers resolved on first use — CPU
// feature detection (AVX-512F then AVX2 on x86-64, NEON on aarch64) gated by the
// SDB_SIMD cmake option, the SDB_SIMD=scalar environment variable, and the
// force_scalar() test hook. The scalar fallback is always compiled, so a
// scalar-only build (-DSDB_SIMD=OFF) is just the permanent fallback.
//
// Counters: these entry points do NOT touch work counters — callers charge
// distance_evals themselves (see distance.hpp's counted wrappers and the
// per-query batching in the spatial indexes), keeping counts exact and the
// hot loop free of thread-local lookups.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sdb {

/// Strip width of the blocked/SIMD kernels: callers evaluate candidates in
/// blocks of at most this many points (small enough for a stack result
/// buffer, large enough that the vector loops amortize dispatch).
inline constexpr size_t kDistanceStrip = 32;

namespace simd {

enum class KernelVariant { kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

/// fn(q, dim, eps2, lanes, count) -> mask:
///   bit j of the result is set iff
///   sum_d (q[d] - lanes[d * kDistanceStrip + j])^2 <= eps2,   for j < count;
///   bits >= count are always zero (count <= kDistanceStrip = 32, so the
///   mask fits a u32 exactly).
/// `lanes` points at the first lane to evaluate inside one strip block
/// (block base + lane offset); `count` never crosses a block boundary, so
/// count + (lanes - block_base) % kDistanceStrip <= kDistanceStrip. Inputs
/// are assumed finite (no NaN/inf coordinates or eps).
using StripKernelFn = std::uint32_t (*)(const double* q, size_t dim,
                                        double eps2, const double* lanes,
                                        size_t count);

/// fn(qs, dim, eps2, box, active) -> mask: the box test of a block of up
/// to kDistanceStrip queries against one axis-aligned box.
///   bit j of the result is set iff bit j of `active` is set and
///   sum_d max(max(box[2d] - qs[d * kDistanceStrip + j],
///                 qs[d * kDistanceStrip + j] - box[2d + 1]), 0)^2 <= eps2.
/// `qs` is one full strip block of query coordinates (dimension-major, all
/// kDistanceStrip lanes finite, inactive lanes included); `box` is
/// interleaved [lo0, hi0, lo1, hi1, ...]. Every variant accumulates in
/// ascending d with unfused multiply and add, so the decisions are
/// bit-identical to the kd-tree's scalar box_distance2 test.
using BoxKernelFn = std::uint32_t (*)(const double* qs, size_t dim,
                                      double eps2, const double* box,
                                      std::uint32_t active);

namespace detail {

/// The dispatched kernels; null until first resolution. Relaxed atomics:
/// all candidate values are interchangeable (bit-identical results), so
/// racing initializations are benign.
extern std::atomic<StripKernelFn> g_strip;
extern std::atomic<BoxKernelFn> g_box;

/// Scalar reference implementations — always built, and the ground truth
/// the vector variants are tested bit-equal against.
std::uint32_t strip_scalar(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count);
std::uint32_t box_scalar(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active);

/// CPU detection + SDB_SIMD env + force_scalar() -> best variant. Stores
/// its kernels in g_strip and g_box.
void resolve();

/// The active strip kernel (resolving on first use). Fetch once per query,
/// not per strip, to keep the atomic load off the inner loop.
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

}  // namespace detail

namespace detail {

/// Abandonment probe schedule shared by every vector kernel: probe after
/// dimension `d` iff this returns true. Dense early (every 2nd dim through
/// d=7, where low-d adversarial scans become decidable within a few dims),
/// then geometric (d = 15, 31, 63, ... — after each probe the kernel walks
/// at most as many dims again before the next one). The old fixed every-2nd
/// schedule paid ~d/2 horizontal min-tree reductions per strip at d >= 64 —
/// pure overhead on high-d strips whose partial sums cross eps^2 late or
/// not at all — while the geometric tail keeps the dims walked after the
/// scan becomes decidable bounded by 2x. Probing is always mask-safe at ANY
/// schedule: abandonment fires only when every lane's partial sum already
/// exceeds eps^2, which decides the final test exactly (monotonicity), so
/// the schedule changes bytes read and probe arithmetic, never mask bits —
/// pinned by the d=128 bit-identity fixtures in test_distance_kernels.
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
