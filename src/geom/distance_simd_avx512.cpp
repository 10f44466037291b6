// AVX-512F strip kernel. Compiled with -mavx512f ONLY (no -mfma implied
// contraction: -ffp-contract=off is also pinned) so the accumulation stays
// an unfused multiply + add, bit-identical to the scalar fallback — see the
// determinism contract in distance_simd.hpp. Relative to the AVX2 variant
// this halves the vector op count (8 doubles per register, a full
// 32-lane strip in 4 accumulators) and replaces the movemask shuffle
// dance with native mask registers: _mm512_cmp_pd_mask yields the
// decision bits directly, and masked loads make the ragged tail group
// fault-free without a separate maskload constant.
//
// The box kernel (box_avx512) tests a 32-lane query block against one
// kd-tree node box with the same accumulator shape.
//
// Only selected when __builtin_cpu_supports("avx512f") at dispatch time,
// so building this TU on any x86-64 toolchain is safe for older hosts.
#include "geom/distance_simd.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <limits>

namespace sdb::simd::detail {

namespace {

/// Full 32-lane block: four 8-wide accumulators, fully unrolled so they
/// live in registers. The abandonment probe runs every second dimension —
/// a 3-min tree + one mask compare, cheap against the 4 loads the skipped
/// dimensions would have cost.
inline std::uint32_t strip_avx512_full(const double* q, size_t dim,
                                       double eps2, const double* lanes) {
  __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
  __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
  const __m512d veps = _mm512_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m512d vq = _mm512_set1_pd(q[d]);
    const double* row = lanes + d * kDistanceStrip;
    const __m512d d0 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 0));
    const __m512d d1 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 8));
    const __m512d d2 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 16));
    const __m512d d3 = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 24));
    a0 = _mm512_add_pd(a0, _mm512_mul_pd(d0, d0));
    a1 = _mm512_add_pd(a1, _mm512_mul_pd(d1, d1));
    a2 = _mm512_add_pd(a2, _mm512_mul_pd(d2, d2));
    a3 = _mm512_add_pd(a3, _mm512_mul_pd(d3, d3));
    if (abandon_probe_due(d, dim)) {
      const __m512d m =
          _mm512_min_pd(_mm512_min_pd(a0, a1), _mm512_min_pd(a2, a3));
      if (_mm512_cmp_pd_mask(m, veps, _CMP_LE_OQ) == 0) {
        return 0;  // every lane's partial sum already exceeds eps^2
      }
    }
  }
  std::uint32_t mask = 0;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a0, veps, _CMP_LE_OQ));
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a1, veps, _CMP_LE_OQ))
          << 8;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a2, veps, _CMP_LE_OQ))
          << 16;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a3, veps, _CMP_LE_OQ))
          << 24;
  return mask;
}

/// Partial strip (a scan entering or leaving a block mid-strip). Groups of
/// 8 lanes; the ragged tail group loads through a lane mask — the lanes
/// past `count` may sit past the end of the buffer's final dimension row,
/// so an unmasked 8-wide load could fault. Inactive tail lanes accumulate
/// from +inf: they never hold the min down (so they cannot block
/// abandonment) and they compare false in the final <= eps^2 test, which
/// keeps bits >= count zero without any extra masking.
inline std::uint32_t strip_avx512_partial(const double* q, size_t dim,
                                          double eps2, const double* lanes,
                                          size_t count) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t full = count / 8;
  const size_t rem = count - full * 8;
  const size_t groups = full + (rem != 0 ? 1 : 0);
  __m512d acc[kDistanceStrip / 8];
  for (size_t g = 0; g < full; ++g) acc[g] = _mm512_setzero_pd();
  __mmask8 tail = 0;
  if (rem != 0) {
    tail = static_cast<__mmask8>((1u << rem) - 1u);
    // Active tail lanes start at 0, inactive ones at +inf.
    acc[full] = _mm512_mask_mov_pd(_mm512_set1_pd(kInf), tail,
                                   _mm512_setzero_pd());
  }
  const __m512d veps = _mm512_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m512d vq = _mm512_set1_pd(q[d]);
    const double* row = lanes + d * kDistanceStrip;
    for (size_t g = 0; g < full; ++g) {
      const __m512d diff = _mm512_sub_pd(vq, _mm512_loadu_pd(row + 8 * g));
      acc[g] = _mm512_add_pd(acc[g], _mm512_mul_pd(diff, diff));
    }
    if (rem != 0) {
      // maskz load: inactive lanes read as 0.0, so their diff^2 is finite
      // and +inf + finite keeps the accumulator at +inf.
      const __m512d p = _mm512_maskz_loadu_pd(tail, row + 8 * full);
      const __m512d diff = _mm512_sub_pd(vq, p);
      acc[full] = _mm512_add_pd(acc[full], _mm512_mul_pd(diff, diff));
    }
    if (abandon_probe_due(d, dim)) {
      __m512d m = acc[0];
      for (size_t g = 1; g < groups; ++g) m = _mm512_min_pd(m, acc[g]);
      if (_mm512_cmp_pd_mask(m, veps, _CMP_LE_OQ) == 0) {
        return 0;
      }
    }
  }
  std::uint32_t mask = 0;
  for (size_t g = 0; g < groups; ++g) {
    mask |= static_cast<std::uint32_t>(
                _mm512_cmp_pd_mask(acc[g], veps, _CMP_LE_OQ))
            << (8 * g);
  }
  return mask;
}

}  // namespace

std::uint32_t box_avx512(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active) {
  // Inactive lanes accumulate from +inf: they never hold the abandonment
  // min down and compare false at the end.
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512d zero = _mm512_setzero_pd();
  __m512d a0 = _mm512_mask_mov_pd(inf, static_cast<__mmask8>(active), zero);
  __m512d a1 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(active >> 8), zero);
  __m512d a2 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(active >> 16), zero);
  __m512d a3 =
      _mm512_mask_mov_pd(inf, static_cast<__mmask8>(active >> 24), zero);
  const __m512d veps = _mm512_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m512d lo = _mm512_set1_pd(box[2 * d]);
    const __m512d hi = _mm512_set1_pd(box[2 * d + 1]);
    const double* row = qs + d * kDistanceStrip;
    const __m512d q0 = _mm512_loadu_pd(row + 0);
    const __m512d q1 = _mm512_loadu_pd(row + 8);
    const __m512d q2 = _mm512_loadu_pd(row + 16);
    const __m512d q3 = _mm512_loadu_pd(row + 24);
    // max(max(lo - q, q - hi), 0): the same clamp, in the same order, as
    // the scalar box test (a signed zero squares away).
    const __m512d e0 = _mm512_max_pd(
        _mm512_max_pd(_mm512_sub_pd(lo, q0), _mm512_sub_pd(q0, hi)), zero);
    const __m512d e1 = _mm512_max_pd(
        _mm512_max_pd(_mm512_sub_pd(lo, q1), _mm512_sub_pd(q1, hi)), zero);
    const __m512d e2 = _mm512_max_pd(
        _mm512_max_pd(_mm512_sub_pd(lo, q2), _mm512_sub_pd(q2, hi)), zero);
    const __m512d e3 = _mm512_max_pd(
        _mm512_max_pd(_mm512_sub_pd(lo, q3), _mm512_sub_pd(q3, hi)), zero);
    a0 = _mm512_add_pd(a0, _mm512_mul_pd(e0, e0));
    a1 = _mm512_add_pd(a1, _mm512_mul_pd(e1, e1));
    a2 = _mm512_add_pd(a2, _mm512_mul_pd(e2, e2));
    a3 = _mm512_add_pd(a3, _mm512_mul_pd(e3, e3));
    if (abandon_probe_due(d, dim)) {
      const __m512d m =
          _mm512_min_pd(_mm512_min_pd(a0, a1), _mm512_min_pd(a2, a3));
      if (_mm512_cmp_pd_mask(m, veps, _CMP_LE_OQ) == 0) return 0;
    }
  }
  std::uint32_t mask = 0;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a0, veps, _CMP_LE_OQ));
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a1, veps, _CMP_LE_OQ))
          << 8;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a2, veps, _CMP_LE_OQ))
          << 16;
  mask |= static_cast<std::uint32_t>(_mm512_cmp_pd_mask(a3, veps, _CMP_LE_OQ))
          << 24;
  return mask;
}

std::uint32_t strip_avx512(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count) {
  if (count == kDistanceStrip) return strip_avx512_full(q, dim, eps2, lanes);
  return strip_avx512_partial(q, dim, eps2, lanes, count);
}

}  // namespace sdb::simd::detail

#endif  // defined(__AVX512F__)
