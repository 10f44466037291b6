// AVX2 kernels. Compiled with -mavx2 ONLY (no -mfma) and
// -ffp-contract=off: the box kernel's accumulation must stay an unfused
// multiply + add so its decisions are bit-identical to the scalar box test,
// and the float strip sums stay the unfused evaluation the DESIGN.md §14
// bound is stated for.
//
// Strip kernel: a 32-lane float block is four ymm rows per dimension. With
// only 16 ymm registers a tile holds two queries (8 accumulators, 4 strip
// rows, a broadcast and a temporary), so a call with 3 or 4 queries makes
// two passes over the block; each strip row loaded still serves two
// queries. The walk is dimension-outermost with compare-based abandonment
// (see distance_simd.hpp).
//
// The box kernel (box_avx2) tests a 32-lane double query block against one
// kd-tree node box in eight 4-wide groups, same no-FMA rule.
//
// Only selected when __builtin_cpu_supports("avx2") at dispatch time, so
// building this TU on any x86-64 toolchain is safe even for older hosts.
#include "geom/distance_simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace sdb::simd::detail {

namespace {

/// +inf in the 8 float lanes of group `g` whose `active` bits are clear, 0
/// in the rest: inactive lanes never count in the abandonment test and
/// compare false at the end.
inline __m256 strip_group_init(std::uint32_t active, size_t g) {
  const __m256i sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i bits =
      _mm256_set1_epi32(static_cast<int>((active >> (8 * g)) & 0xFF));
  const __m256i on = _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
  return _mm256_blendv_ps(
      _mm256_set1_ps(std::numeric_limits<float>::infinity()),
      _mm256_setzero_ps(), _mm256_castsi256_ps(on));
}

/// One tile of T <= 2 queries against one block.
template <size_t T>
inline void strip_tile_avx2(const float* qs, size_t dim, float sure_le,
                            float maybe_le, const float* block,
                            std::uint32_t active, StripMasks* out) {
  __m256 acc[T][4];
  for (size_t g = 0; g < 4; ++g) {
    const __m256 init = strip_group_init(active, g);
    for (size_t t = 0; t < T; ++t) acc[t][g] = init;
  }
  const __m256 vmaybe = _mm256_set1_ps(maybe_le);
  for (size_t d = 0; d < dim; ++d) {
    const float* row = block + d * kDistanceStrip;
    const __m256 p0 = _mm256_loadu_ps(row);
    const __m256 p1 = _mm256_loadu_ps(row + 8);
    const __m256 p2 = _mm256_loadu_ps(row + 16);
    const __m256 p3 = _mm256_loadu_ps(row + 24);
    for (size_t t = 0; t < T; ++t) {
      const __m256 vq = _mm256_broadcast_ss(qs + t * dim + d);
      const __m256 d0 = _mm256_sub_ps(vq, p0);
      const __m256 d1 = _mm256_sub_ps(vq, p1);
      const __m256 d2 = _mm256_sub_ps(vq, p2);
      const __m256 d3 = _mm256_sub_ps(vq, p3);
      acc[t][0] = _mm256_add_ps(acc[t][0], _mm256_mul_ps(d0, d0));
      acc[t][1] = _mm256_add_ps(acc[t][1], _mm256_mul_ps(d1, d1));
      acc[t][2] = _mm256_add_ps(acc[t][2], _mm256_mul_ps(d2, d2));
      acc[t][3] = _mm256_add_ps(acc[t][3], _mm256_mul_ps(d3, d3));
    }
    if (abandon_probe_due(d, dim)) {
      __m256 any = _mm256_setzero_ps();
      for (size_t t = 0; t < T; ++t) {
        for (size_t g = 0; g < 4; ++g) {
          any = _mm256_or_ps(any, _mm256_cmp_ps(acc[t][g], vmaybe,
                                                _CMP_LE_OQ));
        }
      }
      if (_mm256_movemask_ps(any) == 0) {
        for (size_t t = 0; t < T; ++t) out[t] = StripMasks{};
        return;  // every lane's partial sum already exceeds maybe_le
      }
    }
  }
  const __m256 vsure = _mm256_set1_ps(sure_le);
  for (size_t t = 0; t < T; ++t) {
    StripMasks m;
    for (size_t g = 0; g < 4; ++g) {
      m.maybe |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                     _mm256_cmp_ps(acc[t][g], vmaybe, _CMP_LE_OQ)))
                 << (8 * g);
      m.sure |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                    _mm256_cmp_ps(acc[t][g], vsure, _CMP_LE_OQ)))
                << (8 * g);
    }
    out[t] = m;
  }
}

/// One box-kernel group: +inf in the lanes whose `bits` are clear, 0 in
/// the rest (inactive lanes never hold the abandonment min down and compare
/// false at the end).
inline __m256d box_group_init(std::uint32_t bits) {
  const __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i on = _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(bits & 0xF), sel), sel);
  return _mm256_blendv_pd(
      _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _mm256_setzero_pd(), _mm256_castsi256_pd(on));
}

}  // namespace

std::uint32_t box_avx2(const double* qs, size_t dim, double eps2,
                       const double* box, std::uint32_t active) {
  __m256d acc[kDistanceStrip / 4];
  for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
    acc[g] = box_group_init(active >> (4 * g));
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d veps = _mm256_set1_pd(eps2);
  for (size_t d = 0; d < dim; ++d) {
    const __m256d lo = _mm256_broadcast_sd(box + 2 * d);
    const __m256d hi = _mm256_broadcast_sd(box + 2 * d + 1);
    const double* row = qs + d * kDistanceStrip;
    for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
      // max(max(lo - q, q - hi), 0): the same clamp, in the same order, as
      // the scalar box test (a signed zero squares away).
      const __m256d q = _mm256_loadu_pd(row + 4 * g);
      const __m256d e = _mm256_max_pd(
          _mm256_max_pd(_mm256_sub_pd(lo, q), _mm256_sub_pd(q, hi)), zero);
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(e, e));
    }
    if (abandon_probe_due(d, dim)) {
      const __m256d m = _mm256_min_pd(
          _mm256_min_pd(_mm256_min_pd(acc[0], acc[1]),
                        _mm256_min_pd(acc[2], acc[3])),
          _mm256_min_pd(_mm256_min_pd(acc[4], acc[5]),
                        _mm256_min_pd(acc[6], acc[7])));
      if (_mm256_movemask_pd(_mm256_cmp_pd(m, veps, _CMP_LE_OQ)) == 0) {
        return 0;
      }
    }
  }
  std::uint32_t mask = 0;
  for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
    mask |= static_cast<std::uint32_t>(_mm256_movemask_pd(
                _mm256_cmp_pd(acc[g], veps, _CMP_LE_OQ)))
            << (4 * g);
  }
  return mask;
}

void strip_avx2(const float* qs, size_t nq, size_t dim, float sure_le,
                float maybe_le, const float* block, std::uint32_t active,
                StripMasks* out) {
  for (size_t t = 0; t < nq; t += 2) {
    if (nq - t >= 2) {
      strip_tile_avx2<2>(qs + t * dim, dim, sure_le, maybe_le, block, active,
                         out + t);
    } else {
      strip_tile_avx2<1>(qs + t * dim, dim, sure_le, maybe_le, block, active,
                         out + t);
    }
  }
}

}  // namespace sdb::simd::detail

#endif  // defined(__AVX2__)
