// AVX-512F kernels. Compiled with -mavx512f ONLY and -ffp-contract=off, so
// the float strip sums stay unfused multiply + add (the DESIGN.md §14 bound
// covers any float evaluation, but the box kernel must stay bit-identical
// to the scalar box test).
//
// Strip kernel: a whole 32-lane float block is two zmm rows per dimension,
// and a tile of up to kStripTile = 4 queries keeps 8 accumulators in
// registers, so every strip row loaded serves all the tile's queries.
// Native mask registers give the decision bits directly
// (_mm512_cmp_ps_mask).
//
// The box kernel (box_avx512) tests a 32-lane double query block against
// one kd-tree node box with four 8-wide accumulators.
//
// The row kernel (row_avx512) walks four candidate rows at a time, eight
// dimensions per zmm step (the tail under a load mask, whose zeroed lanes
// add exact zero terms), one accumulator per row, and reduces each row's
// lanes at the end: the same double terms as the ascending-d loop, summed
// in another order, which the row-kernel bound covers.
//
// Only selected when __builtin_cpu_supports("avx512f") at dispatch time,
// so building this TU on any x86-64 toolchain is safe for older hosts.
#include "geom/distance_simd.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <limits>

namespace sdb::simd::detail {

namespace {

/// One tile of T queries against one block. Inactive lanes start at +inf:
/// they never count in the abandonment test and compare false at the end.
template <size_t T>
inline void strip_tile_avx512(const float* qs, size_t dim, float sure_le,
                              float maybe_le, const float* block,
                              std::uint32_t active, StripMasks* out) {
  const __m512 inf = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  const __m512 zero = _mm512_setzero_ps();
  const auto lo_lanes = static_cast<__mmask16>(active);
  const auto hi_lanes = static_cast<__mmask16>(active >> 16);
  __m512 a0[T], a1[T];
  for (size_t t = 0; t < T; ++t) {
    a0[t] = _mm512_mask_mov_ps(inf, lo_lanes, zero);
    a1[t] = _mm512_mask_mov_ps(inf, hi_lanes, zero);
  }
  const __m512 vmaybe = _mm512_set1_ps(maybe_le);
  for (size_t d = 0; d < dim; ++d) {
    const float* row = block + d * kDistanceStrip;
    const __m512 p0 = _mm512_loadu_ps(row);
    const __m512 p1 = _mm512_loadu_ps(row + 16);
    for (size_t t = 0; t < T; ++t) {
      const __m512 vq = _mm512_set1_ps(qs[t * dim + d]);
      const __m512 d0 = _mm512_sub_ps(vq, p0);
      const __m512 d1 = _mm512_sub_ps(vq, p1);
      a0[t] = _mm512_add_ps(a0[t], _mm512_mul_ps(d0, d0));
      a1[t] = _mm512_add_ps(a1[t], _mm512_mul_ps(d1, d1));
    }
    if (abandon_probe_due(d, dim)) {
      __mmask16 any = 0;
      for (size_t t = 0; t < T; ++t) {
        any |= _mm512_cmp_ps_mask(a0[t], vmaybe, _CMP_LE_OQ);
        any |= _mm512_cmp_ps_mask(a1[t], vmaybe, _CMP_LE_OQ);
      }
      if (any == 0) {
        for (size_t t = 0; t < T; ++t) out[t] = StripMasks{};
        return;  // every lane's partial sum already exceeds maybe_le
      }
    }
  }
  const __m512 vsure = _mm512_set1_ps(sure_le);
  for (size_t t = 0; t < T; ++t) {
    out[t].maybe =
        static_cast<std::uint32_t>(_mm512_cmp_ps_mask(a0[t], vmaybe,
                                                      _CMP_LE_OQ)) |
        static_cast<std::uint32_t>(_mm512_cmp_ps_mask(a1[t], vmaybe,
                                                      _CMP_LE_OQ))
            << 16;
    out[t].sure =
        static_cast<std::uint32_t>(_mm512_cmp_ps_mask(a0[t], vsure,
                                                      _CMP_LE_OQ)) |
        static_cast<std::uint32_t>(_mm512_cmp_ps_mask(a1[t], vsure,
                                                      _CMP_LE_OQ))
            << 16;
  }
}

/// The mask bits of R consecutive rows: one accumulator per row over the
/// whole dimension walk, its lanes reduced at the end.
template <size_t R>
inline std::uint32_t rows_avx512(const double* q, const double* const* rows,
                                 size_t dim, double maybe_le) {
  __m512d acc[R];
  for (size_t r = 0; r < R; ++r) acc[r] = _mm512_setzero_pd();
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m512d vq = _mm512_loadu_pd(q + d);
    for (size_t r = 0; r < R; ++r) {
      const __m512d diff = _mm512_sub_pd(vq, _mm512_loadu_pd(rows[r] + d));
      acc[r] = _mm512_add_pd(acc[r], _mm512_mul_pd(diff, diff));
    }
  }
  if (d < dim) {
    const auto tail = static_cast<__mmask8>((1u << (dim - d)) - 1);
    const __m512d vq = _mm512_maskz_loadu_pd(tail, q + d);
    for (size_t r = 0; r < R; ++r) {
      const __m512d diff =
          _mm512_sub_pd(vq, _mm512_maskz_loadu_pd(tail, rows[r] + d));
      acc[r] = _mm512_add_pd(acc[r], _mm512_mul_pd(diff, diff));
    }
  }
  std::uint32_t mask = 0;
  for (size_t r = 0; r < R; ++r) {
    if (_mm512_reduce_add_pd(acc[r]) <= maybe_le) mask |= 1u << r;
  }
  return mask;
}

}  // namespace

std::uint32_t row_avx512(const double* q, const double* const* rows,
                         size_t count, size_t dim, double maybe_le) {
  std::uint32_t mask = 0;
  size_t l = 0;
  for (; l + 4 <= count; l += 4) {
    mask |= rows_avx512<4>(q, rows + l, dim, maybe_le) << l;
  }
  for (; l < count; ++l) {
    mask |= rows_avx512<1>(q, rows + l, dim, maybe_le) << l;
  }
  return mask;
}

void strip_avx512(const float* qs, size_t nq, size_t dim, float sure_le,
                  float maybe_le, const float* block, std::uint32_t active,
                  StripMasks* out) {
  switch (nq) {
    case 1:
      strip_tile_avx512<1>(qs, dim, sure_le, maybe_le, block, active, out);
      break;
    case 2:
      strip_tile_avx512<2>(qs, dim, sure_le, maybe_le, block, active, out);
      break;
    case 3:
      strip_tile_avx512<3>(qs, dim, sure_le, maybe_le, block, active, out);
      break;
    default:
      strip_tile_avx512<4>(qs, dim, sure_le, maybe_le, block, active, out);
      break;
  }
}

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

}  // namespace sdb::simd::detail

#endif  // defined(__AVX512F__)
