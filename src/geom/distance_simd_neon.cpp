// NEON (aarch64) strip kernel. Same contract as the x86 variants: float
// sums of unfused multiply + add (-ffp-contract=off, and no vfma
// intrinsics), compare-based abandonment once every active lane exceeds
// maybe_le. A 32-lane block is eight float32x4_t rows per dimension; the
// tile's queries are scanned one after another (eight accumulators each),
// so the block stays in L1 across the tile. The box kernel takes the scalar
// path on aarch64.
#include "geom/distance_simd.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <limits>

namespace sdb::simd::detail {

namespace {

/// Bit i of the result is lane i of a 4-lane compare result.
inline std::uint32_t lane_bits(uint32x4_t cmp) {
  const uint32x4_t weights = {1, 2, 4, 8};
  return vaddvq_u32(vandq_u32(cmp, weights));
}

}  // namespace

void strip_neon(const float* qs, size_t nq, size_t dim, float sure_le,
                float maybe_le, const float* block, std::uint32_t active,
                StripMasks* out) {
  const uint32x4_t weights = {1, 2, 4, 8};
  const float32x4_t inf = vdupq_n_f32(std::numeric_limits<float>::infinity());
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vmaybe = vdupq_n_f32(maybe_le);
  const float32x4_t vsure = vdupq_n_f32(sure_le);
  // Inactive lanes start at +inf: never counted, false at the end.
  float32x4_t init[kDistanceStrip / 4];
  for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
    const uint32x4_t on =
        vtstq_u32(vdupq_n_u32((active >> (4 * g)) & 0xF), weights);
    init[g] = vbslq_f32(on, zero, inf);
  }
  for (size_t t = 0; t < nq; ++t) {
    const float* q = qs + t * dim;
    float32x4_t acc[kDistanceStrip / 4];
    for (size_t g = 0; g < kDistanceStrip / 4; ++g) acc[g] = init[g];
    bool abandoned = false;
    for (size_t d = 0; d < dim; ++d) {
      const float32x4_t vq = vdupq_n_f32(q[d]);
      const float* row = block + d * kDistanceStrip;
      for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
        const float32x4_t diff = vsubq_f32(vq, vld1q_f32(row + 4 * g));
        acc[g] = vaddq_f32(acc[g], vmulq_f32(diff, diff));
      }
      if (abandon_probe_due(d, dim)) {
        uint32x4_t any = vdupq_n_u32(0);
        for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
          any = vorrq_u32(any, vcleq_f32(acc[g], vmaybe));
        }
        if (vmaxvq_u32(any) == 0) {
          abandoned = true;
          break;
        }
      }
    }
    StripMasks m;
    if (!abandoned) {
      for (size_t g = 0; g < kDistanceStrip / 4; ++g) {
        m.maybe |= lane_bits(vcleq_f32(acc[g], vmaybe)) << (4 * g);
        m.sure |= lane_bits(vcleq_f32(acc[g], vsure)) << (4 * g);
      }
    }
    out[t] = m;
  }
}

}  // namespace sdb::simd::detail

#endif  // aarch64 / NEON
