#include "geom/distance_simd.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace sdb::simd {

namespace {

/// Unit roundoffs and underflow steps (round to nearest): float, double.
constexpr double kU = 0x1p-24;
constexpr double kUd = 0x1p-53;
/// Half the least float subnormal: the absolute error of a float rounding
/// that underflows.
constexpr double kEta = 0x1p-150;
/// Per-dimension double underflow allowance, over-estimated so it stays a
/// normal number (the true step is 2^-1075).
constexpr double kEtaD = 0x1p-1020;
/// Relative margin on s: covers the rounding of this double arithmetic.
constexpr double kMargin = 1.0 + 0x1p-16;

/// The largest float <= v / the smallest float >= v.
float float_below(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) f = std::nextafter(f, -INFINITY);
  return f;
}
float float_above(double v) {
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) f = std::nextafter(f, INFINITY);
  return f;
}

}  // namespace

// The derivation is DESIGN.md §14. With r = sqrt(E), E the exact squared
// distance and H the half-extent norm of the strip's origin box:
//   L(r) = (1 - g) max(0, (1 - a) r - b)^2 - c0 <= F <= (1 + g)((1 + a) r + b)^2 + c0
// with a = u'(1 + u) + u, b = (1 + u)(2 u' H + 2 eta sqrt(dim)),
// g = dim u / (1 - dim u), c0 = (1 + g) dim eta, u' = u + ud + u ud; and
// (1 - gd) E - cd <= D <= (1 + gd) E + cd for the double loop. Both float
// bounds grow with r, so a lane with D > tau has F >= L(r_lo) and a lane
// with D <= tau has F <= U(r_hi), which is what the thresholds test.
StripSlack::StripSlack(double eps2, size_t dim) : tau_(eps2) {
  const double n = static_cast<double>(dim);
  if (!(2.0 * n * kU < 1.0)) return;  // the float sum bound needs n u < 1
  const double up = kU + kUd + kU * kUd;
  const double alpha = up * (1.0 + kU) + kU;
  gamma_ = n * kU / (1.0 - n * kU);
  c0_ = (1.0 + gamma_) * n * kEta;
  b1_ = 2.0 * up * (1.0 + kU);
  b0_ = 2.0 * kEta * std::sqrt(n) * (1.0 + kU);
  const double gd = (n + 1.0) * kUd / (1.0 - (n + 1.0) * kUd);
  const double cd = 2.0 * n * kEtaD;
  r_hi_ = (1.0 + alpha) * std::sqrt((eps2 + cd) / (1.0 - gd));
  r_lo_ = (1.0 - alpha) * std::sqrt(std::max(0.0, (eps2 - cd) / (1.0 + gd)));
  usable_ = true;
}

StripThresholds StripSlack::at(double half_extent) const {
  StripThresholds th;
  // Stored coordinates must stay finite floats; NaN fails every test here.
  if (!usable_ || !(half_extent <= FLT_MAX / 4)) return th;
  const double beta = b1_ * half_extent + b0_;
  const double upper = (1.0 + gamma_) * (r_hi_ + beta) * (r_hi_ + beta) + c0_;
  const double lo_r = std::max(0.0, r_lo_ - beta);
  const double lower = (1.0 - gamma_) * lo_r * lo_r - c0_;
  const double s = std::max(upper - tau_, tau_ - lower) * kMargin;
  // A float sum that overflowed to +inf must still read as "out": keep the
  // maybe threshold well inside the float range.
  if (!(tau_ + s <= FLT_MAX / 2)) return th;
  th.sure_le = float_below(tau_ - s);
  th.maybe_le = float_above(tau_ + s);
  th.usable = true;
  return th;
}

namespace detail {

std::atomic<StripKernelFn> g_strip{nullptr};
std::atomic<BoxKernelFn> g_box{nullptr};

void strip_scalar(const float* qs, size_t nq, size_t dim, float sure_le,
                  float maybe_le, const float* block, std::uint32_t active,
                  StripMasks* out) {
  for (size_t t = 0; t < nq; ++t) {
    const float* q = qs + t * dim;
    StripMasks m;
    for (std::uint32_t lanes = active; lanes != 0; lanes &= lanes - 1) {
      const int j = std::countr_zero(lanes);
      const float* col = block + j;
      float s = 0.0f;
      for (size_t d = 0; d < dim; ++d) {
        const float diff = q[d] - col[d * kDistanceStrip];
        s += diff * diff;
        // Monotone: once above maybe_le the lane is out.
        if (s > maybe_le) break;
      }
      if (s <= maybe_le) m.maybe |= std::uint32_t{1} << j;
      if (s <= sure_le) m.sure |= std::uint32_t{1} << j;
    }
    out[t] = m;
  }
}

std::uint32_t box_scalar(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active) {
  std::uint32_t mask = 0;
  for (; active != 0; active &= active - 1) {
    const int j = std::countr_zero(active);
    const double* col = qs + j;
    double s = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double q = col[d * kDistanceStrip];
      const double diff =
          std::max(std::max(box[2 * d] - q, q - box[2 * d + 1]), 0.0);
      s += diff * diff;
      if (s > eps2) break;  // monotone: the decision is already made
    }
    if (s <= eps2) mask |= std::uint32_t{1} << j;
  }
  return mask;
}

#if SDB_HAVE_AVX2
// Defined in distance_simd_avx2.cpp (compiled with -mavx2 only).
void strip_avx2(const float* qs, size_t nq, size_t dim, float sure_le,
                float maybe_le, const float* block, std::uint32_t active,
                StripMasks* out);
std::uint32_t box_avx2(const double* qs, size_t dim, double eps2,
                       const double* box, std::uint32_t active);
#endif
#if SDB_HAVE_AVX512
// Defined in distance_simd_avx512.cpp (compiled with -mavx512f only).
void strip_avx512(const float* qs, size_t nq, size_t dim, float sure_le,
                  float maybe_le, const float* block, std::uint32_t active,
                  StripMasks* out);
std::uint32_t box_avx512(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active);
#endif
#if SDB_HAVE_NEON
// Defined in distance_simd_neon.cpp.
void strip_neon(const float* qs, size_t nq, size_t dim, float sure_le,
                float maybe_le, const float* block, std::uint32_t active,
                StripMasks* out);
#endif

namespace {

std::atomic<bool> g_forced_scalar{false};

/// True when the environment pins the scalar fallback (SDB_SIMD=scalar, off
/// or 0) — the forced-scalar ctest cell sets this for the whole binary.
bool env_forces_scalar() {
  const char* v = std::getenv("SDB_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "scalar") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "0") == 0;
}

struct Kernels {
  StripKernelFn strip;
  BoxKernelFn box;
};

Kernels best_kernels() {
  if (g_forced_scalar.load(std::memory_order_relaxed) || env_forces_scalar()) {
    return {&strip_scalar, &box_scalar};
  }
#if SDB_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f")) return {&strip_avx512, &box_avx512};
#endif
#if SDB_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return {&strip_avx2, &box_avx2};
#endif
#if SDB_HAVE_NEON
  // NEON is baseline on aarch64; no runtime probe needed. The box kernel
  // takes the scalar path there.
  return {&strip_neon, &box_scalar};
#endif
  return {&strip_scalar, &box_scalar};
}

}  // namespace

void resolve() {
  const Kernels k = best_kernels();
  g_strip.store(k.strip, std::memory_order_relaxed);
  g_box.store(k.box, std::memory_order_relaxed);
}

}  // namespace detail

KernelVariant active_variant() {
  const StripKernelFn fn = detail::strip_kernel();
#if SDB_HAVE_AVX512
  if (fn == &detail::strip_avx512) return KernelVariant::kAvx512;
#endif
#if SDB_HAVE_AVX2
  if (fn == &detail::strip_avx2) return KernelVariant::kAvx2;
#endif
#if SDB_HAVE_NEON
  if (fn == &detail::strip_neon) return KernelVariant::kNeon;
#endif
  (void)fn;
  return KernelVariant::kScalar;
}

const char* variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
    case KernelVariant::kNeon: return "neon";
  }
  return "?";
}

void force_scalar(bool on) {
  detail::g_forced_scalar.store(on, std::memory_order_relaxed);
  detail::resolve();
}

bool scalar_forced() {
  return detail::g_forced_scalar.load(std::memory_order_relaxed);
}

}  // namespace sdb::simd
