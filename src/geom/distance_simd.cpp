#include "geom/distance_simd.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>

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

// DESIGN.md §14, row kernel: the kernel and the ascending-d loop sum the
// same non-negative terms in different orders, each within gamma of their
// exact sum, so the loop's D <= tau gives the kernel's sum
// <= tau (1 + gamma) / (1 - gamma) = tau / (1 - 2 m), m = (dim - 1) u.
// 1 - 2 m is exact (m is an integer multiple of 2^-53 below 2^-11); the
// quotient is one rounding, and one step up covers it.
double row_maybe_le(double tau, size_t dim) {
  const double m = static_cast<double>(dim > 0 ? dim - 1 : 0) * kUd;
  if (!(tau <= DBL_MAX / 2) || !(m < 0x1p-11)) return INFINITY;
  return std::nextafter(tau / (1.0 - 2.0 * m), INFINITY);
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
std::atomic<RowKernelFn> g_row{nullptr};

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

std::uint32_t row_scalar(const double* q, const double* const* rows,
                         size_t count, size_t dim, double maybe_le) {
  std::uint32_t mask = 0;
  for (size_t l = 0; l < count; ++l) {
    const double* p = rows[l];
    // squared_distance_uncounted's own loop: the same terms, the same order.
    double s = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = q[d] - p[d];
      s += diff * diff;
      if (s > maybe_le) break;  // monotone: the row is out
    }
    if (s <= maybe_le) mask |= std::uint32_t{1} << l;
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
std::uint32_t row_avx2(const double* q, const double* const* rows,
                       size_t count, size_t dim, double maybe_le);
#endif
#if SDB_HAVE_AVX512
// Defined in distance_simd_avx512.cpp (compiled with -mavx512f only).
void strip_avx512(const float* qs, size_t nq, size_t dim, float sure_le,
                  float maybe_le, const float* block, std::uint32_t active,
                  StripMasks* out);
std::uint32_t box_avx512(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active);
std::uint32_t row_avx512(const double* q, const double* const* rows,
                         size_t count, size_t dim, double maybe_le);
#endif
#if SDB_HAVE_NEON
// Defined in distance_simd_neon.cpp.
void strip_neon(const float* qs, size_t nq, size_t dim, float sure_le,
                float maybe_le, const float* block, std::uint32_t active,
                StripMasks* out);
std::uint32_t row_neon(const double* q, const double* const* rows,
                       size_t count, size_t dim, double maybe_le);
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
  RowKernelFn row;
};

constexpr Kernels kScalarKernels{&strip_scalar, &box_scalar, &row_scalar};

/// Variant `v`'s kernels when they are compiled in and this CPU runs them.
/// NEON is baseline on aarch64 (no runtime probe); its box kernel is the
/// scalar one.
std::optional<Kernels> kernels_of(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return kScalarKernels;
    case KernelVariant::kAvx512:
#if SDB_HAVE_AVX512
      if (__builtin_cpu_supports("avx512f")) {
        return Kernels{&strip_avx512, &box_avx512, &row_avx512};
      }
#endif
      break;
    case KernelVariant::kAvx2:
#if SDB_HAVE_AVX2
      if (__builtin_cpu_supports("avx2")) {
        return Kernels{&strip_avx2, &box_avx2, &row_avx2};
      }
#endif
      break;
    case KernelVariant::kNeon:
#if SDB_HAVE_NEON
      return Kernels{&strip_neon, &box_scalar, &row_neon};
#endif
      break;
  }
  return std::nullopt;
}

/// The vector variants, best first.
constexpr KernelVariant kVectorVariants[] = {
    KernelVariant::kAvx512, KernelVariant::kAvx2, KernelVariant::kNeon};

Kernels best_kernels() {
  if (g_forced_scalar.load(std::memory_order_relaxed) || env_forces_scalar()) {
    return kScalarKernels;
  }
  for (const KernelVariant v : kVectorVariants) {
    if (const std::optional<Kernels> k = kernels_of(v)) return *k;
  }
  return kScalarKernels;
}

}  // namespace

void resolve() {
  const Kernels k = best_kernels();
  g_strip.store(k.strip, std::memory_order_relaxed);
  g_box.store(k.box, std::memory_order_relaxed);
  g_row.store(k.row, std::memory_order_relaxed);
}

RowKernelFn row_kernel_of(KernelVariant v) {
  const std::optional<Kernels> k = kernels_of(v);
  return k ? k->row : nullptr;
}

}  // namespace detail

KernelVariant active_variant() {
  const StripKernelFn fn = detail::strip_kernel();
  for (const KernelVariant v : detail::kVectorVariants) {
    const std::optional<detail::Kernels> k = detail::kernels_of(v);
    if (k && k->strip == fn) return v;
  }
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
