#include "geom/distance_simd.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace sdb::simd {
namespace detail {

std::atomic<StripKernelFn> g_strip{nullptr};
std::atomic<BoxKernelFn> g_box{nullptr};

std::uint32_t strip_scalar(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count) {
  std::uint32_t mask = 0;
  for (size_t j = 0; j < count; ++j) {
    const double* col = lanes + j;
    double s = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = q[d] - col[d * kDistanceStrip];
      s += diff * diff;
      // Partial-distance abandonment: the sum is monotone, so once it
      // exceeds eps^2 the lane's decision is already made.
      if (s > eps2) break;
    }
    if (s <= eps2) mask |= std::uint32_t{1} << j;
  }
  return mask;
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
std::uint32_t strip_avx2(const double* q, size_t dim, double eps2,
                         const double* lanes, size_t count);
std::uint32_t box_avx2(const double* qs, size_t dim, double eps2,
                       const double* box, std::uint32_t active);
#endif
#if SDB_HAVE_AVX512
// Defined in distance_simd_avx512.cpp (compiled with -mavx512f only).
std::uint32_t strip_avx512(const double* q, size_t dim, double eps2,
                           const double* lanes, size_t count);
std::uint32_t box_avx512(const double* qs, size_t dim, double eps2,
                         const double* box, std::uint32_t active);
#endif
#if SDB_HAVE_NEON
// Defined in distance_simd_neon.cpp.
std::uint32_t strip_neon(const double* q, size_t dim, double eps2,
                         const double* lanes, size_t count);
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
