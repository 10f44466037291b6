// Distance kernels. Every full distance evaluation is counted so the
// simulated cluster clock can price executor work exactly; hot-path callers
// (the spatial indexes) batch their counts per query and flush once through
// counters::add — same totals, no thread-local lookup per evaluation.
//
// The vectorized kernels live in distance_simd.hpp: runtime-dispatched
// float32 tile kernels over a strip-transposed (SoA) layout, and a double
// row kernel over rows given by pointer. Both return bounded masks whose
// undecided rows are rechecked here with the unfused ascending-d double
// loop, so decisions never depend on the host ISA.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "geom/distance_simd.hpp"
#include "util/counters.hpp"

namespace sdb {

/// Squared Euclidean distance, uncounted — for callers that tally
/// distance_evals themselves and flush in a batch (see counters::add).
inline double squared_distance_uncounted(std::span<const double> a,
                                         std::span<const double> b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Squared Euclidean distance between two points of equal dimension.
/// Counted as one distance evaluation.
inline double squared_distance(std::span<const double> a,
                               std::span<const double> b) {
  const double s = squared_distance_uncounted(a, b);
  counters::distance_evals(1);
  return s;
}

/// Euclidean distance.
inline double distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

/// True iff the two points are within `eps` of each other.
inline bool within_eps(std::span<const double> a, std::span<const double> b,
                       double eps) {
  return squared_distance(a, b) <= eps * eps;
}

// ---------------------------------------------------------------------------
// Strip-transposed (SoA) float layout helpers — the layout the SIMD kernels
// scan. See distance_simd.hpp for the layout + decision contract. Global
// position i lives in block i / kDistanceStrip at lane i % kDistanceStrip;
// within a block coordinates are dimension-major with lane stride
// kDistanceStrip, each stored as float(p[d] - c[d]) for the strip's origin c.
// ---------------------------------------------------------------------------

/// Buffer length (in floats) for n points of dimension dim, padded to whole
/// strip blocks. Builders zero the final partial block's padding lanes so
/// vector loads never touch uninitialized memory.
inline constexpr size_t strip_padded_len(size_t n, size_t dim) {
  return ((n + kDistanceStrip - 1) / kDistanceStrip) * kDistanceStrip * dim;
}

/// Start of the strip block holding position `pos`.
inline const float* strip_block(const float* base, size_t pos, size_t dim) {
  return base + (pos / kDistanceStrip) * (kDistanceStrip * dim);
}
inline float* strip_block(float* base, size_t pos, size_t dim) {
  return base + (pos / kDistanceStrip) * (kDistanceStrip * dim);
}

/// Block-lane bits [first, last) of one strip block.
inline std::uint32_t strip_lanes(size_t first, size_t last) {
  const std::uint32_t upto =
      last >= kDistanceStrip ? ~std::uint32_t{0}
                             : (std::uint32_t{1} << last) - 1;
  return upto & ~((std::uint32_t{1} << first) - 1);
}

/// Write `p` relative to `origin` as float (the rounding DESIGN.md §14
/// bounds) with stride `stride` — a strip lane (kDistanceStrip) or a
/// contiguous query row (1).
inline void strip_relative(std::span<const double> p, const double* origin,
                           float* out, size_t stride) {
  for (size_t d = 0; d < p.size(); ++d) {
    out[d * stride] = static_cast<float>(p[d] - origin[d]);
  }
}

/// Scatter one row, relative to `origin`, into its strip lane.
inline void strip_store_row(float* base, size_t pos, std::span<const double> p,
                            const double* origin) {
  strip_relative(p, origin,
                 strip_block(base, pos, p.size()) + pos % kDistanceStrip,
                 kDistanceStrip);
}

/// The origin of a strip over the interleaved [lo, hi] box `box`: its
/// centre, written to `centre`. Returns the half-extent norm H the slack
/// needs (every point of the box lies within H of the centre, per
/// dimension within the returned h[d] that H is the norm of).
inline double box_centre(const double* box, size_t dim, double* centre) {
  double h2 = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double lo = box[2 * d];
    const double hi = box[2 * d + 1];
    const double c = 0.5 * lo + 0.5 * hi;  // no overflow at +-DBL_MAX
    const double h = std::max(hi - c, c - lo);
    centre[d] = c;
    h2 += h * h;
  }
  return std::sqrt(h2);
}

/// Exact eps decisions of one query from one kernel result: the sure lanes
/// stand, and each maybe-only lane is decided by the double loop on its
/// row (`row(j)` for block lane j).
template <typename RowFn>
inline std::uint32_t strip_recheck(const simd::StripMasks& m,
                                   std::span<const double> q, double eps2,
                                   RowFn&& row) {
  std::uint32_t mask = m.sure;
  for (std::uint32_t undecided = m.maybe & ~m.sure; undecided != 0;
       undecided &= undecided - 1) {
    const int j = std::countr_zero(undecided);
    if (squared_distance_uncounted(q, row(j)) <= eps2) {
      mask |= std::uint32_t{1} << j;
    }
  }
  return mask;
}

/// One query's exact eps mask over the `active` lanes of `block`: the
/// kernel with the float query `qf` when the thresholds are usable, the
/// recheck of every active lane when they are not.
template <typename RowFn>
inline std::uint32_t strip_block_mask(simd::StripKernelFn kernel,
                                      const simd::StripThresholds& th,
                                      const float* qf,
                                      std::span<const double> q, double eps2,
                                      const float* block, std::uint32_t active,
                                      RowFn&& row) {
  simd::StripMasks m{0, active};
  if (th.usable) {
    kernel(qf, 1, q.size(), th.sure_le, th.maybe_le, block, active, &m);
  }
  return strip_recheck(m, q, eps2, row);
}

/// Row-kernel filter of `count` double rows against the double cutoff
/// `tau`: a superset of the rows whose ascending-d squared distance to `q`
/// is <= tau — every row when the bound does not cover tau (see
/// row_maybe_le). Callers recheck the result with
/// squared_distance_uncounted.
inline std::uint32_t row_filter(simd::RowKernelFn kernel,
                                std::span<const double> q,
                                const double* const* rows, size_t count,
                                double tau) {
  const double maybe_le = simd::row_maybe_le(tau, q.size());
  if (maybe_le == INFINITY) return strip_lanes(0, count);
  return kernel(q.data(), rows, count, q.size(), maybe_le);
}

/// Neighbor-budgeted scan of packed strip positions [begin, end) with
/// SCALAR stop-and-count semantics: the scalar reference loop walks rows in
/// packed order, charges one distance_eval per row it visits, and returns
/// the moment `found` reaches `max_neighbors` — charging the stopping row
/// but nothing after it. `block_mask(base, active)` returns the exact eps
/// decisions (block-lane bits) of the `active` lanes of the block starting
/// at position `base` (strip_block_mask); since they are the scalar loop's
/// decisions, the stopping row is the same row. A segment where the budget
/// cannot fire is charged whole; in the segment where it fires, rows after
/// the stopping match are neither pushed nor charged, even though the
/// kernel already evaluated them — physical over-evaluation inside one
/// strip is an implementation detail, like partial-distance abandonment,
/// and never shows up in counters or output. `push(pos)` receives each
/// matching packed position in ascending order; `found`/`evals` are
/// updated in place. Returns true when the budget fired (caller stops its
/// scan). Requires max_neighbors > 0; `found` may be nonzero from earlier
/// ranges.
template <typename MaskFn, typename PushFn>
inline bool strip_scan_budgeted(size_t begin, size_t end, u64 max_neighbors,
                                u64& found, u64& evals, MaskFn&& block_mask,
                                PushFn&& push) {
  for (size_t i = begin; i < end;) {
    const size_t base = i - i % kDistanceStrip;
    const size_t stop = std::min(base + kDistanceStrip, end);
    std::uint32_t mask = block_mask(base, strip_lanes(i - base, stop - base));
    const u64 hits = static_cast<u64>(std::popcount(mask));
    if (found + hits < max_neighbors) {
      // Budget cannot fire inside this segment: the scalar loop would have
      // visited (and charged) every row of it.
      evals += stop - i;
      found += hits;
      for (; mask != 0; mask &= mask - 1) {
        push(base + static_cast<size_t>(std::countr_zero(mask)));
      }
      i = stop;
      continue;
    }
    // The budget fires at the (max_neighbors - found)-th match of this
    // segment; the scalar loop stops right after that row.
    for (; mask != 0; mask &= mask - 1) {
      const size_t pos = base + static_cast<size_t>(std::countr_zero(mask));
      push(pos);
      if (++found >= max_neighbors) {
        evals += pos + 1 - i;  // rows i .. pos inclusive
        return true;
      }
    }
    evals += stop - i;  // unreachable when hits >= needed, kept for safety
    i = stop;
  }
  return false;
}

}  // namespace sdb
