// Parameter tuning for the Reid-Miller algorithm (paper Section 4.4).
//
// Given only the list length n, the implementation must choose the number
// of random split positions m and the first balance interval S_1. The paper
// estimates the running time via Eq. 3 for many (m, S_1) candidates, keeps
// the minimizer, and -- since doing that at every call would be silly --
// fits cubic polynomials in log n to the minimizers and evaluates the fits
// at run time ("It appears that m and S_1 are approximately cubic
// polynomials of log n").
//
// We reproduce both halves: `tune()` does the direct minimization (two-pass
// coarse/fine grid) and `TunedModel` holds the cubic-in-log-n fits built
// from a set of tuned sizes.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/cost_eqs.hpp"
#include "support/polyfit.hpp"

namespace lr90 {

struct TuneResult {
  double m = 1.0;         ///< number of random split positions
  double s1 = 1.0;        ///< first balance interval (links)
  double cycles = 0.0;    ///< Eq. 3 + Phase-2 estimate at the minimizer
  std::size_t balances = 0;  ///< schedule length l at the minimizer
};

/// Directly minimizes the cost model over m and S_1 for a list of length n
/// on p processors (Eq. 3 for p = 1, its Eq. 6 generalization otherwise,
/// plus the best Phase-2 estimate). Deterministic; O(few hundred) schedule
/// evaluations. The paper tunes separately for every processor count
/// (Section 5: "we tuned the parameters for 1, 2, 4, and 8 processors").
/// `contention` is the machine's memory-bandwidth multiplier at p.
TuneResult tune(double n, const CostConstants& k, unsigned p = 1,
                double contention = 1.0);

/// Cubic-in-log-n fits of the tuned m(n) and S_1(n), the paper's run-time
/// parameter functions.
class TunedModel {
 public:
  /// Builds the fits by tuning at each of `sizes` (needs >= 4 sizes).
  TunedModel(const std::vector<double>& sizes, const CostConstants& k);

  /// Fitted parameters for a given n, clamped to sane ranges
  /// (1 <= m <= n-1 when n >= 2, s1 >= 1).
  TuneResult params(double n) const;

  const Polynomial& m_poly() const { return m_poly_; }
  const Polynomial& s1_poly() const { return s1_poly_; }

 private:
  Polynomial m_poly_;
  Polynomial s1_poly_;
};

/// Library-wide cached tuned parameters for the default Cray C90 cost
/// table: direct tune() results memoized by (n, rank, p), suitable for the
/// hot path of the public API.
TuneResult tuned_params(double n, bool rank, unsigned p = 1);

// -- host hot-path tuning ---------------------------------------------------

/// The host tuner's answer for the packed hot path: worker thread count
/// and interleave width (the multiprocessor and
/// vector-length analogs, paper Sections 5 and 3) plus the model totals
/// backing the choice, so the Planner can compare the hot path against
/// the single-cursor serial walk.
struct HostTuneResult {
  unsigned threads = 1;     ///< worker threads the model picked
  unsigned interleave = 1;  ///< cursors in flight per worker
  double packed_ns = 0.0;   ///< model total ns of the hot path (T, W)
  double serial_ns = 0.0;   ///< model total ns of the serial walk
};

/// The host cost model evaluated at one pinned (threads, W) point: the
/// hot-path-vs-serial comparison a Planner makes when the caller fixed
/// the whole execution shape.
HostTuneResult host_tune_at(double n, unsigned threads, unsigned interleave,
                            double op_factor = 1.0,
                            const HostCostConstants& k = {});

/// Searches the joint (threads x W) grid for a list of length n by
/// evaluating the host cost model (analysis/cost_eqs.hpp
/// host_packed_ns_per_elem_mt) at the power-of-two thread candidates up
/// to `max_threads` crossed with W in {1..32} -- the host counterpart of
/// the paper's Section 4.4
/// (m, S_1) grid, extended to Section 5's processor dimension and the
/// Section 3 vector-length choice. `pinned_threads` /
/// `pinned_interleave` (> 0) restrict their axis to that single value,
/// which is how the Planner re-tunes one knob after a caller fixed the
/// other. Deterministic, O(candidates); the Planner memoizes the
/// fully-auto case per (n, op_factor, max_threads).
HostTuneResult host_tune(double n, double op_factor = 1.0,
                         unsigned max_threads = 1,
                         unsigned pinned_threads = 0,
                         unsigned pinned_interleave = 0,
                         const HostCostConstants& k = {});

}  // namespace lr90
