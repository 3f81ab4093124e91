#pragma once

// Batched multi-profile evaluation.
//
// Sweep drivers evaluate the same measures — X(P), the work rate W(L;P)/L,
// the HECR, FIFO allocations — over thousands to millions of profiles.
// Calling the single-profile entry points in a loop repays the fixed costs
// (dispatch, kernel setup, the separate X and log-product sweeps) once per
// profile; batch_evaluate pays them once per *batch*: X and the HECR
// log-product come out of one fused sweep per profile
// (numeric::x_and_log1p_kernel) and results land in caller-owned storage.
// A batch runs serially in the calling thread; callers that want
// parallelism split the batch across their own workers (each profile
// touches only its own output slot).
//
// Contract — bit-identity: every field equals the corresponding
// single-profile call (core::x_measure, core::work_rate, core::hecr,
// protocol::fifo_allocations with the identity order) bit for bit, fused or
// not.  Differential tests enforce this.

#include <cstddef>
#include <span>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/core/profile.h"

namespace hetero::core {

/// Which measures to compute per profile.  Unrequested fields are left
/// untouched in the output (0.0 / empty in freshly constructed slots).
struct BatchRequest {
  bool x = true;               ///< X(P)
  bool work_rate = false;      ///< W(L;P)/L = 1/(tau delta + 1/X)  (implies X's cost)
  bool hecr = false;           ///< homogeneous equivalent computing rate
  double fifo_lifespan = 0.0;  ///< > 0: identity-order FIFO allocations for this L
};

/// Per-profile results; `fifo` is indexed by startup position (= machine
/// index, identity order).
struct ProfileMeasures {
  double x = 0.0;
  double work_rate = 0.0;
  double hecr = 0.0;
  std::vector<double> fifo;
};

/// Evaluates the requested measures for every profile into `out`
/// (out.size() must equal profiles.size(); throws std::invalid_argument
/// otherwise).  The allocation-free primitive: with `fifo_lifespan == 0`
/// and pre-sized `out`, a batch performs no heap allocation, so per-trial
/// callers (Monte-Carlo sweeps) can reuse one scratch output across trials.
void batch_evaluate_into(std::span<const std::span<const double>> profiles,
                         const Environment& env, const BatchRequest& request,
                         std::span<ProfileMeasures> out);

/// Convenience: allocates and returns the output vector.
[[nodiscard]] std::vector<ProfileMeasures> batch_evaluate(
    std::span<const std::span<const double>> profiles, const Environment& env,
    const BatchRequest& request);

/// Convenience over Profile objects.
[[nodiscard]] std::vector<ProfileMeasures> batch_evaluate(std::span<const Profile> profiles,
                                                          const Environment& env,
                                                          const BatchRequest& request);

/// FIFO allocations for machines already listed in startup order — the
/// Section-2.3 no-gap closed form (see protocol/fifo.h for the derivation).
/// Lives in core so batch_evaluate can compute allocations without a
/// core -> protocol dependency; protocol::fifo_allocations delegates here,
/// so the two are the same arithmetic, not two implementations.  Throws
/// std::invalid_argument on an empty cluster, nonpositive lifespan, or
/// nonpositive rho.
[[nodiscard]] std::vector<double> fifo_allocations_in_order(std::span<const double> speeds,
                                                            const Environment& env,
                                                            double lifespan);

}  // namespace hetero::core
