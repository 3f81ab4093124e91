#include "hetero/core/batch.h"

#include <cmath>
#include <stdexcept>

#include "hetero/numeric/kernels.h"
#include "hetero/numeric/summation.h"
#include "hetero/obs/metrics.h"

namespace hetero::core {

namespace {

// One profile's measures, sharing a single fused sweep when both X and the
// HECR log-product are wanted.  Every arithmetic path below replays the
// corresponding single-profile entry point operation for operation — that
// is the whole bit-identity contract of batch_evaluate.
void evaluate_one(std::span<const double> rho, const Environment& env,
                  const BatchRequest& request, double fifo_lifespan, ProfileMeasures& out) {
  const double a = env.a();
  const double b = env.b();
  const double td = env.tau_delta();
  const double contraction = env.a_minus_tau_delta();
  const bool need_x = request.x || request.work_rate;

  double log_sum = 0.0;
  if (need_x && request.hecr) {
    const numeric::XLogSums sums = numeric::x_and_log1p_kernel(rho, a, b, td, contraction);
    out.x = sums.x;
    log_sum = sums.log_sum;
  } else if (need_x) {
    out.x = numeric::x_measure_kernel(rho, a, b, td);
  } else if (request.hecr) {
    log_sum = numeric::log1p_ratio_sum(rho, a, b, contraction);
  }
  if (request.work_rate) out.work_rate = 1.0 / (td + 1.0 / out.x);
  if (request.hecr) {
    // Same closed form as core::hecr(span): 1 - D = -expm1(log_sum / n).
    const double n = static_cast<double>(rho.size());
    const double one_minus_d = -std::expm1(log_sum / n);
    out.hecr = contraction / (b * one_minus_d) - a / b;
  }
  if (fifo_lifespan > 0.0) out.fifo = fifo_allocations_in_order(rho, env, fifo_lifespan);
}

void count_batch(std::size_t profiles) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& batches = obs::counter("batch.calls");
    static obs::Counter& evaluated = obs::counter("batch.profiles");
    batches.add(1);
    evaluated.add(profiles);
  }
}

}  // namespace

void batch_evaluate_into(std::span<const std::span<const double>> profiles,
                         const Environment& env, const BatchRequest& request,
                         std::span<ProfileMeasures> out) {
  if (out.size() != profiles.size()) {
    throw std::invalid_argument("batch_evaluate_into: output size != batch size");
  }
  count_batch(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    evaluate_one(profiles[i], env, request, request.fifo_lifespan, out[i]);
  }
}

std::vector<ProfileMeasures> batch_evaluate(std::span<const std::span<const double>> profiles,
                                            const Environment& env, const BatchRequest& request) {
  std::vector<ProfileMeasures> out(profiles.size());
  batch_evaluate_into(profiles, env, request, out);
  return out;
}

std::vector<ProfileMeasures> batch_evaluate(std::span<const Profile> profiles,
                                            const Environment& env, const BatchRequest& request) {
  std::vector<std::span<const double>> views;
  views.reserve(profiles.size());
  for (const Profile& profile : profiles) views.push_back(profile.values());
  return batch_evaluate(std::span<const std::span<const double>>{views}, env, request);
}

std::vector<double> fifo_allocations_in_order(std::span<const double> speeds,
                                              const Environment& env, double lifespan) {
  if (speeds.empty()) {
    throw std::invalid_argument("fifo_allocations_in_order: empty cluster");
  }
  if (!(lifespan > 0.0)) {
    throw std::invalid_argument("fifo_allocations_in_order: lifespan must be positive");
  }
  for (double rho : speeds) {
    if (!(rho > 0.0)) {
      throw std::invalid_argument("fifo_allocations_in_order: rho-values must be positive");
    }
  }
  const std::size_t n = speeds.size();
  const double a = env.a();
  const double b = env.b();
  const double td = env.tau_delta();

  // Relative allocations u_k (u_1 = 1) from the no-gap recurrence.
  std::vector<double> u(n);
  u[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    u[k] = u[k - 1] * (b * speeds[k - 1] + td) / (b * speeds[k] + a);
  }
  // Scale so A * sum(w) + (B rho_last + tau delta) * w_last = L.
  numeric::NeumaierSum u_sum;
  for (double v : u) u_sum.add(v);
  const double scale = lifespan / (a * u_sum.value() + (b * speeds[n - 1] + td) * u[n - 1]);
  for (double& v : u) v *= scale;
  return u;
}

}  // namespace hetero::core
