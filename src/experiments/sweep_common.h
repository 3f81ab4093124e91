#pragma once

// What the fault sweep and the protocol x fault sweep share: the per-trial
// seed mix, the fault model of one (crash rate, straggler factor) cell, and
// the reactive-policy fields of their journal fingerprints.  Private to
// hetero::experiments.

#include <cstddef>
#include <cstdint>

#include "hetero/protocol/reactive.h"
#include "hetero/random/rng.h"
#include "hetero/runner/codec.h"
#include "hetero/sim/fault.h"

namespace hetero::experiments::detail {

/// Seed of trial `trial` in fault cell `cell`, decorrelated through
/// splitmix64 — a plain XOR of the coordinates lets distinct (cell, trial)
/// pairs collide, correlating supposedly independent trials.  The journal
/// fingerprint does not cover this mix: changing it silently breaks resume
/// of existing journals.
[[nodiscard]] inline std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t cell,
                                              std::size_t trial) noexcept {
  std::uint64_t mix = seed + cell * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(trial) + 1) * 0xbf58476d1ce4e5b9ULL;
  return random::splitmix64(mix);
}

/// Fault model of one grid cell; a factor of 1 or less means no stragglers.
[[nodiscard]] inline sim::FaultModelConfig cell_fault_model(double crash_rate, double factor,
                                                            double straggler_probability) {
  sim::FaultModelConfig model;
  model.crash_rate = crash_rate;
  if (factor > 1.0) {
    model.straggler_probability = straggler_probability;
    model.straggler_factor = factor;
  }
  return model;
}

/// Appends the reactive policy to a journal fingerprint.
inline void add_policy(runner::FieldWriter& w, const protocol::ReactivePolicy& policy) {
  w.add_double(policy.detection_latency);
  w.add_double(policy.deadline_slack);
  w.add_u64(policy.max_retries);
  w.add_double(policy.backoff);
  w.add_u64(policy.max_replans);
  w.add_double(policy.min_remaining_fraction);
}

}  // namespace hetero::experiments::detail
