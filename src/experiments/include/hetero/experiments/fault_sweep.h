#pragma once

// Fault-scenario sweeps: how much of the FIFO optimum survives faults?
//
// For each cell of a crash-rate x straggler-severity grid, the sweep draws
// `trials` fault plans (seed-derived, reproducible), runs the same lifespan
// three ways — fault-free FIFO (the Theorem-2 optimum), fault-oblivious
// FIFO under the plan, and the reactive planner under the plan — and
// reports mean degradation of each against the fault-free yield.  The gap
// between the oblivious and reactive rows is the value of reacting; the gap
// between reactive and 1.0 is the price of the faults themselves.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/protocol/reactive.h"
#include "hetero/runner/runner.h"
#include "hetero/sim/fault.h"

namespace hetero::experiments {

struct FaultSweepConfig {
  double lifespan = 0.0;
  std::vector<double> crash_rates;        ///< per-machine exponential rates
  std::vector<double> straggler_factors;  ///< 1.0 = no stragglers in that row
  double straggler_probability = 0.5;     ///< used when factor > 1
  std::size_t trials = 3;                 ///< fault plans per cell
  std::uint64_t seed = 0;
  protocol::ReactivePolicy policy{};
};

/// One (crash rate, straggler factor) cell, averaged over the trials.
struct FaultSweepCell {
  double crash_rate = 0.0;
  double straggler_factor = 1.0;
  double fault_free_work = 0.0;      ///< Theorem-2 FIFO yield, no faults
  double oblivious_work = 0.0;       ///< mean fixed-FIFO yield under faults
  double reactive_work = 0.0;        ///< mean reactive yield under faults
  double oblivious_degradation = 0.0;  ///< 1 - oblivious/fault_free
  double reactive_degradation = 0.0;   ///< 1 - reactive/fault_free
  double mean_crashes = 0.0;
  double mean_replans = 0.0;
};

struct FaultSweepResult {
  std::vector<FaultSweepCell> cells;  ///< row-major: crash_rate x factor
};

/// Runs the grid serially with no journal: forwards to the RunContext
/// overload with a default runner::RunContext.  Throws
/// std::invalid_argument on an empty fleet/grid or a nonpositive lifespan.
[[nodiscard]] FaultSweepResult run_fault_sweep(std::span<const double> speeds,
                                               const core::Environment& env,
                                               const FaultSweepConfig& config);

/// The sweep's one body: each grid cell is one runner work unit — parallel
/// over ctx.pool (serial when null), checkpointed into ctx.journal,
/// cancellable via ctx.cancel, and speculatively re-executed when a cell
/// straggles past the p95 of completed cells.  Cell seeds depend only on
/// (config.seed, cell index), so the result is bit-identical for any pool
/// size, and a journaled run interrupted at any instant resumes exactly.
[[nodiscard]] FaultSweepResult run_fault_sweep(std::span<const double> speeds,
                                               const core::Environment& env,
                                               const FaultSweepConfig& config,
                                               runner::RunContext& ctx);

/// Journal identity for this sweep configuration: fingerprint covers the
/// fleet, environment, grid, trials, and seed (all doubles by bit pattern),
/// so open_or_resume refuses to resume under a different experiment.
[[nodiscard]] runner::JournalHeader fault_sweep_journal_header(
    std::span<const double> speeds, const core::Environment& env,
    const FaultSweepConfig& config);

/// Fixed-width text table of the sweep (for heteroctl and reports).
[[nodiscard]] std::string format_fault_sweep(const FaultSweepResult& result);

/// CSV of the sweep (stable header + %.17g values, so equal results always
/// serialize to byte-identical text — the golden kill-and-resume test
/// compares these bytes).
[[nodiscard]] std::string fault_sweep_csv(const FaultSweepResult& result);

/// Decodes one journaled cell payload (the "cell:<i>" records a journaled
/// sweep writes) — what the run-report generator reads back.  Throws
/// core::FatalError on shape mismatch.
[[nodiscard]] FaultSweepCell decode_fault_sweep_cell(std::string_view payload);

}  // namespace hetero::experiments
