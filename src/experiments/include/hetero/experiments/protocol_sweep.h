#pragma once

// Protocol x fault-severity sweeps: when does redundancy beat replanning?
//
// The fault_sweep answers "how much work survives the faults" for a fixed
// lifespan.  This sweep asks the dual, fixed-work question: every protocol
// provisions for the same horizon L and races to make the same useful work
// target W = work_fraction x W(L; P) decodable at the server; the score is
// the time that took (capped at L when a trial never gets there).  Four
// protocols run against bit-identical fault plans per (crash rate,
// straggler factor, trial):
//   * fifo          — the paper's fixed FIFO allocation, fault-oblivious;
//   * reactive_fifo — detect-and-replan (sim::run_reactive_fifo);
//   * replicated    — r-way replication (protocol::size_replicated),
//                     first finisher per shard wins, duplicates cancelled;
//   * mds           — MDS-style coding (protocol::size_mds), complete when
//                     any k distinct shards land.
// Coded sizings are computed once per sweep by the analytic LP sizing step;
// trial fault seeds are pure functions of (seed, fault cell, trial) — not of
// the protocol — so every protocol faces exactly the same adversary.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/protocol/coded.h"
#include "hetero/protocol/reactive.h"
#include "hetero/runner/runner.h"

namespace hetero::experiments {

struct ProtocolSweepConfig {
  double lifespan = 0.0;        ///< the provisioning horizon L
  double work_fraction = 0.6;   ///< W = fraction x fault-free FIFO yield at L
  std::vector<double> crash_rates;
  std::vector<double> straggler_factors;  ///< 1.0 = no stragglers in that row
  double straggler_probability = 0.5;     ///< used when factor > 1
  std::size_t trials = 3;
  std::uint64_t seed = 0;
  /// Protocol axis, in row order.  Defaults to all four.
  std::vector<protocol::ProtocolKind> protocols{
      protocol::ProtocolKind::kFifo, protocol::ProtocolKind::kReactiveFifo,
      protocol::ProtocolKind::kReplicated, protocol::ProtocolKind::kMds};
  protocol::ReactivePolicy policy{};
  std::size_t max_replication = 0;  ///< cap for size_replicated (0 = fleet size)
};

/// One (protocol, crash rate, straggler factor) cell, averaged over trials.
struct ProtocolSweepCell {
  protocol::ProtocolKind protocol = protocol::ProtocolKind::kFifo;
  double crash_rate = 0.0;
  double straggler_factor = 1.0;
  double work_target = 0.0;
  double mean_makespan = 0.0;     ///< time W became decodable, capped at L
  double hit_rate = 0.0;          ///< fraction of trials that decoded W by L
  double mean_completed_work = 0.0;
  double mean_redundant_issued = 0.0;    ///< coded protocols only
  double mean_redundant_cancelled = 0.0;
  double mean_redundant_wasted = 0.0;
  double mean_replans = 0.0;             ///< reactive only
  double mean_crashes = 0.0;
};

struct ProtocolSweepResult {
  double work_target = 0.0;
  /// The analytic sizing decisions the coded cells ran with (recomputed
  /// deterministically; present even when the protocol axis omits them).
  protocol::CodedSizing replicated;
  protocol::CodedSizing mds;
  std::vector<ProtocolSweepCell> cells;  ///< row-major: protocol x crash x factor
};

/// Runs the grid serially with no journal: forwards to the RunContext
/// overload with a default runner::RunContext.  Throws
/// std::invalid_argument on an empty fleet/grid/protocol axis, a nonpositive
/// lifespan, or work_fraction outside (0, 1].
[[nodiscard]] ProtocolSweepResult run_protocol_sweep(std::span<const double> speeds,
                                                     const core::Environment& env,
                                                     const ProtocolSweepConfig& config);

/// The sweep's one body: each cell is one runner work unit — parallel over
/// ctx.pool, checkpointed into ctx.journal, cancellable, speculation-capable.
/// Bit-identical for any pool size; a journaled run killed at any instant
/// resumes to the same bytes.
[[nodiscard]] ProtocolSweepResult run_protocol_sweep(std::span<const double> speeds,
                                                     const core::Environment& env,
                                                     const ProtocolSweepConfig& config,
                                                     runner::RunContext& ctx);

/// Journal identity: fingerprint covers fleet, environment, horizon, work
/// fraction, grids, protocol axis, trials, policy, and sizing caps.
[[nodiscard]] runner::JournalHeader protocol_sweep_journal_header(
    std::span<const double> speeds, const core::Environment& env,
    const ProtocolSweepConfig& config);

/// Fixed-width text table (for heteroctl and reports).
[[nodiscard]] std::string format_protocol_sweep(const ProtocolSweepResult& result);

/// CSV with a stable header and %.17g values — equal results serialize to
/// byte-identical text (the kill-and-resume test compares these bytes).
[[nodiscard]] std::string protocol_sweep_csv(const ProtocolSweepResult& result);

/// Decodes one journaled cell payload (the "cell:<i>" records a journaled
/// sweep writes) — what the run-report generator reads back.  Throws
/// core::FatalError on shape mismatch.
[[nodiscard]] ProtocolSweepCell decode_protocol_sweep_cell(std::string_view payload);

}  // namespace hetero::experiments
