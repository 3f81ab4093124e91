#pragma once

// Multi-round worksharing campaigns under churn.
//
// The paper's CEP is one episode on a fixed cluster.  Volunteer platforms
// (its own motivating workload, Section 1.2) run for days while machines
// come and go.  A campaign chops the horizon into rounds; each round plans
// the optimal FIFO episode over the machines still alive, executes it in
// the discrete-event simulator with any mid-round crashes injected, and
// carries the surviving fleet into the next round.  This quantifies the
// planning trade-off the model itself implies: long rounds amortize
// per-episode overheads (see bench_ablation_latency), short rounds bound
// the work a crash destroys.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/runner/runner.h"
#include "hetero/sim/fault.h"

namespace hetero::experiments {

struct CampaignConfig {
  double total_time = 0.0;     ///< campaign horizon
  double round_length = 0.0;   ///< episode length; total_time/round_length rounds
  /// Per-message fixed latency forwarded to the simulator (0 = paper model).
  double message_latency = 0.0;
  /// Fault model sampled (with fault_seed) into one whole-horizon FaultPlan;
  /// each round sees its restricted slice.  Crashes from the plan and from
  /// the explicit failure list are merged.  Default: no faults.
  sim::FaultModelConfig fault_model{};
  std::uint64_t fault_seed = 0;
};

/// A machine crash, in campaign-absolute time.
struct CampaignFailure {
  std::size_t machine = 0;
  double time = 0.0;
};

struct CampaignResult {
  double completed_work = 0.0;    ///< work whose results landed within rounds
  double ideal_work = 0.0;        ///< Theorem-2 work of the full fleet, no churn
  std::size_t rounds = 0;
  /// Fleet attrition: machines whose injected crash actually took effect
  /// (observed mid-round or scheduled within a round the machine was part
  /// of) — wired to the fault plan, not inferred.
  std::size_t machines_lost = 0;
  std::vector<double> work_by_round;
  /// Fault activity accumulated across rounds, in campaign-absolute time.
  sim::FaultStats faults;
};

/// Runs the campaign: rounds of FIFO worksharing over the surviving fleet,
/// with the given crash schedule (machines stay dead once crashed; crashes
/// after a machine's last result of a round are harmless for that round).
/// Throws std::invalid_argument on nonpositive times, round_length >
/// total_time, or failures referencing unknown machines.  Forwards to the
/// RunContext overload with a default runner::RunContext (no journal).
[[nodiscard]] CampaignResult run_campaign(const std::vector<double>& speeds,
                                          const core::Environment& env,
                                          const CampaignConfig& config,
                                          const std::vector<CampaignFailure>& failures);

/// Robust overload.  Rounds are inherently sequential (each plans over the
/// fleet the previous round left alive), so ctx.pool is not used; instead
/// each finished round is journaled — round work, post-round alive bitmap,
/// and the round's fault-stat delta, all bit-exact — and ctx.cancel is
/// polled between rounds.  On resume the journaled round prefix is replayed
/// instead of re-simulated, and the campaign continues from the exact fleet
/// state the interrupted run reached.
[[nodiscard]] CampaignResult run_campaign(const std::vector<double>& speeds,
                                          const core::Environment& env,
                                          const CampaignConfig& config,
                                          const std::vector<CampaignFailure>& failures,
                                          runner::RunContext& ctx);

/// Journal identity for a campaign (fingerprint covers fleet, env, config,
/// and the explicit failure list; seed = config.fault_seed).
[[nodiscard]] runner::JournalHeader campaign_journal_header(
    const std::vector<double>& speeds, const core::Environment& env,
    const CampaignConfig& config, const std::vector<CampaignFailure>& failures);

/// One decoded "round:<n>" journal record of a journaled campaign — what
/// the run-report generator reads back.
struct CampaignRoundRecord {
  double round_work = 0.0;
  std::size_t machines = 0;      ///< fleet size the record was written under
  std::vector<bool> alive;       ///< liveness at the round's end, per machine
  sim::FaultStats faults;        ///< the round's fault-activity delta
};

/// Decodes one round payload.  Throws core::FatalError on shape mismatch.
[[nodiscard]] CampaignRoundRecord decode_campaign_round(std::string_view payload);

/// Draws i.i.d. exponential crash times (rate = per-machine failures per
/// unit time); machines whose draw lands beyond the horizon never crash.
[[nodiscard]] std::vector<CampaignFailure> exponential_failures(std::size_t machines,
                                                                double rate, double horizon,
                                                                std::uint64_t seed);

}  // namespace hetero::experiments
