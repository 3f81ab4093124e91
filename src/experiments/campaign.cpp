#include "hetero/experiments/campaign.h"

#include <cmath>
#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hetero/core/power.h"
#include "hetero/core/profile.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/protocol/fifo.h"
#include "hetero/random/rng.h"
#include "hetero/runner/codec.h"
#include "hetero/sim/worksharing.h"

namespace hetero::experiments {

namespace {

void encode_fault_stats(runner::FieldWriter& w, const sim::FaultStats& s) {
  w.add_u64(s.crashes);
  w.add_u64(s.stalls);
  w.add_u64(s.slowdown_onsets);
  w.add_u64(s.messages_lost);
  w.add_u64(s.messages_delayed);
  w.add_u64(s.retries);
  w.add_u64(s.timeouts);
  w.add_u64(s.detections.size());
  for (const sim::Detection& d : s.detections) {
    w.add_double(d.at);
    w.add_u64(d.machine);
    w.add_u64(static_cast<std::uint64_t>(d.kind));
    w.add_double(d.factor);
  }
  w.add_doubles(s.recovery_latencies);
}

sim::FaultStats decode_fault_stats(runner::FieldReader& r) {
  sim::FaultStats s;
  s.crashes = r.u64();
  s.stalls = r.u64();
  s.slowdown_onsets = r.u64();
  s.messages_lost = r.u64();
  s.messages_delayed = r.u64();
  s.retries = r.u64();
  s.timeouts = r.u64();
  const std::uint64_t detections = r.u64();
  s.detections.reserve(detections);
  for (std::uint64_t i = 0; i < detections; ++i) {
    sim::Detection d;
    d.at = r.d();
    d.machine = r.u64();
    d.kind = static_cast<sim::DetectionKind>(r.u64());
    d.factor = r.d();
    s.detections.push_back(d);
  }
  r.doubles(s.recovery_latencies);
  return s;
}

}  // namespace

CampaignResult run_campaign(const std::vector<double>& speeds, const core::Environment& env,
                            const CampaignConfig& config,
                            const std::vector<CampaignFailure>& failures) {
  runner::RunContext serial;
  return run_campaign(speeds, env, config, failures, serial);
}

CampaignResult run_campaign(const std::vector<double>& speeds, const core::Environment& env,
                            const CampaignConfig& config,
                            const std::vector<CampaignFailure>& failures,
                            runner::RunContext& ctx) {
  HETERO_OBS_SCOPE("experiments.campaign");
  if (speeds.empty()) throw std::invalid_argument("run_campaign: empty fleet");
  if (!(config.round_length > 0.0) || !(config.total_time > 0.0) ||
      config.round_length > config.total_time) {
    throw std::invalid_argument("run_campaign: need 0 < round_length <= total_time");
  }
  if (!(config.message_latency >= 0.0)) {
    throw std::invalid_argument("run_campaign: negative message latency");
  }
  for (const CampaignFailure& f : failures) {
    if (f.machine >= speeds.size()) {
      throw std::invalid_argument("run_campaign: failure for unknown machine");
    }
  }

  // One whole-horizon fault plan: the sampled model plus the explicit
  // failure list folded in as crashes.  Every round sees its restricted
  // slice, so all fault families (not just crashes) flow into the episodes.
  sim::FaultPlan plan = sim::FaultPlan::sample(config.fault_model, speeds.size(),
                                               config.total_time, config.fault_seed);
  for (const CampaignFailure& f : failures) {
    plan.crashes.push_back(sim::CrashFault{f.machine, std::max(0.0, f.time)});
  }

  // Earliest crash time per machine (campaign-absolute; inf = never).
  const std::vector<double> crash_time = plan.crash_times(speeds.size());

  CampaignResult result;
  result.ideal_work = core::work_production(config.total_time, core::Profile{speeds}, env);

  runner::Journal* journal = ctx.journal;

  const auto rounds = static_cast<std::size_t>(config.total_time / config.round_length);
  std::vector<bool> alive(speeds.size(), true);
  for (std::size_t round = 0; round < rounds; ++round) {
    ctx.cancel.check();
    const std::string round_key = "round:" + std::to_string(round);
    if (journal != nullptr) {
      if (const std::string* payload = journal->find(round_key)) {
        // Replay: the journaled record carries everything a finished round
        // contributed — work, post-round fleet, fault delta — so the
        // simulation is skipped and the campaign state lands exactly where
        // the interrupted run left it.
        runner::FieldReader r{*payload};
        const double round_work = r.d();
        if (r.u64() != speeds.size()) {
          throw core::FatalError{"run_campaign: journaled fleet size mismatch"};
        }
        for (std::size_t m = 0; m < speeds.size(); ++m) alive[m] = r.u64() != 0;
        const sim::FaultStats delta = decode_fault_stats(r);
        r.expect_done();
        result.faults.merge(delta);
        result.work_by_round.push_back(round_work);
        result.completed_work += round_work;
        ++result.rounds;
        continue;
      }
    }
    HETERO_OBS_SCOPE("experiments.round");
    const double round_start = static_cast<double>(round) * config.round_length;

    // Fleet for this round: machines alive at the round's start.
    std::vector<double> fleet;
    std::vector<std::size_t> fleet_ids;
    for (std::size_t m = 0; m < speeds.size(); ++m) {
      if (alive[m] && crash_time[m] > round_start) {
        fleet.push_back(speeds[m]);
        fleet_ids.push_back(m);
      } else if (alive[m]) {
        alive[m] = false;  // crashed between rounds
      }
    }
    if (fleet.empty()) break;

    // Plan the optimal FIFO episode for the surviving fleet.  An optimal
    // FIFO plan lands every result in the final instants of its lifespan,
    // so when messages carry a fixed latency the plan must be padded or the
    // whole round misses the deadline: shorten the planning horizon by one
    // latency per message (send + result per machine, plus slack).
    const double margin =
        2.0 * static_cast<double>(fleet.size() + 1) * config.message_latency;
    const double plan_horizon =
        std::max(config.round_length - margin, 0.5 * config.round_length);
    const auto allocations = protocol::fifo_allocations(fleet, env, plan_horizon);
    sim::SimulationOptions options;
    options.message_latency = config.message_latency;
    options.faults = plan.restricted(round_start, fleet_ids);
    // Events scheduled beyond this round belong to later rounds.
    const auto beyond = [&config](const auto& f) { return f.time >= config.round_length; };
    std::erase_if(options.faults.crashes, beyond);
    std::erase_if(options.faults.slowdowns, beyond);
    std::erase_if(options.faults.stalls, beyond);
    const auto episode = sim::simulate_worksharing(
        fleet, env, allocations, protocol::ProtocolOrders::fifo(fleet.size()), options);
    const double round_work = episode.completed_work(config.round_length);
    // The round's fault contribution, shifted into campaign-absolute time —
    // the exact value a replayed record reproduces.
    sim::FaultStats delta;
    delta.merge(episode.faults, round_start);
    result.faults.merge(delta);
    result.work_by_round.push_back(round_work);
    result.completed_work += round_work;
    ++result.rounds;
    if constexpr (obs::kEnabled) {
      static obs::Histogram& round_hist = obs::histogram("experiments.round_work");
      static obs::Gauge& round_efficiency = obs::gauge("experiments.round_efficiency");
      round_hist.record(round_work);
      // Completed vs ideal work for this round's full-fleet potential.
      const double round_ideal =
          core::work_production(config.round_length, core::Profile{speeds}, env);
      if (round_ideal > 0.0) round_efficiency.set(round_work / round_ideal);
    }

    // A machine is gone for all later rounds when its injected crash took
    // effect (observed in the episode) or was scheduled inside this round —
    // the latter covers crashes that fired after the machine's result was
    // already in flight (the network has the result; the machine is dead).
    for (std::size_t k = 0; k < fleet_ids.size(); ++k) {
      if (episode.outcomes[k].failed ||
          crash_time[fleet_ids[k]] < round_start + config.round_length) {
        alive[fleet_ids[k]] = false;
      }
    }

    if (journal != nullptr) {
      runner::FieldWriter w;
      w.add_double(round_work);
      w.add_u64(speeds.size());
      for (std::size_t m = 0; m < speeds.size(); ++m) w.add_u64(alive[m] ? 1 : 0);
      encode_fault_stats(w, delta);
      journal->append(round_key, w.str());
    }
  }
  for (bool a : alive) {
    if (!a) ++result.machines_lost;
  }
  if constexpr (obs::kEnabled) {
    static obs::Counter& campaigns = obs::counter("experiments.campaigns");
    static obs::Counter& rounds_run = obs::counter("experiments.rounds");
    static obs::Counter& machines_lost = obs::counter("experiments.machines_lost");
    static obs::Gauge& completed = obs::gauge("experiments.completed_work");
    static obs::Gauge& ideal = obs::gauge("experiments.ideal_work");
    campaigns.add(1);
    rounds_run.add(result.rounds);
    machines_lost.add(result.machines_lost);
    completed.add(result.completed_work);
    ideal.add(result.ideal_work);
  }
  return result;
}

CampaignRoundRecord decode_campaign_round(std::string_view payload) {
  runner::FieldReader r{payload};
  CampaignRoundRecord record;
  record.round_work = r.d();
  record.machines = static_cast<std::size_t>(r.u64());
  record.alive.reserve(record.machines);
  for (std::size_t m = 0; m < record.machines; ++m) record.alive.push_back(r.u64() != 0);
  record.faults = decode_fault_stats(r);
  r.expect_done();
  return record;
}

runner::JournalHeader campaign_journal_header(const std::vector<double>& speeds,
                                              const core::Environment& env,
                                              const CampaignConfig& config,
                                              const std::vector<CampaignFailure>& failures) {
  runner::FieldWriter w;
  w.add_doubles(speeds);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  w.add_double(config.total_time);
  w.add_double(config.round_length);
  w.add_double(config.message_latency);
  w.add_double(config.fault_model.crash_rate);
  w.add_double(config.fault_model.stall_rate);
  w.add_double(config.fault_model.stall_duration);
  w.add_double(config.fault_model.straggler_probability);
  w.add_double(config.fault_model.straggler_factor);
  w.add_double(config.fault_model.message_loss_probability);
  w.add_double(config.fault_model.message_delay_probability);
  w.add_double(config.fault_model.message_delay);
  w.add_u64(config.fault_model.message_ordinals);
  w.add_u64(failures.size());
  for (const CampaignFailure& f : failures) {
    w.add_u64(f.machine);
    w.add_double(f.time);
  }
  runner::JournalHeader header;
  header.tool = "campaign";
  header.seed = config.fault_seed;
  header.fingerprint = runner::fingerprint_of(w.str());
  return header;
}

std::vector<CampaignFailure> exponential_failures(std::size_t machines, double rate,
                                                  double horizon, std::uint64_t seed) {
  if (!(rate >= 0.0)) throw std::invalid_argument("exponential_failures: negative rate");
  if (!(horizon > 0.0)) throw std::invalid_argument("exponential_failures: nonpositive horizon");
  std::vector<CampaignFailure> failures;
  if (rate == 0.0) return failures;
  random::Xoshiro256StarStar rng{seed};
  for (std::size_t m = 0; m < machines; ++m) {
    // Inverse-CDF sample; uniform01 is in [0, 1), so 1-u is in (0, 1].
    const double t = -std::log(1.0 - rng.uniform01()) / rate;
    if (t < horizon) failures.push_back(CampaignFailure{m, t});
  }
  return failures;
}

}  // namespace hetero::experiments
