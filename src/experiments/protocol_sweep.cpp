#include "hetero/experiments/protocol_sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/protocol/fifo.h"
#include "hetero/runner/codec.h"
#include "hetero/sim/coded.h"
#include "hetero/sim/reactive.h"
#include "sweep_common.h"

namespace hetero::experiments {

namespace {

void validate_sweep(std::span<const double> speeds, const ProtocolSweepConfig& config) {
  if (speeds.empty()) throw std::invalid_argument("run_protocol_sweep: empty fleet");
  if (!(config.lifespan > 0.0)) {
    throw std::invalid_argument("run_protocol_sweep: nonpositive lifespan");
  }
  if (!(config.work_fraction > 0.0) || config.work_fraction > 1.0) {
    throw std::invalid_argument("run_protocol_sweep: work_fraction outside (0, 1]");
  }
  if (config.crash_rates.empty() || config.straggler_factors.empty() || config.trials == 0 ||
      config.protocols.empty()) {
    throw std::invalid_argument("run_protocol_sweep: empty grid");
  }
  for (protocol::ProtocolKind kind : config.protocols) {
    if (kind != protocol::ProtocolKind::kFifo && kind != protocol::ProtocolKind::kReactiveFifo &&
        kind != protocol::ProtocolKind::kReplicated && kind != protocol::ProtocolKind::kMds) {
      throw std::invalid_argument("run_protocol_sweep: unknown protocol kind");
    }
  }
}

/// Everything the cells share: the work target and the two coded sizings,
/// computed once per sweep (they do not depend on the fault axes).
struct SweepSetup {
  double work_target = 0.0;
  protocol::CodedSizing replicated;
  protocol::CodedSizing mds;
};

SweepSetup make_setup(std::span<const double> speeds, const core::Environment& env,
                      const ProtocolSweepConfig& config) {
  SweepSetup setup;
  setup.work_target =
      config.work_fraction * protocol::fifo_total_work(speeds, env, config.lifespan);
  setup.replicated = protocol::size_replicated(speeds, env, config.lifespan, setup.work_target,
                                               config.max_replication);
  setup.mds = protocol::size_mds(speeds, env, config.lifespan, setup.work_target);
  return setup;
}

/// Crossing time of a fault-oblivious FIFO run: when had the server banked
/// the target?  (Landing filter and order match completed_work / the
/// reactive banked series.)
double fifo_crossing(const sim::ReactiveRunResult& run, double target) {
  return sim::banked_crossing_time(run.banked, target);
}

// One grid cell.  Trial fault seeds are pure functions of
// (config.seed, fault_cell, trial) — the *fault* cell, not the grid cell, so
// every protocol faces bit-identical plans.
ProtocolSweepCell compute_cell(std::span<const double> speeds, const core::Environment& env,
                               const ProtocolSweepConfig& config, const SweepSetup& setup,
                               protocol::ProtocolKind kind, double crash_rate, double factor,
                               std::uint64_t fault_cell, const core::CancelToken& token) {
  ProtocolSweepCell cell;
  cell.protocol = kind;
  cell.crash_rate = crash_rate;
  cell.straggler_factor = factor;
  cell.work_target = setup.work_target;
  const double lifespan = config.lifespan;
  const double target = setup.work_target;

  const sim::FaultModelConfig model =
      detail::cell_fault_model(crash_rate, factor, config.straggler_probability);
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    if (token.stop_requested() || token.expired()) token.check();
    // Keyed by the fault cell so fifo/reactive/replicated/mds trials share
    // one adversary.
    const std::uint64_t seed = detail::trial_seed(config.seed, fault_cell, trial);
    const sim::FaultPlan plan =
        sim::FaultPlan::sample(model, speeds.size(), lifespan, seed);

    double crossing = std::numeric_limits<double>::infinity();
    switch (kind) {
      case protocol::ProtocolKind::kFifo: {
        const auto run = sim::run_fifo_with_faults(speeds, env, lifespan, plan);
        crossing = fifo_crossing(run, target);
        cell.mean_completed_work += run.completed_work;
        cell.mean_crashes += static_cast<double>(run.faults.crashes);
        break;
      }
      case protocol::ProtocolKind::kReactiveFifo: {
        const auto run = sim::run_reactive_fifo(speeds, env, lifespan, plan, config.policy);
        crossing = sim::banked_crossing_time(run.banked, target);
        cell.mean_completed_work += run.completed_work;
        cell.mean_crashes += static_cast<double>(run.faults.crashes);
        cell.mean_replans += static_cast<double>(run.replans);
        break;
      }
      case protocol::ProtocolKind::kReplicated:
      case protocol::ProtocolKind::kMds: {
        const protocol::CodedAllocation& alloc = kind == protocol::ProtocolKind::kReplicated
                                                     ? setup.replicated.allocation
                                                     : setup.mds.allocation;
        sim::CodedRunOptions options;
        options.faults = plan;
        const auto run = sim::run_coded(speeds, env, alloc, options);
        if (run.recovered) crossing = run.recovery_time;
        cell.mean_completed_work += run.completed_work(lifespan);
        cell.mean_crashes += static_cast<double>(run.faults.crashes);
        cell.mean_redundant_issued += run.redundant_issued;
        cell.mean_redundant_cancelled += run.redundant_cancelled;
        cell.mean_redundant_wasted += run.redundant_wasted;
        break;
      }
    }
    const double limit = lifespan * (1.0 + 1e-9);
    if (crossing <= limit) {
      cell.hit_rate += 1.0;
      cell.mean_makespan += std::min(crossing, lifespan);
    } else {
      cell.mean_makespan += lifespan;  // never decoded: score the full horizon
    }
  }
  const auto trials = static_cast<double>(config.trials);
  cell.mean_makespan /= trials;
  cell.hit_rate /= trials;
  cell.mean_completed_work /= trials;
  cell.mean_redundant_issued /= trials;
  cell.mean_redundant_cancelled /= trials;
  cell.mean_redundant_wasted /= trials;
  cell.mean_replans /= trials;
  cell.mean_crashes /= trials;
  return cell;
}

std::string encode_cell(const ProtocolSweepCell& cell) {
  runner::FieldWriter w;
  w.add_u64(static_cast<std::uint64_t>(cell.protocol));
  w.add_double(cell.crash_rate);
  w.add_double(cell.straggler_factor);
  w.add_double(cell.work_target);
  w.add_double(cell.mean_makespan);
  w.add_double(cell.hit_rate);
  w.add_double(cell.mean_completed_work);
  w.add_double(cell.mean_redundant_issued);
  w.add_double(cell.mean_redundant_cancelled);
  w.add_double(cell.mean_redundant_wasted);
  w.add_double(cell.mean_replans);
  w.add_double(cell.mean_crashes);
  return std::move(w).str();
}

ProtocolSweepCell decode_cell(std::string_view payload) {
  runner::FieldReader r{payload};
  ProtocolSweepCell cell;
  cell.protocol = static_cast<protocol::ProtocolKind>(r.u64());
  cell.crash_rate = r.d();
  cell.straggler_factor = r.d();
  cell.work_target = r.d();
  cell.mean_makespan = r.d();
  cell.hit_rate = r.d();
  cell.mean_completed_work = r.d();
  cell.mean_redundant_issued = r.d();
  cell.mean_redundant_cancelled = r.d();
  cell.mean_redundant_wasted = r.d();
  cell.mean_replans = r.d();
  cell.mean_crashes = r.d();
  r.expect_done();
  return cell;
}

/// Row-major (protocol, crash, factor) coordinates of grid slot i, plus the
/// protocol-independent fault cell index that keys the trial seeds.
struct CellParams {
  protocol::ProtocolKind kind;
  double crash_rate;
  double factor;
  std::uint64_t fault_cell;
};

std::vector<CellParams> flatten_grid(const ProtocolSweepConfig& config) {
  std::vector<CellParams> grid;
  grid.reserve(config.protocols.size() * config.crash_rates.size() *
               config.straggler_factors.size());
  for (protocol::ProtocolKind kind : config.protocols) {
    std::uint64_t fault_cell = 0;
    for (double crash_rate : config.crash_rates) {
      for (double factor : config.straggler_factors) {
        grid.push_back({kind, crash_rate, factor, fault_cell++});
      }
    }
  }
  return grid;
}

void count_sweep(std::size_t cells) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& sweeps = obs::counter("experiments.protocol_sweeps");
    static obs::Counter& cell_counter = obs::counter("experiments.protocol_sweep_cells");
    sweeps.add(1);
    cell_counter.add(cells);
  }
}

}  // namespace

ProtocolSweepCell decode_protocol_sweep_cell(std::string_view payload) {
  return decode_cell(payload);
}

ProtocolSweepResult run_protocol_sweep(std::span<const double> speeds,
                                       const core::Environment& env,
                                       const ProtocolSweepConfig& config) {
  runner::RunContext serial;
  return run_protocol_sweep(speeds, env, config, serial);
}

ProtocolSweepResult run_protocol_sweep(std::span<const double> speeds,
                                       const core::Environment& env,
                                       const ProtocolSweepConfig& config,
                                       runner::RunContext& ctx) {
  HETERO_OBS_SCOPE("experiments.protocol_sweep");
  validate_sweep(speeds, config);
  const SweepSetup setup = make_setup(speeds, env, config);
  const std::vector<CellParams> grid = flatten_grid(config);

  const std::vector<std::string> payloads = runner::run_units(
      ctx, "cell", grid.size(), [&](std::size_t unit, const core::CancelToken& token) {
        const CellParams& p = grid[unit];
        return encode_cell(compute_cell(speeds, env, config, setup, p.kind, p.crash_rate,
                                        p.factor, p.fault_cell, token));
      });

  // LP warm-start telemetry for run reports: the analytic sizing step is
  // the sweep's only LP consumer, so one record per journal suffices
  // (first write wins; a resume recomputes identical sizings and skips).
  if constexpr (obs::kEnabled) {
    if (ctx.journal != nullptr && ctx.journal->find("!obs:lp") == nullptr) {
      runner::FieldWriter w;
      w.add_u64(setup.replicated.lp_solves + setup.mds.lp_solves);
      w.add_u64(setup.replicated.lp_warm_starts + setup.mds.lp_warm_starts);
      ctx.journal->append("!obs:lp", w.str());
    }
  }

  ProtocolSweepResult result;
  result.work_target = setup.work_target;
  result.replicated = setup.replicated;
  result.mds = setup.mds;
  result.cells.reserve(payloads.size());
  for (const std::string& payload : payloads) result.cells.push_back(decode_cell(payload));
  count_sweep(result.cells.size());
  return result;
}

runner::JournalHeader protocol_sweep_journal_header(std::span<const double> speeds,
                                                   const core::Environment& env,
                                                   const ProtocolSweepConfig& config) {
  runner::FieldWriter w;
  w.add_doubles(speeds);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  w.add_double(config.lifespan);
  w.add_double(config.work_fraction);
  w.add_doubles(config.crash_rates);
  w.add_doubles(config.straggler_factors);
  w.add_double(config.straggler_probability);
  w.add_u64(config.trials);
  w.add_u64(config.protocols.size());
  for (protocol::ProtocolKind kind : config.protocols) {
    w.add_u64(static_cast<std::uint64_t>(kind));
  }
  detail::add_policy(w, config.policy);
  w.add_u64(config.max_replication);

  runner::JournalHeader header;
  header.tool = "protocol_sweep";
  header.seed = config.seed;
  header.fingerprint = runner::fingerprint_of(std::move(w).str());
  return header;
}

std::string format_protocol_sweep(const ProtocolSweepResult& result) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "work target %.2f  |  replicated r=%zu (%zu shards)  "
                "mds n=%zu k=%zu\n\n",
                result.work_target, result.replicated.replication,
                result.replicated.shards_total, result.mds.shards_total,
                result.mds.shards_needed);
  out += line;
  std::snprintf(line, sizeof line, "%-14s %9s %9s %10s %8s %10s %10s\n", "protocol", "crash",
                "factor", "makespan", "hit", "completed", "wasted");
  out += line;
  for (const ProtocolSweepCell& c : result.cells) {
    std::snprintf(line, sizeof line, "%-14s %9.4f %9.2f %10.3f %7.0f%% %10.2f %10.2f\n",
                  protocol::to_string(c.protocol), c.crash_rate, c.straggler_factor,
                  c.mean_makespan, 100.0 * c.hit_rate, c.mean_completed_work,
                  c.mean_redundant_wasted);
    out += line;
  }
  return out;
}

std::string protocol_sweep_csv(const ProtocolSweepResult& result) {
  std::string out =
      "protocol,crash_rate,straggler_factor,work_target,mean_makespan,hit_rate,"
      "mean_completed_work,mean_redundant_issued,mean_redundant_cancelled,"
      "mean_redundant_wasted,mean_replans,mean_crashes\n";
  char line[512];
  for (const ProtocolSweepCell& c : result.cells) {
    std::snprintf(line, sizeof line,
                  "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                  protocol::to_string(c.protocol), c.crash_rate, c.straggler_factor,
                  c.work_target, c.mean_makespan, c.hit_rate, c.mean_completed_work,
                  c.mean_redundant_issued, c.mean_redundant_cancelled, c.mean_redundant_wasted,
                  c.mean_replans, c.mean_crashes);
    out += line;
  }
  return out;
}

}  // namespace hetero::experiments
