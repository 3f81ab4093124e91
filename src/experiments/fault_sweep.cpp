#include "hetero/experiments/fault_sweep.h"

#include <cstdio>
#include <stdexcept>

#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/runner/codec.h"
#include "hetero/sim/reactive.h"
#include "sweep_common.h"

namespace hetero::experiments {

namespace {

void validate_sweep(std::span<const double> speeds, const FaultSweepConfig& config) {
  if (speeds.empty()) throw std::invalid_argument("run_fault_sweep: empty fleet");
  if (!(config.lifespan > 0.0)) {
    throw std::invalid_argument("run_fault_sweep: nonpositive lifespan");
  }
  if (config.crash_rates.empty() || config.straggler_factors.empty() || config.trials == 0) {
    throw std::invalid_argument("run_fault_sweep: empty grid");
  }
}

// One grid cell.  Trial seeds are pure functions of (config.seed,
// cell_index), never of execution order (the resume-determinism contract
// depends on it).
FaultSweepCell compute_cell(std::span<const double> speeds, const core::Environment& env,
                            const FaultSweepConfig& config, double crash_rate, double factor,
                            std::uint64_t cell_index, double fault_free,
                            const core::CancelToken& token) {
  FaultSweepCell cell;
  cell.crash_rate = crash_rate;
  cell.straggler_factor = factor;
  cell.fault_free_work = fault_free;

  const sim::FaultModelConfig model =
      detail::cell_fault_model(crash_rate, factor, config.straggler_probability);
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    if (token.stop_requested() || token.expired()) token.check();
    const std::uint64_t seed = detail::trial_seed(config.seed, cell_index, trial);
    const sim::FaultPlan plan = sim::FaultPlan::sample(model, speeds.size(), config.lifespan, seed);
    const auto oblivious = sim::run_fifo_with_faults(speeds, env, config.lifespan, plan);
    const auto reactive = sim::run_reactive_fifo(speeds, env, config.lifespan, plan, config.policy);
    cell.oblivious_work += oblivious.completed_work;
    cell.reactive_work += reactive.completed_work;
    cell.mean_crashes += static_cast<double>(reactive.machines_crashed);
    cell.mean_replans += static_cast<double>(reactive.replans);
  }
  const auto trials = static_cast<double>(config.trials);
  cell.oblivious_work /= trials;
  cell.reactive_work /= trials;
  cell.mean_crashes /= trials;
  cell.mean_replans /= trials;
  if (fault_free > 0.0) {
    cell.oblivious_degradation = 1.0 - cell.oblivious_work / fault_free;
    cell.reactive_degradation = 1.0 - cell.reactive_work / fault_free;
  }
  return cell;
}

std::string encode_cell(const FaultSweepCell& cell) {
  runner::FieldWriter w;
  w.add_double(cell.crash_rate);
  w.add_double(cell.straggler_factor);
  w.add_double(cell.fault_free_work);
  w.add_double(cell.oblivious_work);
  w.add_double(cell.reactive_work);
  w.add_double(cell.oblivious_degradation);
  w.add_double(cell.reactive_degradation);
  w.add_double(cell.mean_crashes);
  w.add_double(cell.mean_replans);
  return std::move(w).str();
}

FaultSweepCell decode_cell(std::string_view payload) {
  runner::FieldReader r{payload};
  FaultSweepCell cell;
  cell.crash_rate = r.d();
  cell.straggler_factor = r.d();
  cell.fault_free_work = r.d();
  cell.oblivious_work = r.d();
  cell.reactive_work = r.d();
  cell.oblivious_degradation = r.d();
  cell.reactive_degradation = r.d();
  cell.mean_crashes = r.d();
  cell.mean_replans = r.d();
  r.expect_done();
  return cell;
}

void count_sweep(std::size_t cells) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& sweeps = obs::counter("experiments.fault_sweeps");
    static obs::Counter& cell_counter = obs::counter("experiments.fault_sweep_cells");
    sweeps.add(1);
    cell_counter.add(cells);
  }
}

}  // namespace

FaultSweepCell decode_fault_sweep_cell(std::string_view payload) {
  return decode_cell(payload);
}

FaultSweepResult run_fault_sweep(std::span<const double> speeds, const core::Environment& env,
                                 const FaultSweepConfig& config) {
  runner::RunContext serial;
  return run_fault_sweep(speeds, env, config, serial);
}

FaultSweepResult run_fault_sweep(std::span<const double> speeds, const core::Environment& env,
                                 const FaultSweepConfig& config, runner::RunContext& ctx) {
  HETERO_OBS_SCOPE("experiments.fault_sweep");
  validate_sweep(speeds, config);

  const sim::FaultPlan no_faults;
  const double fault_free =
      sim::run_fifo_with_faults(speeds, env, config.lifespan, no_faults).completed_work;

  // Flatten the grid so unit index == cell index (row-major).
  struct CellParams {
    double crash_rate;
    double factor;
  };
  std::vector<CellParams> grid;
  grid.reserve(config.crash_rates.size() * config.straggler_factors.size());
  for (double crash_rate : config.crash_rates) {
    for (double factor : config.straggler_factors) grid.push_back({crash_rate, factor});
  }

  const std::vector<std::string> payloads = runner::run_units(
      ctx, "cell", grid.size(),
      [&](std::size_t unit, const core::CancelToken& token) {
        const CellParams& p = grid[unit];
        return encode_cell(compute_cell(speeds, env, config, p.crash_rate, p.factor,
                                        static_cast<std::uint64_t>(unit), fault_free, token));
      });

  FaultSweepResult result;
  result.cells.reserve(payloads.size());
  for (const std::string& payload : payloads) result.cells.push_back(decode_cell(payload));
  count_sweep(result.cells.size());
  return result;
}

runner::JournalHeader fault_sweep_journal_header(std::span<const double> speeds,
                                                 const core::Environment& env,
                                                 const FaultSweepConfig& config) {
  // Canonical description of everything that shapes the results; any change
  // changes the fingerprint and open_or_resume refuses to mix journals.
  runner::FieldWriter w;
  w.add_doubles(speeds);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  w.add_double(config.lifespan);
  w.add_doubles(config.crash_rates);
  w.add_doubles(config.straggler_factors);
  w.add_double(config.straggler_probability);
  w.add_u64(config.trials);
  detail::add_policy(w, config.policy);

  runner::JournalHeader header;
  header.tool = "fault_sweep";
  header.seed = config.seed;
  header.fingerprint = runner::fingerprint_of(std::move(w).str());
  return header;
}

std::string format_fault_sweep(const FaultSweepResult& result) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%10s %9s %12s %12s %12s %8s %8s\n", "crash", "factor",
                "oblivious", "reactive", "fault-free", "obl-deg", "rct-deg");
  out += line;
  for (const FaultSweepCell& c : result.cells) {
    std::snprintf(line, sizeof line, "%10.4f %9.2f %12.2f %12.2f %12.2f %7.1f%% %7.1f%%\n",
                  c.crash_rate, c.straggler_factor, c.oblivious_work, c.reactive_work,
                  c.fault_free_work, 100.0 * c.oblivious_degradation,
                  100.0 * c.reactive_degradation);
    out += line;
  }
  return out;
}

std::string fault_sweep_csv(const FaultSweepResult& result) {
  std::string out =
      "crash_rate,straggler_factor,fault_free_work,oblivious_work,reactive_work,"
      "oblivious_degradation,reactive_degradation,mean_crashes,mean_replans\n";
  char line[512];
  for (const FaultSweepCell& c : result.cells) {
    std::snprintf(line, sizeof line,
                  "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n", c.crash_rate,
                  c.straggler_factor, c.fault_free_work, c.oblivious_work, c.reactive_work,
                  c.oblivious_degradation, c.reactive_degradation, c.mean_crashes, c.mean_replans);
    out += line;
  }
  return out;
}

}  // namespace hetero::experiments
