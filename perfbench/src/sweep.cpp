// sweep_journaled: the paper-artifact path, in process.  One fixed config
// set — a protocol x fault-severity race, a crash/straggler fault sweep, the
// Table-3 HECR rows and the Section-4.3 variance predictor — runs through
// the journaled RunContext overloads (thread pool + runner::Journal) of all
// four drivers.  A pass is that whole set once, with fresh journals; every
// pass does identical work, and the number of passes is fixed by --seconds.
// Every pass's CSVs must be byte-identical to the unjournaled serial run.

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "hetero/core/environment.h"
#include "hetero/experiments/experiments.h"
#include "hetero/experiments/fault_sweep.h"
#include "hetero/experiments/protocol_sweep.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/protocol/coded.h"
#include "hetero/runner/codec.h"
#include "hetero/runner/journal.h"
#include "hetero/runner/runner.h"

namespace perfbench {

namespace {

namespace ex = hetero::experiments;
namespace runner = hetero::runner;

/// Pool size: two workers, as in the serving workloads — well inside the
/// reference host's four vCPUs, leaving room for the runner's watchdog.
constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kSetups = 25;
/// Passes per second of run, measured on the reference host (see README).
constexpr double kPassesPerSecond = 0.7;

struct SweepSet {
  std::vector<double> fleet;
  hetero::core::Environment env = hetero::core::Environment::paper_default();
  ex::ProtocolSweepConfig protocol;
  ex::FaultSweepConfig fault;
  std::vector<std::size_t> hecr_sizes;
  std::size_t variance_n = 16;
  std::size_t variance_trials = 0;
  std::uint64_t variance_seed = 0;
};

SweepSet make_sweep_set(std::uint64_t seed) {
  SweepSet set;
  // The README's six-machine race fleet <1, 1/2, ..., 1/32>, each rate
  // jittered by the seed within +-10% (capped at the normalized rate 1).
  Rng rng{mix_seed(seed, 0x7377656570)};  // "sweep"
  for (int i = 0; i < 6; ++i) {
    set.fleet.push_back(std::min(1.0, std::ldexp(1.0, -i) * (0.9 + 0.2 * rng.uniform())));
  }
  const double lifespan = 3600.0;
  const std::vector<double> crashes{0.0, 0.25 / lifespan, 0.5 / lifespan, 1.0 / lifespan,
                                    1.5 / lifespan};
  const std::vector<double> factors{1.0, 1.5, 2.0, 3.0, 4.0};
  set.protocol.lifespan = lifespan;
  set.protocol.crash_rates = crashes;
  set.protocol.straggler_factors = factors;
  set.protocol.trials = 3;
  set.protocol.seed = rng.next();
  set.fault.lifespan = lifespan;
  set.fault.crash_rates = {0.0, 0.5 / lifespan, 1.5 / lifespan};
  set.fault.straggler_factors = {1.0, 2.0, 4.0};
  set.fault.trials = 3;
  set.fault.seed = rng.next();
  set.hecr_sizes = {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  set.variance_trials = 64 * 1024;  // 64 journaled batches of 1024
  set.variance_seed = rng.next();
  return set;
}

/// What one pass produced.
struct Pass {
  std::string csv[4];             ///< protocol, fault, hecr, variance
  double driver_s[4] = {};
  double wall_s = 0.0;
  std::vector<double> unit_s;     ///< winner wall seconds per unit (telemetry)
  std::uint64_t units = 0;
  std::uint64_t attempts = 0;
  std::size_t units_per_driver[4] = {};
};

const char* const kDriverNames[4] = {"protocol_sweep", "fault_sweep", "hecr_table",
                                     "variance_predictor"};

std::string hecr_csv(const std::vector<ex::HecrRow>& rows) {
  std::string out = "n,hecr_linear,hecr_harmonic,ratio\n";
  for (const ex::HecrRow& row : rows) {
    out += std::to_string(row.n) + ',' + fmt(row.hecr_linear) + ',' + fmt(row.hecr_harmonic) +
           ',' + fmt(row.ratio) + '\n';
  }
  return out;
}

std::string variance_csv(const ex::VariancePredictorResult& r) {
  const auto moments = [](const hetero::stats::OnlineMoments& m) {
    return std::to_string(m.count()) + ',' + fmt(m.mean()) + ',' + fmt(m.variance());
  };
  return "n,trials,good,bad,skipped,good_count,good_mean,good_var,bad_count,bad_mean,bad_var\n" +
         std::to_string(r.n) + ',' + std::to_string(r.trials) + ',' + std::to_string(r.good) +
         ',' + std::to_string(r.bad) + ',' + std::to_string(r.skipped) + ',' +
         moments(r.hecr_gap_when_good) + ',' + moments(r.hecr_gap_when_bad) + '\n';
}

/// Runs the four drivers once.  `pool` null = serial; `journal_dir` empty =
/// unjournaled.  Journals are created fresh and removed afterwards.
Pass run_pass(const SweepSet& set, hetero::parallel::ThreadPool* pool,
              const std::string& journal_dir, bool traced) {
  Pass pass;
  const double start = now_s();
  for (int d = 0; d < 4; ++d) {
    runner::JournalHeader header;
    switch (d) {
      case 0: header = ex::protocol_sweep_journal_header(set.fleet, set.env, set.protocol); break;
      case 1: header = ex::fault_sweep_journal_header(set.fleet, set.env, set.fault); break;
      case 2: header = ex::hecr_journal_header(set.hecr_sizes, set.env); break;
      default:
        header = ex::variance_predictor_journal_header(set.variance_n, set.variance_trials,
                                                       set.variance_seed, set.env);
    }
    std::unique_ptr<runner::Journal> journal;
    const std::string path = journal_dir + "/" + kDriverNames[d] + ".journal";
    if (!journal_dir.empty()) {
      journal = std::make_unique<runner::Journal>(runner::Journal::create(path, header));
    }
    runner::RunContext ctx;
    ctx.pool = pool;
    ctx.journal = journal.get();
    const double t0 = now_s();
    {
      std::unique_ptr<hetero::obs::ProfileScope> span;
      if (traced) {
        static const char* const kSpans[4] = {"bench.protocol_sweep", "bench.fault_sweep",
                                              "bench.hecr_table", "bench.variance_predictor"};
        span = std::make_unique<hetero::obs::ProfileScope>(kSpans[d]);
      }
      switch (d) {
        case 0:
          pass.csv[0] = ex::protocol_sweep_csv(
              ex::run_protocol_sweep(set.fleet, set.env, set.protocol, ctx));
          break;
        case 1:
          pass.csv[1] =
              ex::fault_sweep_csv(ex::run_fault_sweep(set.fleet, set.env, set.fault, ctx));
          break;
        case 2: pass.csv[2] = hecr_csv(ex::hecr_table(set.hecr_sizes, set.env, ctx)); break;
        default:
          pass.csv[3] = variance_csv(ex::variance_predictor_experiment(
              set.variance_n, set.variance_trials, set.variance_seed, set.env, ctx));
      }
    }
    pass.driver_s[d] = now_s() - t0;
    if (journal) {
      pass.units_per_driver[d] = journal->records().size();
      pass.units += journal->records().size();
      for (const auto& [key, payload] : journal->sidecar()) {
        if (key == "!obs:lp") continue;  // the protocol sweep's LP summary record
        runner::FieldReader reader{payload};
        static_cast<void>(reader.u64());             // unit
        pass.unit_s.push_back(reader.d());           // winner wall seconds
        pass.attempts += reader.u64();               // attempts incl. copies
        pass.attempts += reader.u64();               // retries
      }
      journal.reset();
      remove_tree(path);
    }
  }
  pass.wall_s = now_s() - start;
  return pass;
}

std::size_t passes_for(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds * kPassesPerSecond)));
}

hetero::obs::HistogramSample histogram_now(const std::string& name) {
  for (const auto& h : hetero::obs::Registry::global().snapshot().histograms) {
    if (h.name == name) return h;
  }
  return {};
}

/// Checks a pass against the serial reference: a driver whose CSV differs
/// fails all of its units.
void check_pass(const Pass& pass, const Pass& reference, RunResult& result) {
  for (int d = 0; d < 4; ++d) {
    if (pass.csv[d] == reference.csv[d]) continue;
    result.fail(std::string{kDriverNames[d]} +
                    ": journaled CSV differs from the unjournaled serial run",
                std::max<std::size_t>(1, pass.units_per_driver[d]));
  }
}

}  // namespace

void sweep_layer_metrics(const Options& options, RunResult& result) {
  const SweepSet set = make_sweep_set(options.seed);
  const std::string dir = options.out_dir + "/sweep-layers";
  make_dirs(dir);
  hetero::parallel::ThreadPool pool{kPoolThreads};
  const Pass reference = run_pass(set, nullptr, "", false);

  // Journaled and unjournaled pool passes, alternated, two each.
  std::vector<Pass> journaled;
  std::vector<Pass> unjournaled;
  const auto counters0 = registry_counters();
  const auto wait0 = histogram_now("parallel.task_wait_us");
  for (int i = 0; i < 2; ++i) {
    journaled.push_back(run_pass(set, &pool, dir, true));
    unjournaled.push_back(run_pass(set, &pool, "", true));
  }
  const auto counters1 = registry_counters();
  auto wait = histogram_now("parallel.task_wait_us");
  for (std::size_t b = 0; b < wait.buckets.size(); ++b) wait.buckets[b] -= wait0.buckets[b];
  wait.count -= wait0.count;

  std::vector<double> driver_s[4];
  std::vector<double> unit_s;
  std::vector<double> journaled_s;
  std::vector<double> unjournaled_s;
  std::uint64_t units = 0;
  std::uint64_t attempts = 0;
  double total_wall = 0.0;
  double sim_wall = 0.0;  // the simulator runs inside the protocol and fault sweeps
  for (const Pass& pass : journaled) {
    result.attempted += pass.units;
    check_pass(pass, reference, result);
    for (int d = 0; d < 4; ++d) driver_s[d].push_back(pass.driver_s[d]);
    unit_s.insert(unit_s.end(), pass.unit_s.begin(), pass.unit_s.end());
    units += pass.units;
    attempts += pass.attempts;
    journaled_s.push_back(pass.wall_s);
  }
  for (const Pass& pass : unjournaled) unjournaled_s.push_back(pass.wall_s);
  for (const auto* passes : {&journaled, &unjournaled}) {
    for (const Pass& pass : *passes) {
      total_wall += pass.wall_s;
      sim_wall += pass.driver_s[0] + pass.driver_s[1];
    }
  }
  result.set("experiments.protocol_sweep_s", median(driver_s[0]), "s");
  result.set("experiments.fault_sweep_s", median(driver_s[1]), "s");
  result.set("experiments.hecr_table_s", median(driver_s[2]), "s");
  result.set("experiments.variance_predictor_s", median(driver_s[3]), "s");
  result.set("sim.events_per_s", delta(counters0, counters1, "sim.events") / sim_wall, "1/s");
  result.set("runner.unit_ms_p50", median(unit_s) * 1e3, "ms");
  result.set("runner.useful_attempt_ratio",
             attempts > 0 ? static_cast<double>(units) / static_cast<double>(attempts) : 0.0,
             "ratio");
  result.set("runner.journal_overhead_ratio", median(journaled_s) / median(unjournaled_s),
             "ratio");
  result.set("parallel.task_wait_us_p50", wait.quantile(0.5), "us");
  result.set("parallel.busy_ratio",
             delta(counters0, counters1, "parallel.worker_busy_ns") * 1e-9 /
                 (static_cast<double>(kPoolThreads) * total_wall),
             "ratio");

  // Journal::append, replaying one pass's records into a fresh journal on
  // the same filesystem.
  double work_target = 0.0;
  {
    const runner::JournalHeader header =
        ex::protocol_sweep_journal_header(set.fleet, set.env, set.protocol);
    const std::string source = dir + "/source.journal";
    std::map<std::string, std::string> records;
    std::map<std::string, std::string> sidecar;
    {
      runner::Journal journal = runner::Journal::create(source, header);
      runner::RunContext ctx;
      ctx.pool = &pool;
      ctx.journal = &journal;
      work_target = ex::run_protocol_sweep(set.fleet, set.env, set.protocol, ctx).work_target;
      records = journal.records();
      sidecar = journal.sidecar();
    }
    remove_tree(source);
    std::vector<double> append_us;
    const std::string replay = dir + "/replay.journal";
    {
      runner::Journal journal = runner::Journal::create(replay, header);
      for (const auto* map : {&records, &sidecar}) {
        for (const auto& [key, payload] : *map) {
          const std::uint64_t t0 = now_ns();
          journal.append(key, payload);
          append_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
        }
      }
    }
    remove_tree(replay);
    result.set("runner.journal_append_us", median(append_us), "us");
  }

  // Coded sizing through the exact LP on the sweep fleet, as the protocol
  // sweep sizes its replicated and MDS cells.
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      const auto replicated = hetero::protocol::size_replicated(set.fleet, set.env,
                                                                set.protocol.lifespan, work_target);
      const auto mds =
          hetero::protocol::size_mds(set.fleet, set.env, set.protocol.lifespan, work_target);
      ms.push_back((now_s() - t0) * 1e3);
      if (!replicated.feasible && !mds.feasible) result.fail("coded sizing found no plan");
    }
    result.set("protocol.coded_sizing_ms", median(ms), "ms");
  }
  remove_tree(dir);
}

void run_sweep(const Options& options, RunResult& result) {
  const SweepSet set = make_sweep_set(options.seed);
  const std::string dir = options.out_dir + "/sweep";
  remove_tree(dir);
  make_dirs(dir);
  // The whole process, and so the pool it starts, runs on the plan's work
  // CPUs; only those are measured.
  const CpuPlan plan = cpu_plan();
  const std::vector<int> caller_cpus = thread_cpus();
  pin_thread(plan.work);
  note_cpus(plan, result);

  // Set-up: pool and journal creation, several times; the last pool runs.
  std::vector<double> setup_s;
  std::unique_ptr<hetero::parallel::ThreadPool> pool;
  Slowness before = measure_slowness(plan.work);
  for (std::size_t s = 0; s < kSetups; ++s) {
    pool.reset();
    const std::string setup_dir = dir + "/setup";
    make_dirs(setup_dir);
    const double t0 = now_s();
    pool = std::make_unique<hetero::parallel::ThreadPool>(kPoolThreads);
    {
      const runner::Journal journals[4] = {
          runner::Journal::create(setup_dir + "/0.journal",
                                  ex::protocol_sweep_journal_header(set.fleet, set.env, set.protocol)),
          runner::Journal::create(setup_dir + "/1.journal",
                                  ex::fault_sweep_journal_header(set.fleet, set.env, set.fault)),
          runner::Journal::create(setup_dir + "/2.journal",
                                  ex::hecr_journal_header(set.hecr_sizes, set.env)),
          runner::Journal::create(setup_dir + "/3.journal",
                                  ex::variance_predictor_journal_header(
                                      set.variance_n, set.variance_trials, set.variance_seed,
                                      set.env))};
      static_cast<void>(journals);
      setup_s.push_back(now_s() - t0);
    }
    remove_tree(setup_dir);
    const Slowness after = measure_slowness(plan.work);
    setup_s.back() /= Slowness::between(before, after).value;
    before = after;
  }

  // Ground truth and warm-up: the unjournaled serial run, on one work CPU,
  // which alone is measured around it.  It is part of set-up, so that work
  // moved out of the timed passes into it shows.
  const std::vector<int> warmup_cpu{plan.work.front()};
  pin_thread(warmup_cpu);
  const Slowness warmup_before = measure_slowness(warmup_cpu);
  const Pass reference = run_pass(set, nullptr, "", false);
  {
    const Slowness after = measure_slowness(warmup_cpu);
    result.note("setup_s.pool_and_journals", median(setup_s));
    result.note("setup_s.warmup_pass", reference.wall_s);
    const double warmup_s = reference.wall_s / Slowness::between(warmup_before, after).value;
    for (double& s : setup_s) s += warmup_s;
  }
  pin_thread(plan.work);

  const std::size_t passes = passes_for(options.seconds);
  const auto counters0 = registry_counters();
  std::vector<Pass> timed;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_slow;  // the CPUs around each pass
  before = measure_slowness(plan.work);
  for (std::size_t p = 0; p < passes; ++p) {
    const double cpu = self_cpu_s();
    timed.push_back(run_pass(set, pool.get(), dir, false));
    pass_cpu_s.push_back(self_cpu_s() - cpu);
    const Slowness after = measure_slowness(plan.work);
    pass_slow.push_back(Slowness::between(before, after).value);
    before = after;
  }
  const auto counters1 = registry_counters();

  // Every time is divided by the slowness of the CPUs around its pass.
  std::vector<double> pass_s, raw_pass_s;
  std::vector<double> cpu_per_unit_us;
  std::vector<double> unit_p50_us, unit_us;
  std::uint64_t units = 0;
  for (std::size_t p = 0; p < timed.size(); ++p) {
    const Pass& pass = timed[p];
    result.attempted += pass.units;
    check_pass(pass, reference, result);
    raw_pass_s.push_back(pass.wall_s);
    pass_s.push_back(pass.wall_s / pass_slow[p]);
    units += pass.units;
    unit_p50_us.push_back(quantile(pass.unit_s, 0.50) * 1e6 / pass_slow[p]);
    for (const double s : pass.unit_s) unit_us.push_back(s * 1e6 / pass_slow[p]);
    cpu_per_unit_us.push_back(pass_cpu_s[p] * 1e6 / static_cast<double>(pass.units) /
                              pass_slow[p]);
  }
  result.note("loop", "in process: 4 journaled drivers per pass, thread pool of 2");
  result.note("passes", static_cast<double>(passes));
  {
    std::string all;
    for (const Pass& pass : timed) all += fmt(pass.wall_s).substr(0, 6) + " ";
    result.note("pass_wall_s", all);
  }
  result.note("slowness.passes_median", median(pass_slow));
  result.note("raw.wall_s", median(raw_pass_s));
  result.note("units", static_cast<double>(units));
  result.note("units_per_pass", static_cast<double>(timed.front().units));
  result.note("latency_samples", static_cast<double>(unit_us.size()));
  result.note("latency_samples_per_pass", static_cast<double>(timed.front().unit_s.size()));
  result.note("setup_samples", static_cast<double>(setup_s.size()));
  for (int d = 0; d < 4; ++d) {
    std::vector<double> seconds;
    for (const Pass& pass : timed) seconds.push_back(pass.driver_s[d]);
    result.note(std::string{"driver_s."} + kDriverNames[d], median(seconds));
    result.note(std::string{"units."} + kDriverNames[d],
                static_cast<double>(timed.front().units_per_driver[d]));
  }
  std::size_t csv_bytes = 0;
  for (const std::string& csv : reference.csv) csv_bytes += csv.size();
  result.note("csv_bytes", static_cast<double>(csv_bytes));

  if (!options.trace) {
    // Every pass does the same work: every time metric but p99 is the median
    // over the passes (p50: of each pass's units); p99 pools the units of
    // every pass, so that at least ten lie beyond it.
    const double pass_wall_s = median(pass_s);
    result.set("throughput_rps", static_cast<double>(timed.front().units) / pass_wall_s, "1/s");
    result.set("latency_p50_us", median(unit_p50_us), "us");
    result.set("latency_p99_us", quantile(unit_us, 0.99), "us");
    result.set("cpu_us_per_op", median(cpu_per_unit_us), "us");
    result.set("wall_s", pass_wall_s, "s");
    result.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    result.set("setup_s", median(setup_s), "s");
  } else {
    // Traced passes (driver spans on) against the untraced ones above.
    std::vector<double> traced_s;
    for (std::size_t p = 0; p < passes; ++p) {
      const Pass pass = run_pass(set, pool.get(), dir, true);
      check_pass(pass, reference, result);
      traced_s.push_back(pass.wall_s);
    }
    result.set("bench.trace_overhead_ratio", median(traced_s) / median(raw_pass_s), "ratio");
    result.set("error_rate",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               "ratio");
    result.set("protocol.lp_solves_timed", delta(counters0, counters1, "lp.solves"), "count");
    result.set("numeric.lp_pivots_timed", delta(counters0, counters1, "lp.pivots"), "count");
    // No service layer in this workload: its counters read zero.
    for (const char* name : {"service.cache_hits_timed", "service.cache_hit_ratio",
                             "service.cache_evictions", "service.x_incremental_ratio",
                             "service.shed", "service.degraded"}) {
      result.set(name, 0.0, std::string{name}.find("ratio") != std::string::npos ? "ratio" : "count");
    }
    sweep_layer_metrics(options, result);
  }
  pool.reset();
  remove_tree(dir);
  pin_thread(caller_cpus);
}

}  // namespace perfbench
