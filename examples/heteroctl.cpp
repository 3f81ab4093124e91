// heteroctl — command-line front end to the library.
//
//   heteroctl power   "<1, 1/2, 1/4>"            # X, HECR, moments
//   heteroctl plan    "<1, 1/2, 1/4>" 3600       # FIFO allocations for L
//   heteroctl rent    "<1, 1/2, 1/4>" 10000      # CRP: min time for W units
//   heteroctl compare "<0.8, 0.2>" "<0.5, 0.5>"  # every predictor + ground truth
//   heteroctl upgrade "<1, 1/2, 1/4>" 0.0625     # additive-speedup table (phi)
//   heteroctl obs     "<1, 1/2, 1/4>" 3600 [trace.json]  # episode + exports
//   heteroctl faults  "<1, 1/2, 1/4>" 3600 [seed]        # fault scenarios
//   heteroctl protocols "<1, 1/2, ...>" 3600 [seed] [out.csv]  # protocol axis
//   heteroctl resume  sweep.journal                      # continue a killed run
//   heteroctl report  sweep.journal [out.md|out.json]    # explain a finished run
//
// The `report` command joins a journal's decoded results with the runner's
// per-unit telemetry sidecar records into one deterministic document:
// duration percentiles, outcome/waste accounting, and MAD outlier detection
// with per-cell attribution (which crash-rate / straggler coordinates the
// slow cell ran under).  Journaled runs also arm the observability flight
// recorder: on a fatal error or crash the recent structured-event ring is
// dumped next to the journal as `<journal>.blackbox`.
//
// With `--journal <path>`, the `faults` and `protocols` sweeps checkpoint
// every finished grid cell into a crash-safe journal; if the process is
// killed, `heteroctl resume <path>` replays the finished cells and computes
// only the missing ones, producing bit-identical output (the journal header
// records the original invocation, so resume needs no other arguments).
//
// The `protocols` command races the four protocols — fault-oblivious FIFO,
// reactive FIFO, replicated(r), and MDS(n, k) — against bit-identical fault
// plans on a crash-rate x straggler grid, scoring the time each needed to
// make the same work target decodable (experiments/protocol_sweep), and
// renders one replicated episode's Gantt chart so the duplicate
// cancellations (x marks) are visible.
//
// The `obs` command simulates a FIFO episode, writes a Chrome trace-event
// JSON (open in https://ui.perfetto.dev or chrome://tracing) combining
// simulated-time segments with wall-clock profiling spans, and prints the
// metrics registry in Prometheus text format.  Any command also accepts a
// global `--metrics` flag to dump the registry after the run.
//
// The `faults` command sweeps a crash-rate x straggler-severity grid
// (fault-oblivious vs reactive FIFO, degradation vs the fault-free optimum)
// and then plays one seeded crash+straggler scenario end to end, printing
// the reactive Gantt chart with the crash, stalls, and post-replan rounds.
//
// Profiles use the paper's notation: fractions or decimals, brackets
// optional.  All output is plain text.

#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "hetero/core/hetero.h"
#include "hetero/experiments/fault_sweep.h"
#include "hetero/experiments/protocol_sweep.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/runner/journal.h"
#include "hetero/runner/runner.h"
#include "hetero/obs/chrome_trace.h"
#include "hetero/obs/flight_recorder.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/prometheus.h"
#include "hetero/protocol/fifo.h"
#include "hetero/report/gantt.h"
#include "hetero/report/run_report.h"
#include "hetero/report/table.h"
#include "hetero/service/client.h"
#include "hetero/service/planner.h"
#include "hetero/service/server.h"
#include "hetero/sim/coded.h"
#include "hetero/sim/reactive.h"
#include "hetero/sim/trace_export.h"
#include "hetero/sim/worksharing.h"

namespace {

using namespace hetero;

const core::Environment kEnv = core::Environment::paper_default();

/// Arms the flight recorder for a journaled run: fatal signals dump the
/// structured-event ring to `<journal>.blackbox`, and run_units does the
/// same (via ctx.black_box) on fatal errors and cancellation.
std::string arm_black_box(const std::string& journal_path) {
  std::string box = journal_path + ".blackbox";
  if constexpr (obs::kEnabled) obs::FlightRecorder::arm(box);
  return box;
}

/// With --journal, opens (or resumes) the sweep's journal into `journal` and
/// attaches it to `ctx`: finished cells land in the journal, and a killed
/// run is continued with `heteroctl resume <path>` (the header carries this
/// invocation) with bit-identical output.  Without it, leaves ctx as is.
void attach_journal(runner::RunContext& ctx, std::optional<runner::Journal>& journal,
                    const std::string& journal_path, runner::JournalHeader header,
                    const std::string& invocation) {
  if (journal_path.empty()) return;
  header.invocation = invocation;
  journal.emplace(runner::Journal::open_or_resume(journal_path, header));
  const std::size_t resumed = journal->records().size();
  if (resumed > 0) {
    std::cout << "resuming " << journal_path << ": " << resumed
              << " cell(s) already journaled\n";
  }
  ctx.journal = &*journal;
  ctx.black_box = arm_black_box(journal_path);
}

int cmd_power(const core::Profile& profile) {
  report::TextTable table{{"measure", "value"}};
  table.set_alignment(0, report::Align::kLeft);
  table.add_row({"machines", std::to_string(profile.size())});
  table.add_row({"X(P)", report::format_fixed(core::x_measure(profile, kEnv), 6)});
  table.add_row({"HECR", report::format_fixed(core::hecr(profile, kEnv), 6)});
  table.add_row({"work rate W/L", report::format_fixed(core::work_rate(profile, kEnv), 6)});
  table.add_row({"mean rho", report::format_fixed(profile.mean(), 6)});
  table.add_row({"variance", report::format_fixed(profile.variance(), 6)});
  table.add_row({"3rd central moment",
                 report::format_scientific(profile.third_central_moment(), 3)});
  std::cout << table;
  return 0;
}

int cmd_plan(const core::Profile& profile, double lifespan) {
  std::vector<double> speeds(profile.values().begin(), profile.values().end());
  const protocol::Schedule schedule = protocol::fifo_schedule(speeds, kEnv, lifespan);
  report::TextTable table{{"machine", "rho", "work", "receive", "result arrives"}};
  for (const auto& t : schedule.timelines) {
    table.add_row({"C" + std::to_string(t.machine + 1),
                   report::format_fixed(schedule.speeds[t.machine], 4),
                   report::format_fixed(t.work, 3), report::format_fixed(t.receive, 3),
                   report::format_fixed(t.result_end, 3)});
  }
  std::cout << table;
  std::cout << "total work: " << report::format_fixed(schedule.total_work(), 3)
            << "  (Theorem 2: "
            << report::format_fixed(core::work_production(lifespan, profile, kEnv), 3)
            << ")\n";
  const auto violations = schedule.validate(kEnv);
  if (!violations.empty()) {
    std::cout << "WARNING: plan infeasible in this environment ("
              << violations.front() << ")\n";
    return 1;
  }
  return 0;
}

int cmd_rent(const core::Profile& profile, double work) {
  const double lifespan = core::rental_time(work, profile, kEnv);
  std::cout << "minimum lifespan for " << work << " units: "
            << report::format_fixed(lifespan, 4) << "\n";
  std::vector<double> speeds(profile.values().begin(), profile.values().end());
  const auto schedule = protocol::crp_schedule(speeds, kEnv, work);
  const auto sim = sim::simulate_schedule(schedule, kEnv);
  std::cout << "simulated completion: "
            << report::format_fixed(sim.completed_work(schedule.lifespan), 4) << " units by t = "
            << report::format_fixed(sim.makespan, 4) << "\n";
  return 0;
}

int cmd_compare(const core::Profile& p1, const core::Profile& p2) {
  report::TextTable table{{"predictor", "verdict"}};
  table.set_alignment(0, report::Align::kLeft);
  table.set_alignment(1, report::Align::kLeft);
  table.add_row({"minorization (Prop. 2)",
                 core::to_string(core::minorization_predictor(p1, p2))});
  table.add_row({"symmetric functions (Prop. 3, exact)",
                 core::to_string(core::symmetric_function_predictor(p1, p2))});
  const bool equal_means = std::fabs(p1.mean() - p2.mean()) <= 1e-9;
  table.add_row({"variance (Thm 5, needs equal means)",
                 equal_means ? core::to_string(core::variance_predictor(p1, p2))
                             : "n/a (means differ)"});
  table.add_row({"moment hierarchy (extension)",
                 equal_means
                     ? core::to_string(core::moment_hierarchy_predictor(p1, p2, 1e-9, 1e-6, 0.0))
                     : "n/a (means differ)"});
  table.add_row({"X ground truth",
                 core::to_string(core::x_value_ground_truth(p1, p2, kEnv))});
  std::cout << "P1 = " << core::format_profile(p1, 4) << "   X = "
            << report::format_fixed(core::x_measure(p1, kEnv), 4) << '\n';
  std::cout << "P2 = " << core::format_profile(p2, 4) << "   X = "
            << report::format_fixed(core::x_measure(p2, kEnv), 4) << "\n\n";
  std::cout << table;
  return 0;
}

int cmd_upgrade(const core::Profile& profile, double phi) {
  const auto eval = core::evaluate_additive_upgrades(profile, phi, kEnv);
  report::TextTable table{{"speed up", "rho", "work gain"}};
  for (std::size_t k = 0; k < profile.size(); ++k) {
    const auto upgraded = profile.with_additive_speedup(k, phi);
    table.add_row(
        {"C" + std::to_string(k + 1) + (k == eval.best_power_index ? "  <== best" : ""),
         report::format_fixed(profile.rho(k), 4),
         "+" + report::format_fixed(100.0 * (core::work_ratio(upgraded, profile, kEnv) - 1.0),
                                    2) +
             "%"});
  }
  std::cout << table;
  return 0;
}

int cmd_obs(const core::Profile& profile, double lifespan, const std::string& trace_path) {
  // Plan and operationally execute one FIFO episode so both time domains
  // have something to show: the simulator fills the sim::Trace, and the
  // instrumented layers (engine, LP, planner) fill metrics and wall spans.
  std::vector<double> speeds(profile.values().begin(), profile.values().end());
  const protocol::Schedule schedule = protocol::fifo_schedule(speeds, kEnv, lifespan);
  const auto sim = sim::simulate_schedule(schedule, kEnv);

  auto events = sim::trace_events(sim.trace);
  const auto wall = obs::events_from_spans(obs::SpanCollector::global().snapshot());
  events.insert(events.end(), wall.begin(), wall.end());
  std::ofstream out{trace_path};
  if (!out) {
    std::cerr << "error: cannot write " << trace_path << '\n';
    return 1;
  }
  out << obs::chrome_trace_json(events);
  out.close();

  report::TextTable table{{"observable", "value"}};
  table.set_alignment(0, report::Align::kLeft);
  table.add_row({"simulated makespan", report::format_fixed(sim.makespan, 4)});
  table.add_row({"completed work", report::format_fixed(sim.completed_work(lifespan), 4)});
  table.add_row({"trace segments", std::to_string(sim.trace.segments().size())});
  table.add_row({"wall-clock spans", std::to_string(wall.size())});
  table.add_row({"trace file", trace_path});
  std::cout << table;
  std::cout << "\n" << obs::prometheus_text(obs::Registry::global().snapshot());
  return 0;
}

int cmd_faults(const core::Profile& profile, double lifespan, std::uint64_t seed,
               const std::string& journal_path, const std::string& invocation) {
  std::vector<double> speeds(profile.values().begin(), profile.values().end());

  // Degradation grid: expected crashes per machine of {0, 0.5, 1.5} over the
  // lifespan, straggler severities {none, 2x, 4x}.
  experiments::FaultSweepConfig sweep;
  sweep.lifespan = lifespan;
  sweep.crash_rates = {0.0, 0.5 / lifespan, 1.5 / lifespan};
  sweep.straggler_factors = {1.0, 2.0, 4.0};
  sweep.trials = 3;
  sweep.seed = seed;
  parallel::ThreadPool pool;
  runner::RunContext ctx;
  ctx.pool = &pool;
  std::optional<runner::Journal> journal;
  attach_journal(ctx, journal, journal_path,
                 experiments::fault_sweep_journal_header(speeds, kEnv, sweep), invocation);
  const experiments::FaultSweepResult grid =
      experiments::run_fault_sweep(speeds, kEnv, sweep, ctx);
  std::cout << "degradation vs fault-free FIFO optimum ("
            << core::format_profile(profile, 4) << ", L = " << lifespan << ", seed " << seed
            << "):\n"
            << experiments::format_fault_sweep(grid) << "\n";

  // One seeded scenario end to end.  The sample gives seed-dependent faults;
  // a crash and a straggler are guaranteed so the render always shows the
  // reallocation story.
  sim::FaultModelConfig model;
  model.crash_rate = 0.7 / lifespan;
  model.straggler_probability = 0.4;
  model.straggler_factor = 2.0;
  sim::FaultPlan plan = sim::FaultPlan::sample(model, speeds.size(), lifespan, seed);
  if (plan.slowdowns.empty()) {
    plan.slowdowns.push_back(sim::SlowdownFault{speeds.size() - 1, 0.05 * lifespan, 2.0});
  }
  if (plan.crashes.empty()) {
    plan.crashes.push_back(sim::CrashFault{0, 0.55 * lifespan});
  }

  const auto oblivious = sim::run_fifo_with_faults(speeds, kEnv, lifespan, plan);
  const auto reactive = sim::run_reactive_fifo(speeds, kEnv, lifespan, plan);
  const double fault_free =
      sim::run_fifo_with_faults(speeds, kEnv, lifespan, sim::FaultPlan{}).completed_work;

  report::TextTable table{{"run", "completed work", "vs fault-free"}};
  table.set_alignment(0, report::Align::kLeft);
  const auto pct = [fault_free](double w) {
    return report::format_fixed(fault_free > 0.0 ? 100.0 * w / fault_free : 0.0, 1) + "%";
  };
  table.add_row({"fault-free FIFO", report::format_fixed(fault_free, 2), pct(fault_free)});
  table.add_row({"oblivious FIFO", report::format_fixed(oblivious.completed_work, 2),
                 pct(oblivious.completed_work)});
  table.add_row({"reactive FIFO", report::format_fixed(reactive.completed_work, 2),
                 pct(reactive.completed_work)});
  std::cout << "scenario: " << plan.crashes.size() << " crash(es), " << plan.slowdowns.size()
            << " straggler(s); reactive ran " << reactive.rounds << " round(s), "
            << reactive.replans << " replan(s)\n"
            << table;
  for (const sim::Detection& d : reactive.faults.detections) {
    std::cout << "  detected " << sim::to_string(d.kind) << " on C" << (d.machine + 1)
              << " at t = " << report::format_fixed(d.at, 3)
              << (d.kind == sim::DetectionKind::kStraggler
                      ? " (rho x" + report::format_fixed(d.factor, 1) + ")"
                      : "")
              << "\n";
  }
  std::cout << "\nreactive episode (crash = X, stall = ~, retransmit = R):\n"
            << report::render_gantt(reactive.trace);
  return 0;
}

int cmd_protocols(const core::Profile& profile, double lifespan, std::uint64_t seed,
                  const std::string& csv_path, const std::string& journal_path,
                  const std::string& invocation) {
  std::vector<double> speeds(profile.values().begin(), profile.values().end());

  // Same fault grid as `faults` — expected crashes per machine of
  // {0, 0.5, 1.5} over the lifespan, straggler severities {none, 2x, 4x} —
  // but scored on the fixed-work axis: the time each protocol needs to make
  // the shared work target decodable.
  experiments::ProtocolSweepConfig sweep;
  sweep.lifespan = lifespan;
  sweep.crash_rates = {0.0, 0.5 / lifespan, 1.5 / lifespan};
  sweep.straggler_factors = {1.0, 2.0, 4.0};
  sweep.trials = 3;
  sweep.seed = seed;
  parallel::ThreadPool pool;
  runner::RunContext ctx;
  ctx.pool = &pool;
  std::optional<runner::Journal> journal;
  attach_journal(ctx, journal, journal_path,
                 experiments::protocol_sweep_journal_header(speeds, kEnv, sweep), invocation);
  const experiments::ProtocolSweepResult grid =
      experiments::run_protocol_sweep(speeds, kEnv, sweep, ctx);

  std::cout << "protocol race (" << core::format_profile(profile, 4) << ", L = " << lifespan
            << ", seed " << seed << "):\n"
            << experiments::format_protocol_sweep(grid) << "\n";

  if (!csv_path.empty()) {
    std::ofstream out{csv_path};
    if (!out) {
      std::cerr << "error: cannot write " << csv_path << '\n';
      return 1;
    }
    out << experiments::protocol_sweep_csv(grid);
    out.close();
    std::cout << "csv: " << csv_path << "\n";
  }

  // One seeded replicated episode with a guaranteed crash, so the Gantt
  // always shows the recovery-set story: the crashed copy's shard is
  // recovered from its replica and the surviving duplicates are cancelled
  // (zero-length `x` marks) the instant the recovery set completes.
  if (grid.replicated.allocation.num_shards > 0) {
    // Crash one replica of shard 0 partway through: the shard's surviving
    // copies still land, the deadline is unharmed, and once the recovery set
    // completes every other in-flight duplicate is cancelled on the spot.
    const auto& copies = grid.replicated.allocation.copies;
    const std::size_t victim =
        copies.size() > 2 ? copies[2].machine : copies.back().machine;
    sim::CodedRunOptions options;
    options.faults.crashes.push_back(sim::CrashFault{victim, 0.25 * lifespan});
    const auto episode = sim::run_coded(speeds, kEnv, grid.replicated.allocation, options);
    std::cout << "replicated(r = " << grid.replicated.replication << ") episode: "
              << (episode.recovered
                      ? "recovered at t = " + report::format_fixed(episode.recovery_time, 3)
                      : "did not recover")
              << "; " << episode.copies_cancelled << " duplicate(s) cancelled, "
              << episode.duplicates_landed << " landed anyway, "
              << report::format_fixed(episode.redundant_wasted, 2) << " units wasted\n"
              << report::render_gantt(episode.trace);
  }
  return 0;
}

int cmd_report(const std::string& journal_path, const std::string& out_path) {
  if constexpr (!obs::kEnabled) {
    std::cerr << "error: run reports need a -DHETERO_OBS_ENABLED=ON build\n";
    return 1;
  }
  // A report is a pure function of the journal bytes; the same journal
  // always renders byte-identical output.  `.json` destinations get the
  // machine-readable form, everything else the Markdown.
  const bool json = out_path.size() >= 5 &&
                    out_path.compare(out_path.size() - 5, 5, ".json") == 0;
  const std::string text = json ? report::run_report_json(journal_path)
                                : report::run_report_markdown(journal_path);
  if (out_path.empty()) {
    std::cout << text;
    return 0;
  }
  std::ofstream out{out_path};
  if (!out) {
    std::cerr << "error: cannot write " << out_path << '\n';
    return 1;
  }
  out << text;
  out.close();
  std::cout << "report: " << out_path << "\n";
  return 0;
}

service::Server* g_serve_server = nullptr;

extern "C" void heteroctl_serve_signal(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

/// `heteroctl serve <port> [threads]` — run the planning service in-process
/// (the same engine as the standalone `heterod` binary).  Blocks until
/// SIGTERM/SIGINT, then drains and returns 0.
int cmd_serve(int port, long threads) {
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("serve: port must be in [0, 65535] (0 = ephemeral)");
  }
  if (threads < 0) {
    throw std::invalid_argument("serve: threads must be >= 0 (0 = automatic)");
  }
  service::Planner planner;
  service::ServerConfig config;
  config.port = static_cast<std::uint16_t>(port);
  config.threads = static_cast<std::size_t>(threads);
  service::Server server{planner, config};
  server.listen();

  g_serve_server = &server;
  struct sigaction action{};
  action.sa_handler = heteroctl_serve_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::cerr << service::Planner::version_string() << " listening on 127.0.0.1:"
            << server.port() << "\n";
  server.serve();
  g_serve_server = nullptr;
  return 0;
}

/// `heteroctl query <host:port> <target> [json-body]` — one request against a
/// running service; prints the response body.  GET without a body, POST with.
/// Goes through the resilient client: transient transport failures and 503
/// sheds are retried with jittered backoff (honoring Retry-After) before the
/// command gives up.
int cmd_query(const std::string& endpoint, const std::string& target,
              const std::string& body) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= endpoint.size()) {
    throw std::invalid_argument("query: endpoint must be host:port, got \"" + endpoint + "\"");
  }
  const long port = std::stol(endpoint.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("query: port out of range in \"" + endpoint + "\"");
  }
  if (target.empty() || target.front() != '/') {
    throw std::invalid_argument("query: target must start with '/', got \"" + target + "\"");
  }
  service::Client client{endpoint.substr(0, colon), static_cast<std::uint16_t>(port)};
  const service::Client::Outcome outcome =
      body.empty() ? client.get(target) : client.post(target, body);
  if (outcome.disposition == service::Disposition::kTransport ||
      outcome.disposition == service::Disposition::kCircuitOpen) {
    std::cerr << "error: " << outcome.error << " after " << outcome.attempts
              << " attempt(s) against " << endpoint << '\n';
    return 1;
  }
  std::cout << outcome.response.body;
  if (outcome.response.body.empty() || outcome.response.body.back() != '\n') std::cout << '\n';
  if (outcome.disposition == service::Disposition::kShed) {
    std::cerr << "error: overloaded (HTTP " << outcome.response.status << ") from " << endpoint
              << target << " after " << outcome.attempts << " attempt(s)\n";
    return 1;
  }
  if (outcome.disposition == service::Disposition::kDegraded) {
    std::cerr << "note: degraded answer ("
              << outcome.response.header("X-Hetero-Degraded") << ")\n";
  }
  if (outcome.response.status >= 400) {
    std::cerr << "error: HTTP " << outcome.response.status << " from " << endpoint << target
              << '\n';
    return 1;
  }
  return 0;
}

int usage() {
  std::cout << "usage:\n"
               "  heteroctl power   <profile>\n"
               "  heteroctl plan    <profile> <lifespan>\n"
               "  heteroctl rent    <profile> <work-units>\n"
               "  heteroctl compare <profile> <profile>\n"
               "  heteroctl upgrade <profile> <phi>\n"
               "  heteroctl obs     <profile> <lifespan> [trace.json]\n"
               "  heteroctl faults  <profile> <lifespan> [seed]\n"
               "                    fault-severity grid (oblivious vs reactive FIFO); for the\n"
               "                    protocol axis (replicated/MDS coding) see `protocols`\n"
               "  heteroctl protocols <profile> <lifespan> [seed] [out.csv]\n"
               "                    protocol x fault grid: fifo, reactive, replicated(r),\n"
               "                    MDS(n,k) race to the same work target under identical faults\n"
               "  heteroctl resume  <sweep.journal>\n"
               "  heteroctl report  <sweep.journal> [out.md|out.json]\n"
               "                    deterministic run report: results, duration percentiles,\n"
               "                    outcome/waste accounting, MAD outliers with cell attribution\n"
               "  heteroctl serve   <port> [threads]\n"
               "                    run the planning service (same engine as heterod) until\n"
               "                    SIGTERM/SIGINT; port 0 picks an ephemeral port\n"
               "  heteroctl query   <host:port> <target> [json-body]\n"
               "                    one request against a running service: GET without a body,\n"
               "                    POST with, e.g. query 127.0.0.1:8080 /v1/x "
               "'{\"profile\": [1, 0.5]}'\n"
               "options:\n"
               "  --metrics          dump the metrics registry (Prometheus text) after any command\n"
               "  --journal <path>   (faults, protocols) checkpoint finished grid cells; resume\n"
               "                     a killed run with `heteroctl resume <path>`; a crash dumps\n"
               "                     the flight recorder to <path>.blackbox\n"
               "profiles use the paper's notation, e.g. \"<1, 1/2, 1/4>\" or \"1 0.5 0.25\"\n";
  return 2;
}

/// Runs one parsed command line (without --metrics).  `journal_path` is the
/// --journal value ("" = none).  Throws std::invalid_argument on malformed
/// arguments; returns usage() on missing ones.
int dispatch(const std::vector<std::string>& args, const std::string& journal_path) {
  if (args.size() < 2) return usage();
  const std::string& command = args[0];

  if (command == "report") {
    return cmd_report(args[1], args.size() >= 3 ? args[2] : std::string{});
  }

  if (command == "resume") {
    // Reopen the journal, recover the original invocation from its header,
    // and re-dispatch it with the journal attached.  Already-finished cells
    // replay from the journal; only the missing ones are computed.
    std::string invocation;
    {
      const runner::Journal journal = runner::Journal::open(args[1]);
      invocation = journal.header().invocation;
    }
    if (invocation.empty()) {
      throw std::invalid_argument("resume: journal records no invocation (not started by "
                                  "a --journal run?)");
    }
    std::vector<std::string> inner;
    std::size_t start = 0;
    while (start <= invocation.size()) {
      const std::size_t end = invocation.find('\n', start);
      inner.push_back(invocation.substr(start, end - start));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    if (inner.empty() || inner[0] == "resume") {
      throw std::invalid_argument("resume: journal carries an unusable invocation");
    }
    return dispatch(inner, args[1]);
  }

  if (command == "serve") {
    return cmd_serve(std::stoi(args[1]), args.size() >= 3 ? std::stol(args[2]) : 0);
  }
  if (command == "query") {
    if (args.size() < 3) return usage();
    return cmd_query(args[1], args[2], args.size() >= 4 ? args[3] : std::string{});
  }

  const core::Profile first = core::parse_profile(args[1]);
  if (command == "power") {
    return cmd_power(first);
  }
  if (command == "plan" && args.size() >= 3) {
    return cmd_plan(first, std::stod(args[2]));
  }
  if (command == "rent" && args.size() >= 3) {
    return cmd_rent(first, std::stod(args[2]));
  }
  if (command == "compare" && args.size() >= 3) {
    return cmd_compare(first, core::parse_profile(args[2]));
  }
  if (command == "upgrade" && args.size() >= 3) {
    return cmd_upgrade(first, std::stod(args[2]));
  }
  if (command == "obs" && args.size() >= 3) {
    return cmd_obs(first, std::stod(args[2]),
                   args.size() >= 4 ? args[3] : std::string{"hetero_trace.json"});
  }
  if (command == "faults" && args.size() >= 3) {
    // The invocation recorded for `resume`: exactly these args, one per line.
    std::string invocation;
    for (const std::string& a : args) {
      if (!invocation.empty()) invocation += '\n';
      invocation += a;
    }
    return cmd_faults(first, std::stod(args[2]), args.size() >= 4 ? std::stoull(args[3]) : 7u,
                      journal_path, invocation);
  }
  if (command == "protocols" && args.size() >= 3) {
    std::string invocation;
    for (const std::string& a : args) {
      if (!invocation.empty()) invocation += '\n';
      invocation += a;
    }
    return cmd_protocols(first, std::stod(args[2]),
                         args.size() >= 4 ? std::stoull(args[3]) : 7u,
                         args.size() >= 5 ? args[4] : std::string{}, journal_path, invocation);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --metrics and --journal <path> flags wherever they
  // appear.
  std::vector<std::string> args;
  std::string journal_path;
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "error: --journal needs a path\n";
        return usage();
      }
      journal_path = argv[++i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  int status = 2;
  try {
    status = dispatch(args, journal_path);
  } catch (const std::invalid_argument& error) {
    // Malformed arguments (unparsable profile/number, unusable journal):
    // report, remind, and exit non-zero.
    std::cerr << "error: " << error.what() << '\n';
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  if (dump_metrics) {
    std::cout << "\n# --metrics\n"
              << obs::prometheus_text(obs::Registry::global().snapshot());
  }
  return status;
}
