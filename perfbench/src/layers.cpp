// Per-layer probes for the traced run.  Each probe times calls into one
// layer's public functions on inputs taken from the seed's own schedules,
// with a span around each probe so the exported trace shows where the
// probes spent their time:
//
//   service   RequestParser, Json parse/render, fingerprint, PlanCache probe
//             and Planner::handle, replayed in process over the serve_hot
//             and serve_cold schedules; plus heterod's round trip on the hot
//             schedule for the share of request time outside the handler
//   protocol  LpResolver on serve_cold's exact-allocation inputs, by size
//   numeric   the exact simplex's lp.* counters over those solves
//   core      XMeasure, batch_evaluate and the greedy upgrade planner on
//             the schedules' own profiles

#include <algorithm>
#include <map>
#include <memory>

#include "bench.h"
#include "hetero/core/batch.h"
#include "hetero/core/speedup.h"
#include "hetero/core/xmeasure.h"
#include "hetero/obs/chrome_trace.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/service/fingerprint.h"
#include "hetero/service/http.h"
#include "hetero/service/json.h"
#include "hetero/service/planner.h"
#include "serve.h"

namespace perfbench {

namespace {

namespace core = hetero::core;
namespace service = hetero::service;

constexpr std::size_t kReplayRequests = 4000;  ///< hot requests replayed per probe
constexpr std::size_t kColdReplay = 400;       ///< cold requests replayed per probe
constexpr std::size_t kLpPerSize = 30;         ///< exact solves timed per profile size
constexpr int kRepeats = 5;                    ///< median over this many timings


/// Keeps timed results observable so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;
void keep(double value) { g_sink = g_sink + value; }

/// Median over kRepeats of (time of `body` over all items) / items, in ns.
template <typename Body>
double ns_per_item(std::size_t items, Body&& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(items));
  }
  return median(samples);
}

service::HttpRequest parse_wire(const std::string& wire) {
  service::RequestParser parser;
  parser.feed(wire);
  service::HttpRequest request;
  if (parser.poll(request) != service::RequestParser::Status::kReady) {
    throw std::runtime_error("benchmark request did not parse");
  }
  return request;
}

/// The requests a probe replays: the first `limit` of connection 0.
std::vector<std::uint32_t> replay_order(const Schedule& schedule, std::size_t limit) {
  const std::vector<std::uint32_t>& sequence = schedule.connections.front();
  return {sequence.begin(), sequence.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(limit, sequence.size()))};
}

// ---------------------------------------------------------------- service

void service_probe(const Options& options, RunResult& result) {
  HETERO_OBS_SCOPE("bench.probe.service");
  const Schedule hot = make_hot_schedule(options.seed, 2, kReplayRequests);
  const std::vector<std::uint32_t> order = replay_order(hot, kReplayRequests);
  std::vector<service::HttpRequest> requests;
  for (const std::uint32_t q : order) requests.push_back(parse_wire(hot.queries[q].wire));

  std::size_t sink = 0;
  result.set("service.http_parse_ns", ns_per_item(order.size(), [&] {
               for (const std::uint32_t q : order) {
                 service::RequestParser parser;
                 parser.feed(hot.queries[q].wire);
                 service::HttpRequest request;
                 sink += static_cast<std::size_t>(parser.poll(request));
               }
             }),
             "ns");
  result.set("service.json_parse_ns", ns_per_item(order.size(), [&] {
               for (const service::HttpRequest& request : requests) {
                 sink += service::Json::parse(request.body).is_object() ? 1 : 0;
               }
             }),
             "ns");

  // A warmed in-process Planner, configured as heterod is.
  service::PlannerConfig config;
  config.cache_capacity = 1 << 16;
  service::Planner planner{config};
  std::vector<std::string> answers;
  for (const service::HttpRequest& request : requests) {
    answers.push_back(planner.handle(request).body);
  }
  std::vector<service::Json> parsed_answers;
  for (const std::string& body : answers) parsed_answers.push_back(service::Json::parse(body));
  result.set("service.json_render_ns", ns_per_item(order.size(), [&] {
               for (const service::Json& answer : parsed_answers) sink += answer.dump().size();
             }),
             "ns");

  std::vector<service::PlanKey> keys;
  std::vector<std::uint64_t> fingerprints;
  for (const std::uint32_t q : order) {
    const Query& query = hot.queries[q];
    if (query.endpoint != Endpoint::kX) continue;  // the X key: no endpoint scalars
    keys.push_back(service::make_plan_key(service::QueryKind::kX, query.speeds,
                                          config.env));
    fingerprints.push_back(service::fingerprint(keys.back()));
  }
  result.set("service.fingerprint_ns", ns_per_item(keys.size(), [&] {
               for (const std::uint32_t q : order) {
                 const Query& query = hot.queries[q];
                 if (query.endpoint != Endpoint::kX) continue;
                 sink += service::fingerprint(service::make_plan_key(
                     service::QueryKind::kX, query.speeds, config.env));
               }
             }),
             "ns");
  result.set("service.cache_probe_ns", ns_per_item(keys.size(), [&] {
               for (std::size_t i = 0; i < keys.size(); ++i) {
                 sink += planner.cache().find(keys[i], fingerprints[i]) != nullptr ? 1 : 0;
               }
             }),
             "ns");

  // Planner::handle on the hit path, one timing per request.
  std::vector<double> handle_us;
  for (const service::HttpRequest& request : requests) {
    const std::uint64_t t0 = now_ns();
    sink += planner.handle(request).body.size();
    handle_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
  }
  const double handle_hit_us = median(handle_us);
  result.set("service.handle_hit_us", handle_hit_us, "us");

  // heterod's round trip on the same requests, one connection, for the
  // share of request time spent outside Planner::handle.
  {
    Daemon daemon{options.heterod, 1};
    wait_healthy(daemon.port());
    static_cast<void>(send_all(daemon.port(), hot, order, 1));
    Connection connection{daemon.port()};
    std::vector<double> rtt_us;
    for (const std::uint32_t q : order) {
      const std::uint64_t t0 = now_ns();
      sink += connection.exchange(hot.queries[q].wire).body.size();
      rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    }
    const double rtt = median(rtt_us);
    result.set("service.outside_handler_share", (rtt - handle_hit_us) / rtt, "ratio");
    result.note("probe.hot_rtt_p50_us", rtt);
  }

  // The miss path: a fresh Planner answering serve_cold requests.
  const Schedule cold = make_cold_schedule(options.seed, 1, kColdReplay);
  service::Planner fresh{config};
  std::vector<double> miss_us;
  for (const std::uint32_t q : cold.connections.front()) {
    const service::HttpRequest request = parse_wire(cold.queries[q].wire);
    const std::uint64_t t0 = now_ns();
    const service::HttpResponse response = fresh.handle(request);
    miss_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    if (response.status != 200) result.fail("in-process cold replay: status " +
                                            std::to_string(response.status));
  }
  result.set("service.handle_miss_us", median(miss_us), "us");
  keep(static_cast<double>(sink));
}

// --------------------------------------------------------------- protocol

void lp_probe(const Options& options, RunResult& result) {
  HETERO_OBS_SCOPE("bench.probe.lp");
  const Schedule cold = make_cold_schedule(options.seed, 1, 2000);
  std::map<std::size_t, std::vector<const Query*>> by_size;
  for (const std::uint32_t q : cold.connections.front()) {
    const Query& query = cold.queries[q];
    if (query.endpoint != Endpoint::kAllocateExact) continue;
    auto& group = by_size[query.speeds.size()];
    if (group.size() < kLpPerSize) group.push_back(&query);
  }
  const core::Environment env = core::Environment::paper_default();
  const auto before = registry_counters();
  hetero::protocol::LpResolver resolver;
  for (const auto& [n, queries] : by_size) {
    std::vector<double> solve_us;
    for (const Query* query : queries) {
      const std::vector<double> speeds = service::canonical_speeds(query->speeds);
      const std::uint64_t t0 = now_ns();
      const auto lp = resolver.solve(speeds, env, query->param,
                                     hetero::protocol::ProtocolOrders::fifo(speeds.size()));
      solve_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
      if (lp.status != hetero::numeric::LpStatus::kOptimal) result.fail("LP probe: not optimal");
    }
    result.set("protocol.lp_solve_us.n" + std::to_string(n), median(solve_us), "us");
  }
  const auto after = registry_counters();
  const double solves = delta(before, after, "lp.solves");
  const double lookups = delta(before, after, "lp.lift_lookups");
  result.set("numeric.lp_pivots_per_solve",
             solves > 0 ? delta(before, after, "lp.pivots") / solves : 0.0, "count");
  result.set("numeric.lp_lift_hit_ratio",
             lookups > 0 ? delta(before, after, "lp.lift_hits") / lookups : 0.0, "ratio");
  result.set("protocol.lp_warm_start_ratio",
             resolver.solves() > 0 ? static_cast<double>(resolver.warm_starts()) /
                                         static_cast<double>(resolver.solves())
                                   : 0.0,
             "ratio");
}

// ------------------------------------------------------------------- core

void core_probe(const Options& options, RunResult& result) {
  HETERO_OBS_SCOPE("bench.probe.core");
  const core::Environment env = core::Environment::paper_default();
  const Schedule cold = make_cold_schedule(options.seed, 1, 2000);
  std::vector<std::vector<double>> wide;
  std::vector<const Query*> plans;
  std::size_t machines = 0;
  for (const std::uint32_t q : cold.connections.front()) {
    const Query& query = cold.queries[q];
    if (query.endpoint == Endpoint::kX && wide.size() < 64) {
      wide.push_back(service::canonical_speeds(query.speeds));
      machines += query.speeds.size();
    }
    if (query.endpoint == Endpoint::kUpgradePlan && plans.size() < 64) plans.push_back(&query);
  }
  double sink = 0.0;
  result.set("core.x_measure_ns_per_machine", ns_per_item(machines, [&] {
               for (const std::vector<double>& speeds : wide) {
                 sink += core::XMeasure{speeds, env}.value();
               }
             }),
             "ns");

  std::vector<std::span<const double>> profiles;
  const Schedule batches = make_hot_schedule(options.seed, 2, kReplayRequests);
  for (const Query& query : batches.queries) {
    if (query.endpoint != Endpoint::kXBatch) continue;
    for (const std::vector<double>& p : query.batch) profiles.emplace_back(p);
  }
  std::vector<core::ProfileMeasures> measures(profiles.size());
  core::BatchRequest request;
  request.x = true;
  result.set("core.batch_evaluate_ns_per_profile", ns_per_item(profiles.size(), [&] {
               core::batch_evaluate_into(profiles, env, request, measures);
               sink += measures.front().x;
             }),
             "ns");

  std::vector<double> plan_us;
  for (const Query* query : plans) {
    const std::vector<double> speeds = service::canonical_speeds(query->speeds);
    const std::uint64_t t0 = now_ns();
    const auto plan = core::greedy_upgrade_plan(
        speeds,
        query->multiplicative ? core::UpgradeKind::kMultiplicative : core::UpgradeKind::kAdditive,
        query->param, query->rounds, env);
    plan_us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    sink += static_cast<double>(plan.size());
  }
  result.set("core.upgrade_plan_us", median(plan_us), "us");
  keep(sink);
}

}  // namespace

void run_layer_probes(const Options& options, RunResult& result, bool skip_sweep) {
  service_probe(options, result);
  lp_probe(options, result);
  core_probe(options, result);
  if (!skip_sweep) {
    HETERO_OBS_SCOPE("bench.probe.sweep");
    sweep_layer_metrics(options, result);
  }
}

void export_trace(const std::string& path) {
  // Every span is recorded (that is the traced overhead); the file keeps at
  // most kMaxSpansPerName of each name so a long serving run stays loadable.
  constexpr std::size_t kMaxSpansPerName = 20000;
  std::map<std::string_view, std::size_t> per_name;
  std::vector<hetero::obs::Span> spans;
  for (const hetero::obs::Span& span : hetero::obs::SpanCollector::global().snapshot()) {
    if (++per_name[span.name] <= kMaxSpansPerName) spans.push_back(span);
  }
  std::vector<hetero::obs::TraceEvent> events = hetero::obs::wall_metadata_events(spans);
  for (auto& list : {hetero::obs::events_from_spans(spans),
                     hetero::obs::flow_events_from_spans(spans)}) {
    events.insert(events.end(), list.begin(), list.end());
  }
  write_file(path, hetero::obs::chrome_trace_json(events));
}

}  // namespace perfbench
