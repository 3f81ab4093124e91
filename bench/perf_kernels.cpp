// Microbenchmarks of the library's hot kernels (google-benchmark):
// X evaluation (direct vs product form), HECR, symmetric functions
// (floating and exact), FIFO planning, the exact-rational LP, the
// discrete-event simulator, and the runner's per-unit overhead.

#include <benchmark/benchmark.h>

#include "hetero/core/batch.h"
#include "hetero/core/hetero.h"
#include "hetero/experiments/experiments.h"
#include "hetero/numeric/symmetric.h"
#include "hetero/obs/scope.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/protocol/fifo.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/random/samplers.h"
#include "hetero/runner/runner.h"
#include "hetero/service/json.h"
#include "hetero/service/planner.h"
#include "hetero/sim/worksharing.h"

namespace {

using namespace hetero;

const core::Environment kEnv = core::Environment::paper_default();

// Fixed benchmark seed, mixed with the problem size via for_stream so that
// different benchmark ranges draw from well-separated streams instead of
// silently sharing/overlapping them (Xoshiro{n} seeded adjacent states for
// adjacent n).
constexpr std::uint64_t kBenchSeed = 0x5eedbea7f00dcafeull;

std::vector<double> random_speeds(std::size_t n) {
  auto rng = random::Xoshiro256StarStar::for_stream(kBenchSeed, n);
  return random::uniform_rho_values(n, rng, 0.05, 1.0);
}

/// A /v1/x request body over n machines; `variant` perturbs the profile so
/// different variants canonicalize to different cache keys.
std::string service_profile_body(std::size_t n, std::size_t variant) {
  auto rng = random::Xoshiro256StarStar::for_stream(kBenchSeed ^ variant, n);
  const std::vector<double> rho = random::uniform_rho_values(n, rng, 0.05, 1.0);
  std::string body = "{\"profile\": [";
  for (std::size_t i = 0; i < rho.size(); ++i) {
    if (i != 0) body += ", ";
    body += service::Json::number_to_string(rho[i]);
  }
  body += "]}";
  return body;
}

void BM_XMeasureDirect(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::x_measure(rho, kEnv));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_XMeasureDirect)->RangeMultiplier(8)->Range(8, 1 << 15)->Complexity(benchmark::oN);

void BM_XMeasureStable(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::x_measure_stable(rho, kEnv));
  }
}
BENCHMARK(BM_XMeasureStable)->RangeMultiplier(8)->Range(8, 1 << 15);

// The Theorem-3/4 candidate scan: X(P) re-evaluated for every single-machine
// perturbation of an n-machine profile.  This is the inner loop of the
// Figure-3/4 iterated-speedup experiments and the upgrade planners.
void BM_XMeasureUpgradeScan(benchmark::State& state) {
  const core::Profile p{random_speeds(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_multiplicative_upgrades(p, 0.5, kEnv));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_XMeasureUpgradeScan)->RangeMultiplier(4)->Range(8, 1 << 12)->Complexity();

// Several rounds of the greedy planner (each round scans all machines).
void BM_GreedyUpgradePlan(benchmark::State& state) {
  const auto speeds = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::greedy_upgrade_plan(speeds, core::UpgradeKind::kMultiplicative, 0.5, 8, kEnv));
  }
}
BENCHMARK(BM_GreedyUpgradePlan)->RangeMultiplier(4)->Range(8, 1 << 10);

void BM_Hecr(benchmark::State& state) {
  const core::Profile p{random_speeds(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hecr(p, kEnv));
  }
}
BENCHMARK(BM_Hecr)->RangeMultiplier(8)->Range(8, 1 << 15);

void BM_ElementarySymmetricDouble(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::elementary_symmetric(std::span<const double>{rho}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ElementarySymmetricDouble)
    ->RangeMultiplier(4)
    ->Range(8, 512)
    ->Complexity(benchmark::oNSquared);

void BM_ElementarySymmetricExact(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::elementary_symmetric_exact(rho));
  }
}
BENCHMARK(BM_ElementarySymmetricExact)->Arg(4)->Arg(8)->Arg(16);

void BM_SymmetricFunctionPredictor(benchmark::State& state) {
  const core::Profile p1{random_speeds(static_cast<std::size_t>(state.range(0)))};
  const core::Profile p2{random_speeds(static_cast<std::size_t>(state.range(0)) + 1000)};
  // Same-size profiles required; rebuild p2 at the right size.
  const core::Profile q2{random_speeds(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::symmetric_function_predictor(p1, q2));
  }
}
BENCHMARK(BM_SymmetricFunctionPredictor)->Arg(4)->Arg(8)->Arg(16);

void BM_FifoAllocations(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::fifo_allocations(rho, kEnv, 1000.0));
  }
}
BENCHMARK(BM_FifoAllocations)->RangeMultiplier(8)->Range(8, 1 << 12);

void BM_ProtocolLpExact(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  const auto orders = protocol::ProtocolOrders::lifo(rho.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::solve_protocol_lp(rho, kEnv, 100.0, orders));
  }
}
BENCHMARK(BM_ProtocolLpExact)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_SimulateFifoEpisode(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  const auto allocations = protocol::fifo_allocations(rho, kEnv, 500.0);
  const auto orders = protocol::ProtocolOrders::fifo(rho.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_worksharing(rho, kEnv, allocations, orders));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateFifoEpisode)->RangeMultiplier(8)->Range(8, 1 << 12);

// The Section-4.3 Monte-Carlo sweep (equal-mean pair -> variance -> HECRs),
// parallelized over the pool; dominated by per-trial sampling + HECR math.
void BM_VariancePredictorSweep(benchmark::State& state) {
  static parallel::ThreadPool pool;  // shared across iterations; sized to hw
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        experiments::variance_predictor_experiment(n, 2048, kBenchSeed, kEnv, pool));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_VariancePredictorSweep)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// Batched X+W+HECR over a block of profiles: the fused x_and_log1p sweep
// shares loads and denominators, so a batch costs little more than the X
// pass alone.  Batch of 64 profiles, n machines each.
void BM_BatchEvaluateFused(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> profiles(64);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles[i] = random_speeds(n + 4000 + i);
    profiles[i].resize(n);
  }
  std::vector<std::span<const double>> views(profiles.begin(), profiles.end());
  core::BatchRequest request;
  request.x = true;
  request.work_rate = true;
  request.hecr = true;
  std::vector<core::ProfileMeasures> out(views.size());
  for (auto _ : state) {
    core::batch_evaluate_into(views, kEnv, request, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(views.size()));
}
BENCHMARK(BM_BatchEvaluateFused)->Arg(16)->Arg(64)->Arg(256);

// A sweep-shaped chain of exact LP re-solves through LpResolver: each cell
// warm-starts from its neighbour's optimal basis instead of re-running
// phase 1 + full pivoting from scratch.
void BM_LpResolverWarmSweep(benchmark::State& state) {
  const auto rho = random_speeds(static_cast<std::size_t>(state.range(0)));
  const auto orders = protocol::ProtocolOrders::fifo(rho.size());
  for (auto _ : state) {
    protocol::LpResolver resolver;
    for (int step = 0; step < 12; ++step) {
      benchmark::DoNotOptimize(
          resolver.solve(rho, kEnv, 80.0 + 2.5 * step, orders));
    }
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_LpResolverWarmSweep)->Arg(3)->Arg(4)->Arg(6);

// The planning service's request path, in-process (no sockets): HTTP
// routing + JSON parse + fingerprint + sharded-cache probe.  Cached is the
// steady-state hot path (every probe hits); Cold forces a miss on every
// request (tiny cache + a rotating profile set), so the pair bounds what
// the plan cache is worth per query.
void BM_ServeXCached(benchmark::State& state) {
  service::Planner planner;
  service::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/x";
  request.version = "HTTP/1.1";
  request.body = service_profile_body(static_cast<std::size_t>(state.range(0)), 0);
  benchmark::DoNotOptimize(planner.handle(request));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.handle(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeXCached)->Arg(4)->Arg(64);

void BM_ServeXCold(benchmark::State& state) {
  service::PlannerConfig config;
  config.cache_capacity = 2;  // evicted long before a profile comes around again
  config.cache_shards = 1;
  service::Planner planner{config};
  constexpr std::size_t kDistinct = 512;
  std::vector<std::string> bodies;
  bodies.reserve(kDistinct);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    bodies.push_back(service_profile_body(static_cast<std::size_t>(state.range(0)), i));
  }
  service::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/x";
  request.version = "HTTP/1.1";
  std::size_t next = 0;
  for (auto _ : state) {
    request.body = bodies[next];
    next = (next + 1) % kDistinct;
    benchmark::DoNotOptimize(planner.handle(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeXCold)->Arg(4)->Arg(64);

void BM_EqualMeanPairSampling(benchmark::State& state) {
  random::Xoshiro256StarStar rng{11};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random::equal_mean_pair(n, rng));
  }
}
BENCHMARK(BM_EqualMeanPairSampling)->RangeMultiplier(8)->Range(8, 1 << 12);

// What the experiment drivers' plain overloads pay for running through
// runner::run_units: a serial, unjournaled run of trivial units, so the time
// is the runner's own (token setup, causal span, flight-recorder events,
// payload vector).  unit_time is per unit; Arg(1) adds the per-run fixed
// cost.  The span collector is cleared once per run (it is unbounded).
void BM_RunUnitsSerial(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  const auto trivial = [](std::size_t, const core::CancelToken&) { return std::string{}; };
  runner::RunContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner::run_units(ctx, "unit", units, trivial));
    obs::SpanCollector::global().clear();
  }
  const auto total = static_cast<double>(state.iterations()) * static_cast<double>(units);
  state.counters["unit_time"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RunUnitsSerial)->Arg(1)->Arg(256);

}  // namespace
