// Cross-layer checks that the instrumented subsystems actually feed the
// metrics registry: sim engine, thread pool, exact LP solver, campaigns.
// Everything asserts on before/after deltas so test order (and other tests
// in this binary touching the same global registry) cannot interfere.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/experiments/campaign.h"
#include "hetero/numeric/matrix.h"
#include "hetero/numeric/simplex.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/scope.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/sim/engine.h"

namespace hetero {
namespace {

class InstrumentationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) GTEST_SKIP() << "metrics disabled in this build";
  }

  static std::uint64_t counter_value(const std::string& name) {
    return obs::Registry::global().counter(name).value();
  }
  static std::uint64_t histogram_count(const std::string& name) {
    return obs::Registry::global().histogram(name).sample(name).count;
  }
};

TEST_F(InstrumentationTest, SimEngineCountsEventsAndTimeAdvances) {
  const std::uint64_t events_before = counter_value("sim.events");
  const std::uint64_t runs_before = counter_value("sim.runs");
  const std::uint64_t advances_before = histogram_count("sim.time_advance");

  sim::SimEngine engine;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<double>(i), [&fired] { ++fired; });
  }
  engine.run();

  EXPECT_EQ(fired, 5);
  EXPECT_EQ(counter_value("sim.events") - events_before, 5u);
  EXPECT_EQ(counter_value("sim.runs") - runs_before, 1u);
  EXPECT_EQ(histogram_count("sim.time_advance") - advances_before, 5u);
  EXPECT_EQ(engine.calendar_depth_high_water(), 5u);
  EXPECT_GE(obs::Registry::global().gauge("sim.calendar_depth_hwm").value(), 5.0);
}

TEST_F(InstrumentationTest, ThreadPoolRecordsTasksWaitAndRunLatency) {
  const std::uint64_t tasks_before = counter_value("parallel.tasks");
  const std::uint64_t busy_before = counter_value("parallel.worker_busy_ns");
  const std::uint64_t waits_before = histogram_count("parallel.task_wait_us");
  const std::uint64_t runs_before = histogram_count("parallel.task_run_us");

  constexpr std::uint64_t kTasks = 32;
  {
    parallel::ThreadPool pool{2};
    std::vector<std::future<int>> futures;
    futures.reserve(kTasks);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([i] { return static_cast<int>(i); }));
    }
    for (auto& future : futures) future.get();
  }

  EXPECT_EQ(counter_value("parallel.tasks") - tasks_before, kTasks);
  EXPECT_EQ(histogram_count("parallel.task_wait_us") - waits_before, kTasks);
  EXPECT_EQ(histogram_count("parallel.task_run_us") - runs_before, kTasks);
  EXPECT_GE(counter_value("parallel.worker_busy_ns"), busy_before);
  EXPECT_GE(obs::Registry::global().gauge("parallel.queue_depth_hwm").value(), 1.0);
}

TEST_F(InstrumentationTest, SimplexSolveRecordsPivotsPerPhaseAndEntryWidth) {
  const char* const names[] = {"lp.solves",          "lp.pivots",          "lp.phase1_pivots",
                               "lp.phase2_pivots",   "lp.install_pivots", "lp.cleanup_pivots"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(counter_value(name));
  const auto moved = [&](std::size_t k) { return counter_value(names[k]) - before[k]; };
  const std::uint64_t widths_before = histogram_count("lp.max_entry_bits");

  // maximize x + y st x <= 2, y <= 3 — two phase-2 pivots, optimum 5.
  numeric::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  const std::vector<double> b{2.0, 3.0};
  const std::vector<double> c{1.0, 1.0};
  const auto cold = numeric::SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(cold.status, numeric::LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(cold.objective, 5.0);
  EXPECT_EQ(moved(0), 1u);
  EXPECT_EQ(moved(1), static_cast<std::uint64_t>(cold.iterations));
  EXPECT_EQ(moved(2), 0u);  // no negative rhs, no phase 1
  EXPECT_EQ(moved(3), static_cast<std::uint64_t>(cold.iterations));
  EXPECT_EQ(moved(4), 0u);
  EXPECT_EQ(histogram_count("lp.max_entry_bits") - widths_before, 1u);

  // Re-solving from its own basis pivots that basis in (install), then
  // finds nothing left to do; lp.pivots does not count install pivots.
  const auto warm = numeric::SimplexSolver{}.maximize(c, a, b, cold.basis);
  ASSERT_TRUE(warm.warm_started);
  EXPECT_EQ(moved(0), 2u);
  EXPECT_EQ(moved(1), static_cast<std::uint64_t>(cold.iterations));
  EXPECT_EQ(moved(4), 2u);

  // x >= 1 as -x <= -1 puts phase 1 to work.
  const std::vector<double> b_phase1{2.0, -1.0};
  numeric::Matrix a_phase1(2, 2);
  a_phase1(0, 0) = 1.0;
  a_phase1(1, 0) = -1.0;
  const auto two_phase = numeric::SimplexSolver{}.maximize(c, a_phase1, b_phase1);
  ASSERT_EQ(two_phase.status, numeric::LpStatus::kUnbounded);  // y is free to grow
  EXPECT_GT(moved(2), 0u);
  EXPECT_EQ(moved(1), moved(2) + moved(3));
  EXPECT_EQ(moved(5), 0u);
}

TEST_F(InstrumentationTest, ProtocolLpSolveLeavesAWallClockSpan) {
  obs::SpanCollector::global().clear();
  const core::Environment env = core::Environment::paper_default();
  const std::vector<double> speeds{1.0, 0.5};
  const auto result =
      protocol::solve_protocol_lp(speeds, env, 100.0, protocol::ProtocolOrders::fifo(2));
  EXPECT_EQ(result.status, numeric::LpStatus::kOptimal);

  bool found = false;
  for (const obs::Span& span : obs::SpanCollector::global().snapshot()) {
    if (std::string{span.name} == "protocol.solve_lp") {
      found = true;
      EXPECT_LE(span.start_ns, span.end_ns);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(InstrumentationTest, CampaignRecordsRoundsWorkAndAttrition) {
  const std::uint64_t campaigns_before = counter_value("experiments.campaigns");
  const std::uint64_t rounds_before = counter_value("experiments.rounds");
  const std::uint64_t lost_before = counter_value("experiments.machines_lost");
  const std::uint64_t round_hist_before = histogram_count("experiments.round_work");
  const double completed_before =
      obs::Registry::global().gauge("experiments.completed_work").value();

  const core::Environment env = core::Environment::paper_default();
  const std::vector<double> speeds{1.0, 0.5, 0.25};
  experiments::CampaignConfig config;
  config.total_time = 400.0;
  config.round_length = 100.0;
  const std::vector<experiments::CampaignFailure> failures{{2, 150.0}};
  const auto result = experiments::run_campaign(speeds, env, config, failures);

  EXPECT_EQ(counter_value("experiments.campaigns") - campaigns_before, 1u);
  EXPECT_EQ(counter_value("experiments.rounds") - rounds_before,
            static_cast<std::uint64_t>(result.rounds));
  EXPECT_EQ(counter_value("experiments.machines_lost") - lost_before,
            static_cast<std::uint64_t>(result.machines_lost));
  EXPECT_EQ(histogram_count("experiments.round_work") - round_hist_before,
            static_cast<std::uint64_t>(result.rounds));
  EXPECT_NEAR(obs::Registry::global().gauge("experiments.completed_work").value() -
                  completed_before,
              result.completed_work, 1e-9);
  EXPECT_EQ(result.machines_lost, 1u);
}

}  // namespace
}  // namespace hetero
