#include "hetero/experiments/fault_sweep.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hetero/parallel/thread_pool.h"
#include "hetero/protocol/fifo.h"
#include "hetero/runner/runner.h"

namespace hetero::experiments {
namespace {

const core::Environment kEnv = core::Environment::paper_default();
const std::vector<double> kSpeeds{1.0, 0.5, 0.25, 0.125};

FaultSweepConfig small_grid() {
  FaultSweepConfig config;
  config.lifespan = 100.0;
  config.crash_rates = {0.0, 0.01};
  config.straggler_factors = {1.0, 2.0};
  config.trials = 2;
  config.seed = 7;
  return config;
}

TEST(FaultSweep, GridShapeIsRowMajorCrashByFactor) {
  const auto result = run_fault_sweep(kSpeeds, kEnv, small_grid());
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(result.cells[0].crash_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.cells[0].straggler_factor, 1.0);
  EXPECT_DOUBLE_EQ(result.cells[1].crash_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.cells[1].straggler_factor, 2.0);
  EXPECT_DOUBLE_EQ(result.cells[2].crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(result.cells[2].straggler_factor, 1.0);
  EXPECT_DOUBLE_EQ(result.cells[3].crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(result.cells[3].straggler_factor, 2.0);
}

TEST(FaultSweep, FaultFreeCellShowsNoDegradation) {
  const auto result = run_fault_sweep(kSpeeds, kEnv, small_grid());
  const FaultSweepCell& calm = result.cells[0];  // rate 0, factor 1
  const double fault_free = protocol::fifo_total_work(kSpeeds, kEnv, 100.0);
  EXPECT_NEAR(calm.fault_free_work, fault_free, 1e-6);
  EXPECT_NEAR(calm.oblivious_work, fault_free, 1e-3);
  EXPECT_NEAR(calm.reactive_work, fault_free, 1e-3);
  EXPECT_NEAR(calm.oblivious_degradation, 0.0, 1e-6);
  EXPECT_NEAR(calm.reactive_degradation, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(calm.mean_crashes, 0.0);
  EXPECT_DOUBLE_EQ(calm.mean_replans, 0.0);
}

TEST(FaultSweep, PooledRunContextBitIdenticalToPlain) {
  // Cells fan out over a 3-thread pool; seeds depend only on
  // (config.seed, cell index), so scheduling cannot change the numbers.
  const auto serial = run_fault_sweep(kSpeeds, kEnv, small_grid());
  parallel::ThreadPool pool{3};
  runner::RunContext ctx;
  ctx.pool = &pool;
  const auto pooled = run_fault_sweep(kSpeeds, kEnv, small_grid(), ctx);
  ASSERT_EQ(serial.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].crash_rate, pooled.cells[i].crash_rate);
    EXPECT_EQ(serial.cells[i].straggler_factor, pooled.cells[i].straggler_factor);
    EXPECT_EQ(serial.cells[i].oblivious_work, pooled.cells[i].oblivious_work);  // bitwise
    EXPECT_EQ(serial.cells[i].reactive_work, pooled.cells[i].reactive_work);
    EXPECT_EQ(serial.cells[i].mean_crashes, pooled.cells[i].mean_crashes);
    EXPECT_EQ(serial.cells[i].mean_replans, pooled.cells[i].mean_replans);
  }
}

TEST(FaultSweep, SweepIsDeterministicInSeed) {
  const auto a = run_fault_sweep(kSpeeds, kEnv, small_grid());
  const auto b = run_fault_sweep(kSpeeds, kEnv, small_grid());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].oblivious_work, b.cells[i].oblivious_work);  // bitwise
    EXPECT_EQ(a.cells[i].reactive_work, b.cells[i].reactive_work);
    EXPECT_EQ(a.cells[i].mean_crashes, b.cells[i].mean_crashes);
    EXPECT_EQ(a.cells[i].mean_replans, b.cells[i].mean_replans);
  }
}

TEST(FaultSweep, DegradationsAreConsistentWithWork) {
  const auto result = run_fault_sweep(kSpeeds, kEnv, small_grid());
  for (const FaultSweepCell& cell : result.cells) {
    EXPECT_GT(cell.fault_free_work, 0.0);
    EXPECT_NEAR(cell.oblivious_degradation, 1.0 - cell.oblivious_work / cell.fault_free_work,
                1e-12);
    EXPECT_NEAR(cell.reactive_degradation, 1.0 - cell.reactive_work / cell.fault_free_work,
                1e-12);
    EXPECT_LE(cell.oblivious_work, cell.fault_free_work + 1e-6);
    EXPECT_LE(cell.reactive_work, cell.fault_free_work + 1e-6);
  }
}

TEST(FaultSweep, RejectsDegenerateConfigs) {
  FaultSweepConfig config = small_grid();
  config.lifespan = 0.0;
  EXPECT_THROW((void)run_fault_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.crash_rates.clear();
  EXPECT_THROW((void)run_fault_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.trials = 0;
  EXPECT_THROW((void)run_fault_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  EXPECT_THROW((void)run_fault_sweep(std::vector<double>{}, kEnv, small_grid()),
               std::invalid_argument);
}

TEST(FaultSweep, FormatterListsEveryCell) {
  const auto result = run_fault_sweep(kSpeeds, kEnv, small_grid());
  const std::string table = format_fault_sweep(result);
  EXPECT_NE(table.find("crash"), std::string::npos);
  EXPECT_NE(table.find("oblivious"), std::string::npos);
  EXPECT_NE(table.find("reactive"), std::string::npos);
  std::size_t lines = 0;
  for (char c : table) lines += c == '\n';
  EXPECT_GE(lines, result.cells.size());  // at least one row per cell
}

}  // namespace
}  // namespace hetero::experiments
