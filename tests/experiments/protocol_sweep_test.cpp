#include "hetero/experiments/protocol_sweep.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "hetero/parallel/thread_pool.h"
#include "hetero/protocol/fifo.h"
#include "hetero/runner/runner.h"

namespace hetero::experiments {
namespace {

const core::Environment kEnv = core::Environment::paper_default();
const std::vector<double> kSpeeds{1.0, 0.5, 0.25, 0.125};

ProtocolSweepConfig small_grid() {
  ProtocolSweepConfig config;
  config.lifespan = 100.0;
  config.crash_rates = {0.0, 0.01};
  config.straggler_factors = {1.0, 2.0};
  config.trials = 2;
  config.seed = 7;
  return config;
}

TEST(ProtocolSweep, GridIsRowMajorProtocolByCrashByFactor) {
  const auto result = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  ASSERT_EQ(result.cells.size(), 4u * 2u * 2u);
  std::size_t i = 0;
  for (protocol::ProtocolKind kind :
       {protocol::ProtocolKind::kFifo, protocol::ProtocolKind::kReactiveFifo,
        protocol::ProtocolKind::kReplicated, protocol::ProtocolKind::kMds}) {
    for (double rate : {0.0, 0.01}) {
      for (double factor : {1.0, 2.0}) {
        EXPECT_EQ(result.cells[i].protocol, kind);
        EXPECT_DOUBLE_EQ(result.cells[i].crash_rate, rate);
        EXPECT_DOUBLE_EQ(result.cells[i].straggler_factor, factor);
        EXPECT_EQ(result.cells[i].work_target, result.work_target);
        ++i;
      }
    }
  }
  EXPECT_NEAR(result.work_target,
              0.6 * protocol::fifo_total_work(kSpeeds, kEnv, 100.0), 1e-9);
}

TEST(ProtocolSweep, SizingsAreReportedAndValid) {
  const auto result = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  std::string why;
  EXPECT_TRUE(result.replicated.allocation.valid(kSpeeds.size(), &why)) << why;
  EXPECT_TRUE(result.mds.allocation.valid(kSpeeds.size(), &why)) << why;
  EXPECT_EQ(result.replicated.allocation.kind, protocol::ProtocolKind::kReplicated);
  EXPECT_EQ(result.mds.allocation.kind, protocol::ProtocolKind::kMds);
}

TEST(ProtocolSweep, CellInvariantsHold) {
  const auto config = small_grid();
  const auto result = run_protocol_sweep(kSpeeds, kEnv, config);
  for (const ProtocolSweepCell& cell : result.cells) {
    EXPECT_GE(cell.hit_rate, 0.0);
    EXPECT_LE(cell.hit_rate, 1.0);
    EXPECT_GT(cell.mean_makespan, 0.0);
    EXPECT_LE(cell.mean_makespan, config.lifespan * (1.0 + 1e-9));
    EXPECT_GE(cell.mean_completed_work, 0.0);
    if (cell.protocol == protocol::ProtocolKind::kFifo ||
        cell.protocol == protocol::ProtocolKind::kReactiveFifo) {
      EXPECT_EQ(cell.mean_redundant_issued, 0.0);  // no redundancy issued
    }
    if (cell.protocol != protocol::ProtocolKind::kReactiveFifo) {
      EXPECT_EQ(cell.mean_replans, 0.0);
    }
  }
  // In the calm cell (no crashes, no stragglers) fifo and reactive coincide:
  // nothing to detect means nothing to replan.
  const ProtocolSweepCell& fifo_calm = result.cells[0];
  const ProtocolSweepCell& reactive_calm = result.cells[4];
  EXPECT_EQ(fifo_calm.mean_makespan, reactive_calm.mean_makespan);  // bitwise
  EXPECT_EQ(fifo_calm.mean_completed_work, reactive_calm.mean_completed_work);
}

TEST(ProtocolSweep, DeterministicAndPooledBitIdentical) {
  const auto serial = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  const auto again = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  parallel::ThreadPool pool{3};
  runner::RunContext ctx;
  ctx.pool = &pool;
  const auto pooled = run_protocol_sweep(kSpeeds, kEnv, small_grid(), ctx);
  ASSERT_EQ(serial.cells.size(), again.cells.size());
  ASSERT_EQ(serial.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    for (const auto* other : {&again.cells[i], &pooled.cells[i]}) {
      EXPECT_EQ(serial.cells[i].mean_makespan, other->mean_makespan);  // bitwise
      EXPECT_EQ(serial.cells[i].hit_rate, other->hit_rate);
      EXPECT_EQ(serial.cells[i].mean_completed_work, other->mean_completed_work);
      EXPECT_EQ(serial.cells[i].mean_redundant_issued, other->mean_redundant_issued);
      EXPECT_EQ(serial.cells[i].mean_redundant_cancelled, other->mean_redundant_cancelled);
      EXPECT_EQ(serial.cells[i].mean_redundant_wasted, other->mean_redundant_wasted);
      EXPECT_EQ(serial.cells[i].mean_replans, other->mean_replans);
      EXPECT_EQ(serial.cells[i].mean_crashes, other->mean_crashes);
    }
  }
  EXPECT_EQ(protocol_sweep_csv(serial), protocol_sweep_csv(pooled));  // byte-identical
}

TEST(ProtocolSweep, ProtocolAxisIsConfigurable) {
  auto config = small_grid();
  config.protocols = {protocol::ProtocolKind::kReplicated};
  const auto result = run_protocol_sweep(kSpeeds, kEnv, config);
  ASSERT_EQ(result.cells.size(), 4u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.protocol, protocol::ProtocolKind::kReplicated);
  }
  // Same fault cells as the full axis: the replicated rows of the full sweep
  // are bit-identical (fault seeds do not depend on the protocol axis).
  const auto full = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.cells[i].mean_makespan, full.cells[8 + i].mean_makespan);  // bitwise
    EXPECT_EQ(result.cells[i].mean_completed_work, full.cells[8 + i].mean_completed_work);
  }
}

TEST(ProtocolSweep, RejectsDegenerateConfigs) {
  auto config = small_grid();
  config.lifespan = 0.0;
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.work_fraction = 0.0;
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.work_fraction = 1.5;
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.protocols.clear();
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.crash_rates.clear();
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  config = small_grid();
  config.trials = 0;
  EXPECT_THROW((void)run_protocol_sweep(kSpeeds, kEnv, config), std::invalid_argument);
  EXPECT_THROW((void)run_protocol_sweep(std::vector<double>{}, kEnv, small_grid()),
               std::invalid_argument);
}

TEST(ProtocolSweep, CsvHasStableHeaderAndOneRowPerCell) {
  const auto result = run_protocol_sweep(kSpeeds, kEnv, small_grid());
  const std::string csv = protocol_sweep_csv(result);
  EXPECT_EQ(csv.rfind("protocol,crash_rate,straggler_factor,work_target,mean_makespan,"
                      "hit_rate,mean_completed_work,mean_redundant_issued,"
                      "mean_redundant_cancelled,mean_redundant_wasted,mean_replans,"
                      "mean_crashes\n",
                      0),
            0u);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, result.cells.size() + 1);
  const std::string table = format_protocol_sweep(result);
  EXPECT_NE(table.find("replicated"), std::string::npos);
  EXPECT_NE(table.find("mds"), std::string::npos);
}

}  // namespace
}  // namespace hetero::experiments
