// Resume-determinism contract of the journaled experiment overloads: a run
// interrupted at any unit boundary and resumed from its journal produces
// results bit-identical to an uninterrupted run, and the ctx overloads agree
// with their plain counterparts.  Interruption is simulated by copying a
// prefix of a completed journal's records into a fresh journal and resuming
// from that.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstddef>
#include <string>
#include <vector>

#include "hetero/core/hetero.h"
#include "hetero/experiments/campaign.h"
#include "hetero/experiments/experiments.h"
#include "hetero/experiments/fault_sweep.h"
#include "hetero/experiments/protocol_sweep.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/runner/journal.h"
#include "hetero/runner/runner.h"
#include "hetero/stats/moments.h"

namespace hetero::experiments {
namespace {

namespace runner = hetero::runner;

const core::Environment kEnv = core::Environment::paper_default();
const std::vector<double> kSpeeds{1.0, 0.5, 0.25, 0.125};

FaultSweepConfig sweep_config() {
  FaultSweepConfig config;
  config.lifespan = 100.0;
  config.crash_rates = {0.0, 0.01};
  config.straggler_factors = {1.0, 2.0};
  config.trials = 2;
  config.seed = 7;
  return config;
}

void expect_same_moments(const stats::OnlineMoments& a, const stats::OnlineMoments& b) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.mean, sb.mean);  // bitwise
  EXPECT_EQ(sa.m2, sb.m2);
  EXPECT_EQ(sa.m3, sb.m3);
  EXPECT_EQ(sa.m4, sb.m4);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
}

class ResumeTest : public testing::Test {
 protected:
  void TearDown() override {
    std::remove(full_path_.c_str());
    std::remove(partial_path_.c_str());
  }

  /// Fresh journal holding only the first `keep` records of `donor` — the
  /// state a run killed after `keep` finished units leaves behind.
  runner::Journal partial_copy(const runner::Journal& donor, std::size_t keep) {
    std::remove(partial_path_.c_str());
    runner::Journal partial = runner::Journal::create(partial_path_, donor.header());
    std::size_t copied = 0;
    for (const auto& [key, payload] : donor.records()) {
      if (copied++ == keep) break;
      partial.append(key, payload);
    }
    return partial;
  }

  std::string full_path_ = testing::TempDir() + "resume_full_" +
                           testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "." + std::to_string(::getpid()) + ".journal";
  std::string partial_path_ = testing::TempDir() + "resume_partial_" +
                              testing::UnitTest::GetInstance()->current_test_info()->name() +
                              "." + std::to_string(::getpid()) + ".journal";
};

TEST_F(ResumeTest, FaultSweepPooledCtxMatchesSerialByteForByte) {
  const auto config = sweep_config();
  const std::string serial_csv = fault_sweep_csv(run_fault_sweep(kSpeeds, kEnv, config));

  parallel::ThreadPool pool{4};
  runner::RunContext ctx;
  ctx.pool = &pool;
  const std::string pooled_csv =
      fault_sweep_csv(run_fault_sweep(kSpeeds, kEnv, config, ctx));
  EXPECT_EQ(pooled_csv, serial_csv);
}

TEST_F(ResumeTest, FaultSweepResumeRecomputesOnlyMissingCells) {
  const auto config = sweep_config();
  const std::string golden_csv = fault_sweep_csv(run_fault_sweep(kSpeeds, kEnv, config));
  const runner::JournalHeader header = fault_sweep_journal_header(kSpeeds, kEnv, config);

  runner::Journal full = runner::Journal::open_or_resume(full_path_, header);
  {
    runner::RunContext ctx;
    ctx.journal = &full;
    (void)run_fault_sweep(kSpeeds, kEnv, config, ctx);
  }
  ASSERT_EQ(full.records().size(), 4u);

  runner::Journal partial = partial_copy(full, 2);
  runner::RunContext ctx;
  ctx.journal = &partial;
  std::size_t recomputed = 0;
  ctx.before_unit = [&recomputed](std::size_t, std::size_t) { ++recomputed; };
  const auto resumed = run_fault_sweep(kSpeeds, kEnv, config, ctx);

  EXPECT_EQ(recomputed, 2u);  // exactly the missing cells, no duplicates
  EXPECT_EQ(partial.records().size(), 4u);
  EXPECT_EQ(fault_sweep_csv(resumed), golden_csv);
}

TEST_F(ResumeTest, ProtocolSweepResumeReproducesTheCsvByteForByte) {
  ProtocolSweepConfig config;
  config.lifespan = 100.0;
  config.crash_rates = {0.0, 0.01};
  config.straggler_factors = {1.0, 2.0};
  config.trials = 2;
  config.seed = 7;
  const std::string golden_csv = protocol_sweep_csv(run_protocol_sweep(kSpeeds, kEnv, config));
  const runner::JournalHeader header = protocol_sweep_journal_header(kSpeeds, kEnv, config);

  runner::Journal full = runner::Journal::open_or_resume(full_path_, header);
  {
    runner::RunContext ctx;
    ctx.journal = &full;
    (void)run_protocol_sweep(kSpeeds, kEnv, config, ctx);
  }
  ASSERT_EQ(full.records().size(), 16u);  // 4 protocols x 2 rates x 2 factors

  // A run killed mid-grid leaves a journal prefix; resuming recomputes only
  // the missing cells and the CSV comes out byte-identical.
  for (std::size_t keep : {0u, 5u, 15u}) {
    runner::Journal partial = partial_copy(full, keep);
    runner::RunContext ctx;
    ctx.journal = &partial;
    std::size_t recomputed = 0;
    ctx.before_unit = [&recomputed](std::size_t, std::size_t) { ++recomputed; };
    const auto resumed = run_protocol_sweep(kSpeeds, kEnv, config, ctx);
    EXPECT_EQ(recomputed, 16u - keep);
    EXPECT_EQ(protocol_sweep_csv(resumed), golden_csv);
  }

  // The pooled ctx overload agrees too.
  parallel::ThreadPool pool{4};
  runner::RunContext pooled;
  pooled.pool = &pool;
  EXPECT_EQ(protocol_sweep_csv(run_protocol_sweep(kSpeeds, kEnv, config, pooled)), golden_csv);
}

TEST_F(ResumeTest, HecrTableResumesWithoutRecomputation) {
  const std::vector<std::size_t> sizes{4, 6, 8};
  const auto plain = hecr_table(sizes, kEnv);
  const runner::JournalHeader header = hecr_journal_header(sizes, kEnv);

  runner::Journal journal = runner::Journal::open_or_resume(full_path_, header);
  {
    runner::RunContext ctx;
    ctx.journal = &journal;
    const auto rows = hecr_table(sizes, kEnv, ctx);
    ASSERT_EQ(rows.size(), plain.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].n, plain[i].n);
      EXPECT_EQ(rows[i].hecr_linear, plain[i].hecr_linear);  // bitwise
      EXPECT_EQ(rows[i].hecr_harmonic, plain[i].hecr_harmonic);
      EXPECT_EQ(rows[i].ratio, plain[i].ratio);
    }
  }

  runner::Journal again = runner::Journal::open_or_resume(full_path_, header);
  runner::RunContext ctx;
  ctx.journal = &again;
  std::size_t recomputed = 0;
  ctx.before_unit = [&recomputed](std::size_t, std::size_t) { ++recomputed; };
  const auto rows = hecr_table(sizes, kEnv, ctx);
  EXPECT_EQ(recomputed, 0u);  // everything came from the journal
  ASSERT_EQ(rows.size(), plain.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].hecr_linear, plain[i].hecr_linear);
    EXPECT_EQ(rows[i].hecr_harmonic, plain[i].hecr_harmonic);
  }
}

TEST_F(ResumeTest, VariancePredictorResumeIsBitIdentical) {
  constexpr std::size_t kN = 6;
  constexpr std::size_t kTrials = 300;
  constexpr std::uint64_t kSeed = 11;
  constexpr std::size_t kBatch = 64;  // 5 batches
  const runner::JournalHeader header =
      variance_predictor_journal_header(kN, kTrials, kSeed, kEnv, kBatch);

  runner::Journal full = runner::Journal::open_or_resume(full_path_, header);
  VariancePredictorResult uninterrupted;
  {
    runner::RunContext ctx;
    ctx.journal = &full;
    uninterrupted = variance_predictor_experiment(kN, kTrials, kSeed, kEnv, ctx, kBatch);
  }
  ASSERT_EQ(full.records().size(), 5u);

  runner::Journal partial = partial_copy(full, 2);
  runner::RunContext ctx;
  ctx.journal = &partial;
  const auto resumed = variance_predictor_experiment(kN, kTrials, kSeed, kEnv, ctx, kBatch);

  EXPECT_EQ(resumed.trials, uninterrupted.trials);
  EXPECT_EQ(resumed.good, uninterrupted.good);
  EXPECT_EQ(resumed.bad, uninterrupted.bad);
  EXPECT_EQ(resumed.skipped, uninterrupted.skipped);
  expect_same_moments(resumed.hecr_gap_when_good, uninterrupted.hecr_gap_when_good);
  expect_same_moments(resumed.hecr_gap_when_bad, uninterrupted.hecr_gap_when_bad);

  // Integer tallies also agree with the classic thread-pool implementation.
  parallel::ThreadPool pool{4};
  const auto classic = variance_predictor_experiment(kN, kTrials, kSeed, kEnv, pool);
  EXPECT_EQ(resumed.good, classic.good);
  EXPECT_EQ(resumed.bad, classic.bad);
  EXPECT_EQ(resumed.skipped, classic.skipped);
}

TEST(VariancePredictor, RunContextResultIsIndependentOfThePool) {
  // The ThreadPool overload's moment states follow the pool's chunking;
  // the RunContext overload reduces fixed-size batches in batch order, so
  // serial and pooled runs agree bit for bit.
  constexpr std::size_t kN = 8;
  constexpr std::size_t kTrials = 4000;
  constexpr std::uint64_t kSeed = 42;
  constexpr std::size_t kBatch = 256;  // 16 batches
  runner::RunContext serial;
  const auto expected = variance_predictor_experiment(kN, kTrials, kSeed, kEnv, serial, kBatch);
  parallel::ThreadPool pool{3};
  runner::RunContext pooled;
  pooled.pool = &pool;
  const auto actual = variance_predictor_experiment(kN, kTrials, kSeed, kEnv, pooled, kBatch);

  EXPECT_EQ(actual.trials, expected.trials);
  EXPECT_EQ(actual.good, expected.good);
  EXPECT_EQ(actual.bad, expected.bad);
  EXPECT_EQ(actual.skipped, expected.skipped);
  expect_same_moments(actual.hecr_gap_when_good, expected.hecr_gap_when_good);
  expect_same_moments(actual.hecr_gap_when_bad, expected.hecr_gap_when_bad);
}

TEST_F(ResumeTest, ThresholdSearchResumeIsBitIdentical) {
  constexpr std::size_t kN = 6;
  constexpr std::size_t kTrialsPerBin = 40;
  constexpr std::size_t kBins = 5;
  constexpr double kGapMax = 0.05;
  constexpr std::uint64_t kSeed = 13;
  constexpr std::size_t kBatch = 50;
  const runner::JournalHeader header =
      variance_threshold_journal_header(kN, kTrialsPerBin, kBins, kGapMax, kSeed, kEnv, kBatch);

  runner::Journal full = runner::Journal::open_or_resume(full_path_, header);
  ThresholdSearchResult uninterrupted;
  {
    runner::RunContext ctx;
    ctx.journal = &full;
    uninterrupted =
        variance_threshold_search(kN, kTrialsPerBin, kBins, kGapMax, kSeed, kEnv, ctx, kBatch);
  }
  ASSERT_GE(full.records().size(), 2u);

  runner::Journal partial = partial_copy(full, 1);
  runner::RunContext ctx;
  ctx.journal = &partial;
  const auto resumed =
      variance_threshold_search(kN, kTrialsPerBin, kBins, kGapMax, kSeed, kEnv, ctx, kBatch);

  EXPECT_EQ(resumed.smallest_perfect_gap, uninterrupted.smallest_perfect_gap);
  ASSERT_EQ(resumed.bins.size(), uninterrupted.bins.size());
  for (std::size_t i = 0; i < resumed.bins.size(); ++i) {
    EXPECT_EQ(resumed.bins[i].gap_lo, uninterrupted.bins[i].gap_lo);
    EXPECT_EQ(resumed.bins[i].gap_hi, uninterrupted.bins[i].gap_hi);
    EXPECT_EQ(resumed.bins[i].trials, uninterrupted.bins[i].trials);
    EXPECT_EQ(resumed.bins[i].correct, uninterrupted.bins[i].correct);
  }
}

TEST_F(ResumeTest, CampaignResumeContinuesFromTheExactFleetState) {
  const CampaignConfig config{.total_time = 400.0, .round_length = 100.0};
  const std::vector<CampaignFailure> failures{{3, 110.0}, {1, 250.0}};
  const auto plain = run_campaign(kSpeeds, kEnv, config, failures);
  const runner::JournalHeader header =
      campaign_journal_header(kSpeeds, kEnv, config, failures);

  runner::Journal full = runner::Journal::open_or_resume(full_path_, header);
  {
    runner::RunContext ctx;
    ctx.journal = &full;
    (void)run_campaign(kSpeeds, kEnv, config, failures, ctx);
  }
  ASSERT_EQ(full.records().size(), 4u);

  // Interrupt after two rounds; the resumed campaign must replay rounds 0-1
  // (restoring the post-crash fleet) and re-simulate rounds 2-3 identically.
  runner::Journal partial = partial_copy(full, 2);
  runner::RunContext ctx;
  ctx.journal = &partial;
  const auto resumed = run_campaign(kSpeeds, kEnv, config, failures, ctx);

  EXPECT_EQ(resumed.completed_work, plain.completed_work);  // bitwise
  EXPECT_EQ(resumed.ideal_work, plain.ideal_work);
  EXPECT_EQ(resumed.rounds, plain.rounds);
  EXPECT_EQ(resumed.machines_lost, plain.machines_lost);
  ASSERT_EQ(resumed.work_by_round.size(), plain.work_by_round.size());
  for (std::size_t r = 0; r < plain.work_by_round.size(); ++r) {
    EXPECT_EQ(resumed.work_by_round[r], plain.work_by_round[r]);
  }
  EXPECT_EQ(resumed.faults.crashes, plain.faults.crashes);
  EXPECT_EQ(resumed.faults.retries, plain.faults.retries);
  EXPECT_EQ(resumed.faults.timeouts, plain.faults.timeouts);
  ASSERT_EQ(resumed.faults.detections.size(), plain.faults.detections.size());
  for (std::size_t i = 0; i < plain.faults.detections.size(); ++i) {
    EXPECT_EQ(resumed.faults.detections[i].at, plain.faults.detections[i].at);
    EXPECT_EQ(resumed.faults.detections[i].machine, plain.faults.detections[i].machine);
  }
  ASSERT_EQ(resumed.faults.recovery_latencies.size(), plain.faults.recovery_latencies.size());
  for (std::size_t i = 0; i < plain.faults.recovery_latencies.size(); ++i) {
    EXPECT_EQ(resumed.faults.recovery_latencies[i], plain.faults.recovery_latencies[i]);
  }
}

}  // namespace
}  // namespace hetero::experiments
