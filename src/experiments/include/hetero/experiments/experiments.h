#pragma once

// One entry point per paper table/figure/empirical claim.  Bench binaries
// and integration tests share these so "what the paper did" lives in exactly
// one place.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hetero/core/hetero.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/runner/runner.h"
#include "hetero/stats/moments.h"

namespace hetero::experiments {

// ---------------------------------------------------------------- Table 3

struct HecrRow {
  std::size_t n = 0;
  double hecr_linear = 0.0;    ///< cluster C1, profile <1 - (i-1)/n>
  double hecr_harmonic = 0.0;  ///< cluster C2, profile <1/i>
  double ratio = 0.0;          ///< hecr_linear / hecr_harmonic ("work advantage")
};

/// Reproduces Table 3 for the given cluster sizes (the paper uses 8/16/32),
/// serially with no journal: forwards to the RunContext overload.
[[nodiscard]] std::vector<HecrRow> hecr_table(const std::vector<std::size_t>& sizes,
                                              const core::Environment& env);

/// The table's one body: one runner work unit per cluster size — journaled,
/// cancellable, and speculative via ctx.  Each row is a pure function of its
/// size, so the rows are bit-identical for any pool size.
[[nodiscard]] std::vector<HecrRow> hecr_table(const std::vector<std::size_t>& sizes,
                                              const core::Environment& env,
                                              runner::RunContext& ctx);

/// Journal identity for the Table-3 run (fingerprint covers sizes + env).
[[nodiscard]] runner::JournalHeader hecr_journal_header(const std::vector<std::size_t>& sizes,
                                                        const core::Environment& env);

// ---------------------------------------------------------------- Table 4

struct AdditiveSpeedupRow {
  std::size_t power_index = 0;        ///< which machine was sped up (0 = slowest)
  std::vector<double> profile_after;  ///< P^(i)
  double work_ratio = 0.0;            ///< W(L; P^(i)) / W(L; P)
};

/// Reproduces Table 4: speed each machine of `profile` up additively by phi
/// and report the work ratios.  Theorem 3 predicts the ratios increase with
/// the power index (fastest machine is the best upgrade).
[[nodiscard]] std::vector<AdditiveSpeedupRow> additive_speedup_table(
    const core::Profile& profile, double phi, const core::Environment& env);

// ----------------------------------------------------------- Figures 3/4

struct MultiplicativeRound {
  int round = 0;                      ///< 1-based, matching the paper's narration
  std::size_t machine = 0;            ///< machine identity upgraded this round
  double rho_before = 0.0;
  std::vector<double> speeds_after;   ///< by machine identity (bar heights)
  double x_after = 0.0;
  /// True when the chosen machine was strictly faster than the slowest one —
  /// i.e. the round was governed by Theorem 4's condition (1); false when
  /// the slowest machine was chosen (condition (2) or the homogeneous
  /// tie-break).
  bool condition1_regime = false;
};

/// The Figure 3/4 experiment: start from `initial_speeds` and apply `rounds`
/// greedy multiplicative upgrades with factor psi, recording for each round
/// which Theorem-4 regime governed the choice.
[[nodiscard]] std::vector<MultiplicativeRound> multiplicative_speedup_experiment(
    std::vector<double> initial_speeds, double psi, int rounds, const core::Environment& env);

// -------------------------------------------------------- Section 4.3 (a)

struct VariancePredictorResult {
  std::size_t n = 0;
  std::size_t trials = 0;
  std::size_t good = 0;          ///< larger variance had smaller HECR (predictor right)
  std::size_t bad = 0;           ///< predictor wrong
  std::size_t skipped = 0;       ///< variance gap below resolution; not scored
  stats::OnlineMoments hecr_gap_when_good;  ///< |HECR1 - HECR2| on good pairs
  stats::OnlineMoments hecr_gap_when_bad;   ///< ... on bad pairs (paper: "rather small")
  [[nodiscard]] double bad_fraction() const noexcept;
};

/// Monte-Carlo estimate of how often variance predicts the more powerful of
/// two equal-mean random clusters (Section 4.3's "good"/"bad" pairs).
/// Trials are distributed over the pool.  Only the integer tallies (good,
/// bad, skipped, trials) are deterministic in (n, trials, seed): the moment
/// states are merged per pool chunk, and the chunks follow
/// pool.thread_count(), so their last bits depend on the pool size.  The
/// RunContext overload below is the bit-reproducible one.
[[nodiscard]] VariancePredictorResult variance_predictor_experiment(
    std::size_t n, std::size_t trials, std::uint64_t seed, const core::Environment& env,
    parallel::ThreadPool& pool);

/// Robust overload: trials run as `batch_size`-trial work units whose
/// partials (counts + raw moment states) are journaled bit-exactly and
/// reduced in batch order, so the result is bit-identical for any ctx.pool
/// (or none), and an interrupted run resumes to the exact aggregates an
/// uninterrupted run produces.  Trial seeds depend only on
/// (seed, trial index), never on batch boundaries or execution order.
[[nodiscard]] VariancePredictorResult variance_predictor_experiment(
    std::size_t n, std::size_t trials, std::uint64_t seed, const core::Environment& env,
    runner::RunContext& ctx, std::size_t batch_size = 1024);

/// Journal identity for the Section-4.3(a) run.
[[nodiscard]] runner::JournalHeader variance_predictor_journal_header(
    std::size_t n, std::size_t trials, std::uint64_t seed, const core::Environment& env,
    std::size_t batch_size = 1024);

// -------------------------------------------------------- Section 4.3 (b)

struct ThresholdBin {
  double gap_lo = 0.0;
  double gap_hi = 0.0;
  std::size_t trials = 0;
  std::size_t correct = 0;
  [[nodiscard]] double accuracy() const noexcept {
    return trials == 0 ? 1.0 : static_cast<double>(correct) / static_cast<double>(trials);
  }
};

struct ThresholdSearchResult {
  std::vector<ThresholdBin> bins;   ///< accuracy as a function of variance gap
  double smallest_perfect_gap = 0.0; ///< lower edge of the first bin from which on
                                     ///< every bin is 100% correct (the paper's theta)
};

/// Sweeps variance gaps and measures predictor accuracy per gap bin,
/// reporting the empirical threshold theta.  Pairs are shift-matched
/// iid-uniform profiles with a random mean-preserving stretch, so realized
/// gaps cover [0, gap_max] with naturalistic shapes (a symmetric two-point
/// construction makes the prediction trivially perfect at every gap).
[[nodiscard]] ThresholdSearchResult variance_threshold_search(
    std::size_t n, std::size_t trials_per_bin, std::size_t bins, double gap_max,
    std::uint64_t seed, const core::Environment& env, parallel::ThreadPool& pool);

/// Robust overload: trial batches journal integer per-bin (trials, correct)
/// deltas; integer sums are order-independent, so resumed and uninterrupted
/// runs agree exactly.
[[nodiscard]] ThresholdSearchResult variance_threshold_search(
    std::size_t n, std::size_t trials_per_bin, std::size_t bins, double gap_max,
    std::uint64_t seed, const core::Environment& env, runner::RunContext& ctx,
    std::size_t batch_size = 1024);

/// Journal identity for the Section-4.3(b) run.
[[nodiscard]] runner::JournalHeader variance_threshold_journal_header(
    std::size_t n, std::size_t trials_per_bin, std::size_t bins, double gap_max,
    std::uint64_t seed, const core::Environment& env, std::size_t batch_size = 1024);

// ------------------------------------------------------------- Theorem 1

struct FifoOptimalityReport {
  std::size_t order_pairs = 0;
  double best_work = 0.0;
  double fifo_min_work = 0.0;  ///< min over FIFO pairs (should equal best)
  double fifo_max_work = 0.0;  ///< max over FIFO pairs (should equal best)
  std::size_t optimal_pairs = 0;  ///< order pairs within tolerance of best
  bool fifo_always_optimal = false;
  bool fifo_order_independent = false;
};

/// Exhaustive Theorem-1 validation on a small cluster: solve the fixed-order
/// LP for all (Sigma, Phi) pairs and check that FIFO pairs attain the
/// optimum regardless of startup order.
[[nodiscard]] FifoOptimalityReport fifo_optimality_report(const std::vector<double>& speeds,
                                                          const core::Environment& env,
                                                          double lifespan,
                                                          double tolerance = 1e-6);

}  // namespace hetero::experiments
