#include "hetero/experiments/experiments.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "hetero/core/batch.h"
#include "hetero/core/errors.h"
#include "hetero/numeric/summation.h"
#include "hetero/parallel/parallel_for.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/random/samplers.h"
#include "hetero/runner/codec.h"

namespace hetero::experiments {

namespace {

HecrRow hecr_row_for(std::size_t n, const core::Environment& env) {
  HecrRow row;
  row.n = n;
  const core::Profile profiles[2] = {core::Profile::linear(n), core::Profile::harmonic(n)};
  const core::BatchRequest request{.x = false, .work_rate = false, .hecr = true};
  const auto measures = core::batch_evaluate(std::span<const core::Profile>{profiles}, env,
                                             request);
  row.hecr_linear = measures[0].hecr;
  row.hecr_harmonic = measures[1].hecr;
  row.ratio = row.hecr_linear / row.hecr_harmonic;
  return row;
}

void encode_moments(runner::FieldWriter& w, const stats::OnlineMoments& m) {
  const stats::OnlineMoments::State s = m.state();
  w.add_u64(s.count);
  w.add_double(s.mean);
  w.add_double(s.m2);
  w.add_double(s.m3);
  w.add_double(s.m4);
  w.add_double(s.min);
  w.add_double(s.max);
}

stats::OnlineMoments decode_moments(runner::FieldReader& r) {
  stats::OnlineMoments::State s;
  s.count = r.u64();
  s.mean = r.d();
  s.m2 = r.d();
  s.m3 = r.d();
  s.m4 = r.d();
  s.min = r.d();
  s.max = r.d();
  return stats::OnlineMoments::from_state(s);
}

}  // namespace

std::vector<HecrRow> hecr_table(const std::vector<std::size_t>& sizes,
                                const core::Environment& env) {
  runner::RunContext serial;
  return hecr_table(sizes, env, serial);
}

std::vector<HecrRow> hecr_table(const std::vector<std::size_t>& sizes,
                                const core::Environment& env, runner::RunContext& ctx) {
  const std::vector<std::string> payloads = runner::run_units(
      ctx, "size", sizes.size(), [&](std::size_t unit, const core::CancelToken& token) {
        if (token.stop_requested() || token.expired()) token.check();
        const HecrRow row = hecr_row_for(sizes[unit], env);
        runner::FieldWriter w;
        w.add_u64(row.n);
        w.add_double(row.hecr_linear);
        w.add_double(row.hecr_harmonic);
        w.add_double(row.ratio);
        return std::move(w).str();
      });

  std::vector<HecrRow> rows;
  rows.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    runner::FieldReader r{payload};
    HecrRow row;
    row.n = r.u64();
    row.hecr_linear = r.d();
    row.hecr_harmonic = r.d();
    row.ratio = r.d();
    r.expect_done();
    rows.push_back(row);
  }
  return rows;
}

runner::JournalHeader hecr_journal_header(const std::vector<std::size_t>& sizes,
                                          const core::Environment& env) {
  runner::FieldWriter w;
  for (std::size_t n : sizes) w.add_u64(n);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  runner::JournalHeader header;
  header.tool = "hecr_table";
  header.seed = 0;
  header.fingerprint = runner::fingerprint_of(std::move(w).str());
  return header;
}

std::vector<AdditiveSpeedupRow> additive_speedup_table(const core::Profile& profile, double phi,
                                                       const core::Environment& env) {
  std::vector<AdditiveSpeedupRow> rows;
  rows.reserve(profile.size());
  for (std::size_t k = 0; k < profile.size(); ++k) {
    const core::Profile upgraded = profile.with_additive_speedup(k, phi);
    AdditiveSpeedupRow row;
    row.power_index = k;
    row.profile_after.assign(upgraded.values().begin(), upgraded.values().end());
    row.work_ratio = core::work_ratio(upgraded, profile, env);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<MultiplicativeRound> multiplicative_speedup_experiment(
    std::vector<double> initial_speeds, double psi, int rounds, const core::Environment& env) {
  const std::vector<core::UpgradeStep> plan = core::greedy_upgrade_plan(
      initial_speeds, core::UpgradeKind::kMultiplicative, psi, rounds, env);
  std::vector<MultiplicativeRound> result;
  result.reserve(plan.size());
  std::vector<double> before = std::move(initial_speeds);
  int round = 1;
  for (const core::UpgradeStep& step : plan) {
    MultiplicativeRound entry;
    entry.round = round++;
    entry.machine = step.machine;
    entry.rho_before = before[step.machine];
    entry.speeds_after = step.speeds_after;
    entry.x_after = step.x_after;
    // Regime marker: condition (1) of Theorem 4 is what makes the greedy
    // pick a machine that is strictly faster than the currently slowest one;
    // when the chosen machine *is* (one of) the slowest, the round was
    // governed by condition (2) or by the homogeneous tie-break.
    const double slowest = *std::max_element(before.begin(), before.end());
    entry.condition1_regime = entry.rho_before < slowest;
    before = step.speeds_after;
    result.push_back(std::move(entry));
  }
  return result;
}

double VariancePredictorResult::bad_fraction() const noexcept {
  const std::size_t scored = good + bad;
  return scored == 0 ? 0.0 : static_cast<double>(bad) / static_cast<double>(scored);
}

namespace {

// Each chunk reuses one pair of rho buffers across all of its trials
// (equal_mean_pair_into only resizes within existing capacity), so the
// sweep performs no per-trial allocations.  Buffers are sorted into
// Profile's canonical nonincreasing order so variance/hecr accumulate in
// exactly the order the Profile-based path used.
struct TrialScratch {
  std::vector<double> first;
  std::vector<double> second;
  // Output slots for the batched HECR evaluation (no FIFO request, so the
  // batch writes plain doubles and stays allocation-free).
  std::array<core::ProfileMeasures, 2> measures;
};

// Population variance in Profile::variance's exact operation order.
double variance_of(const std::vector<double>& values) {
  const double m = numeric::compensated_sum(values) / static_cast<double>(values.size());
  numeric::NeumaierSum acc;
  for (double v : values) {
    const double d = v - m;
    acc.add(d * d);
  }
  return acc.value() / static_cast<double>(values.size());
}

// One Section-4.3(a) trial; a pure function of (n, seed, trial), shared by
// the pool and the journaled paths so their partials agree bit-for-bit.
VariancePredictorResult variance_predictor_trial(std::size_t n, std::uint64_t seed,
                                                 std::size_t trial, const core::Environment& env,
                                                 TrialScratch& scratch) {
  VariancePredictorResult partial;
  partial.n = n;
  partial.trials = 1;
  auto rng = random::Xoshiro256StarStar::for_stream(seed, trial);
  random::equal_mean_pair_into(n, rng, scratch.first, scratch.second);
  std::sort(scratch.first.begin(), scratch.first.end(), std::greater<>{});
  std::sort(scratch.second.begin(), scratch.second.end(), std::greater<>{});
  const double var1 = variance_of(scratch.first);
  const double var2 = variance_of(scratch.second);
  if (std::fabs(var1 - var2) < 1e-12) {
    partial.skipped = 1;
    return partial;
  }
  // Both clusters through one batched evaluation (same closed form as
  // core::hecr, bit for bit — see core/batch.h).
  const std::array<std::span<const double>, 2> pair = {scratch.first, scratch.second};
  const core::BatchRequest request{.x = false, .work_rate = false, .hecr = true};
  core::batch_evaluate_into(pair, env, request, scratch.measures);
  const double hecr1 = scratch.measures[0].hecr;
  const double hecr2 = scratch.measures[1].hecr;
  // "Good": the larger-variance cluster is the more powerful one, i.e.
  // has the *smaller* HECR.
  const bool larger_variance_first = var1 > var2;
  const bool more_powerful_first = hecr1 < hecr2;
  const bool good = larger_variance_first == more_powerful_first;
  if (good) {
    partial.good = 1;
    partial.hecr_gap_when_good.add(std::fabs(hecr1 - hecr2));
  } else {
    partial.bad = 1;
    partial.hecr_gap_when_bad.add(std::fabs(hecr1 - hecr2));
  }
  return partial;
}

VariancePredictorResult reduce_predictor(VariancePredictorResult acc,
                                         const VariancePredictorResult& part) {
  acc.trials += part.trials;
  acc.good += part.good;
  acc.bad += part.bad;
  acc.skipped += part.skipped;
  acc.hecr_gap_when_good.merge(part.hecr_gap_when_good);
  acc.hecr_gap_when_bad.merge(part.hecr_gap_when_bad);
  return acc;
}

}  // namespace

VariancePredictorResult variance_predictor_experiment(std::size_t n, std::size_t trials,
                                                      std::uint64_t seed,
                                                      const core::Environment& env,
                                                      parallel::ThreadPool& pool) {
  if (n < 2) throw std::invalid_argument("variance_predictor_experiment: need n >= 2");
  VariancePredictorResult init;
  init.n = n;
  const auto map = [n, seed, &env](std::size_t trial, TrialScratch& scratch) {
    return variance_predictor_trial(n, seed, trial, env, scratch);
  };
  return parallel::parallel_map_reduce_scratch(
      pool, 0, trials, init, [] { return TrialScratch{}; }, map, reduce_predictor);
}

VariancePredictorResult variance_predictor_experiment(std::size_t n, std::size_t trials,
                                                      std::uint64_t seed,
                                                      const core::Environment& env,
                                                      runner::RunContext& ctx,
                                                      std::size_t batch_size) {
  if (n < 2) throw std::invalid_argument("variance_predictor_experiment: need n >= 2");
  if (batch_size == 0) {
    throw std::invalid_argument("variance_predictor_experiment: zero batch size");
  }
  const std::size_t batches = (trials + batch_size - 1) / batch_size;

  const std::vector<std::string> payloads = runner::run_units(
      ctx, "batch", batches, [&](std::size_t batch, const core::CancelToken& token) {
        const std::size_t lo = batch * batch_size;
        const std::size_t hi = std::min(trials, lo + batch_size);
        VariancePredictorResult partial;
        partial.n = n;
        partial.trials = 0;
        TrialScratch scratch;
        for (std::size_t trial = lo; trial < hi; ++trial) {
          if (token.stop_requested() || token.expired()) token.check();
          partial = reduce_predictor(std::move(partial),
                                     variance_predictor_trial(n, seed, trial, env, scratch));
        }
        runner::FieldWriter w;
        w.add_u64(partial.trials);
        w.add_u64(partial.good);
        w.add_u64(partial.bad);
        w.add_u64(partial.skipped);
        encode_moments(w, partial.hecr_gap_when_good);
        encode_moments(w, partial.hecr_gap_when_bad);
        return std::move(w).str();
      });

  // Reduce in fixed batch order — independent of which batches were resumed
  // from the journal and which ran live.
  VariancePredictorResult result;
  result.n = n;
  for (const std::string& payload : payloads) {
    runner::FieldReader r{payload};
    VariancePredictorResult part;
    part.n = n;
    part.trials = r.u64();
    part.good = r.u64();
    part.bad = r.u64();
    part.skipped = r.u64();
    part.hecr_gap_when_good = decode_moments(r);
    part.hecr_gap_when_bad = decode_moments(r);
    r.expect_done();
    result = reduce_predictor(std::move(result), part);
  }
  return result;
}

runner::JournalHeader variance_predictor_journal_header(std::size_t n, std::size_t trials,
                                                        std::uint64_t seed,
                                                        const core::Environment& env,
                                                        std::size_t batch_size) {
  runner::FieldWriter w;
  w.add_u64(n);
  w.add_u64(trials);
  w.add_u64(batch_size);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  runner::JournalHeader header;
  header.tool = "variance_predictor";
  header.seed = seed;
  header.fingerprint = runner::fingerprint_of(std::move(w).str());
  return header;
}

namespace {

// Pair generator: shift-matched iid-uniform profiles ("natural" shapes,
// like Section 4.3(a)), with a random mean-preserving stretch applied to
// each side so realized variance gaps cover the whole [0, gap_max] range
// instead of concentrating near zero.
std::optional<random::ProfilePair> draw_stretched_pair(std::size_t n,
                                                       random::Xoshiro256StarStar& rng) {
  const random::PairSamplerConfig config;
  const random::ProfilePair base = random::equal_mean_pair(n, rng, config);
  std::vector<double> first(base.first.values().begin(), base.first.values().end());
  std::vector<double> second(base.second.values().begin(), base.second.values().end());
  const auto stretched =
      random::scale_spread(std::move(first), rng.uniform(0.6, 2.2), 0.0, config.hi);
  const auto shrunk =
      random::scale_spread(std::move(second), rng.uniform(0.1, 1.0), 0.0, config.hi);
  if (!stretched || !shrunk) return std::nullopt;
  return random::ProfilePair{core::Profile{*stretched}, core::Profile{*shrunk}};
}

// One Section-4.3(b) trial: which bin it landed in and whether the variance
// predictor got it right.  Pure function of (n, bins, gap_max, seed, trial).
std::optional<std::pair<std::size_t, bool>> threshold_trial(std::size_t n, std::size_t bins,
                                                            double gap_max, std::uint64_t seed,
                                                            std::size_t trial,
                                                            const core::Environment& env) {
  auto rng = random::Xoshiro256StarStar::for_stream(seed, trial);
  const auto pair = draw_stretched_pair(n, rng);
  if (!pair) return std::nullopt;
  const double var1 = pair->first.variance();
  const double var2 = pair->second.variance();
  const core::Profile& larger = var1 >= var2 ? pair->first : pair->second;
  const core::Profile& smaller = var1 >= var2 ? pair->second : pair->first;
  const double gap = std::fabs(var1 - var2);
  if (gap >= gap_max) return std::nullopt;
  const auto bin_index = static_cast<std::size_t>(gap / (gap_max / static_cast<double>(bins)));
  const bool correct = core::hecr(larger, env) < core::hecr(smaller, env);
  return std::pair{std::min(bin_index, bins - 1), correct};
}

ThresholdSearchResult make_threshold_bins(std::size_t bins, double gap_max) {
  ThresholdSearchResult result;
  result.bins.resize(bins);
  const double bin_width = gap_max / static_cast<double>(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    result.bins[b].gap_lo = static_cast<double>(b) * bin_width;
    result.bins[b].gap_hi = result.bins[b].gap_lo + bin_width;
  }
  return result;
}

void finish_threshold(ThresholdSearchResult& result, std::size_t bins, double gap_max) {
  // theta = lower edge of the first suffix of all-perfect bins.
  result.smallest_perfect_gap = gap_max;
  for (std::size_t b = bins; b-- > 0;) {
    if (result.bins[b].trials > 0 && result.bins[b].correct != result.bins[b].trials) break;
    result.smallest_perfect_gap = result.bins[b].gap_lo;
  }
}

void validate_threshold_args(std::size_t bins, double gap_max) {
  if (bins == 0) throw std::invalid_argument("variance_threshold_search: need >= 1 bin");
  if (!(gap_max > 0.0)) {
    throw std::invalid_argument("variance_threshold_search: gap_max must be positive");
  }
}

}  // namespace

ThresholdSearchResult variance_threshold_search(std::size_t n, std::size_t trials_per_bin,
                                                std::size_t bins, double gap_max,
                                                std::uint64_t seed,
                                                const core::Environment& env,
                                                parallel::ThreadPool& pool) {
  validate_threshold_args(bins, gap_max);
  ThresholdSearchResult result = make_threshold_bins(bins, gap_max);

  const std::size_t total_trials = trials_per_bin * bins;
  std::mutex merge_mutex;
  const auto worker = [&](std::size_t trial) {
    const auto outcome = threshold_trial(n, bins, gap_max, seed, trial, env);
    if (!outcome) return;
    std::lock_guard lock{merge_mutex};
    ThresholdBin& bin = result.bins[outcome->first];
    ++bin.trials;
    if (outcome->second) ++bin.correct;
  };
  parallel::parallel_for(pool, 0, total_trials, worker);

  finish_threshold(result, bins, gap_max);
  return result;
}

ThresholdSearchResult variance_threshold_search(std::size_t n, std::size_t trials_per_bin,
                                                std::size_t bins, double gap_max,
                                                std::uint64_t seed,
                                                const core::Environment& env,
                                                runner::RunContext& ctx,
                                                std::size_t batch_size) {
  validate_threshold_args(bins, gap_max);
  if (batch_size == 0) throw std::invalid_argument("variance_threshold_search: zero batch size");

  const std::size_t total_trials = trials_per_bin * bins;
  const std::size_t batches = (total_trials + batch_size - 1) / batch_size;

  const std::vector<std::string> payloads = runner::run_units(
      ctx, "batch", batches, [&](std::size_t batch, const core::CancelToken& token) {
        const std::size_t lo = batch * batch_size;
        const std::size_t hi = std::min(total_trials, lo + batch_size);
        std::vector<std::uint64_t> trials_by_bin(bins, 0);
        std::vector<std::uint64_t> correct_by_bin(bins, 0);
        for (std::size_t trial = lo; trial < hi; ++trial) {
          if (token.stop_requested() || token.expired()) token.check();
          const auto outcome = threshold_trial(n, bins, gap_max, seed, trial, env);
          if (!outcome) continue;
          ++trials_by_bin[outcome->first];
          if (outcome->second) ++correct_by_bin[outcome->first];
        }
        runner::FieldWriter w;
        w.add_u64(bins);
        for (std::size_t b = 0; b < bins; ++b) {
          w.add_u64(trials_by_bin[b]);
          w.add_u64(correct_by_bin[b]);
        }
        return std::move(w).str();
      });

  ThresholdSearchResult result = make_threshold_bins(bins, gap_max);
  for (const std::string& payload : payloads) {
    runner::FieldReader r{payload};
    if (r.u64() != bins) {
      throw core::FatalError{"variance_threshold_search: journaled bin count mismatch"};
    }
    for (std::size_t b = 0; b < bins; ++b) {
      result.bins[b].trials += r.u64();
      result.bins[b].correct += r.u64();
    }
    r.expect_done();
  }
  finish_threshold(result, bins, gap_max);
  return result;
}

runner::JournalHeader variance_threshold_journal_header(std::size_t n, std::size_t trials_per_bin,
                                                        std::size_t bins, double gap_max,
                                                        std::uint64_t seed,
                                                        const core::Environment& env,
                                                        std::size_t batch_size) {
  runner::FieldWriter w;
  w.add_u64(n);
  w.add_u64(trials_per_bin);
  w.add_u64(bins);
  w.add_double(gap_max);
  w.add_u64(batch_size);
  w.add_double(env.tau());
  w.add_double(env.pi());
  w.add_double(env.delta());
  runner::JournalHeader header;
  header.tool = "variance_threshold";
  header.seed = seed;
  header.fingerprint = runner::fingerprint_of(std::move(w).str());
  return header;
}

FifoOptimalityReport fifo_optimality_report(const std::vector<double>& speeds,
                                            const core::Environment& env, double lifespan,
                                            double tolerance) {
  const std::vector<protocol::OrderPairOutcome> outcomes =
      protocol::enumerate_order_pairs(speeds, env, lifespan);
  FifoOptimalityReport report;
  report.order_pairs = outcomes.size();
  report.best_work = 0.0;
  for (const auto& outcome : outcomes) {
    report.best_work = std::max(report.best_work, outcome.total_work);
  }
  bool first_fifo = true;
  for (const auto& outcome : outcomes) {
    if (outcome.total_work >= report.best_work - tolerance) ++report.optimal_pairs;
    if (outcome.orders.is_fifo()) {
      if (first_fifo) {
        report.fifo_min_work = outcome.total_work;
        report.fifo_max_work = outcome.total_work;
        first_fifo = false;
      } else {
        report.fifo_min_work = std::min(report.fifo_min_work, outcome.total_work);
        report.fifo_max_work = std::max(report.fifo_max_work, outcome.total_work);
      }
    }
  }
  report.fifo_always_optimal = report.fifo_min_work >= report.best_work - tolerance;
  report.fifo_order_independent =
      report.fifo_max_work - report.fifo_min_work <= tolerance * std::max(1.0, report.best_work);
  return report;
}

}  // namespace hetero::experiments
