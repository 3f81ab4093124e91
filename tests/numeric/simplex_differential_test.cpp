// Differential test of the fraction-free exact simplex against the
// reduced-Rational reference tableau (tests/support/rational_simplex.h).
//
// Both solvers decide every pivot from signs, zero tests and exact ratio
// comparisons, so the integer tableau must retrace the rational one pivot
// for pivot: status, objective, x, iterations, basis and warm_started are
// compared bit for bit, never NEAR.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "../support/rational_simplex.h"
#include "hetero/core/environment.h"
#include "hetero/numeric/simplex.h"
#include "hetero/protocol/lp_solver.h"

namespace hetero::numeric {
namespace {

using test_support::rational_maximize;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same(const LpSolution& got, const LpSolution& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(bits(got.objective), bits(want.objective));
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t j = 0; j < got.x.size(); ++j) EXPECT_EQ(bits(got.x[j]), bits(want.x[j])) << j;
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.basis.basic, want.basis.basic);
  EXPECT_EQ(got.warm_started, want.warm_started);
}

/// Solves with both tableaus, compares, and returns the library's answer.
LpSolution check(const protocol::ProtocolLp& lp, const SimplexBasis& warm = {},
                 int max_iterations = 10000) {
  const SimplexSolver solver{SimplexSolver::Options{max_iterations}};
  LpSolution got = solver.maximize(lp.objective, lp.constraint, lp.rhs, warm);
  const LpSolution want =
      rational_maximize(lp.objective, lp.constraint, lp.rhs, warm, max_iterations);
  expect_same(got, want);
  return got;
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Rates as the service sees them (k / 4096) or with a full 53-bit mantissa.
std::vector<double> random_speeds(std::size_t n, bool full_mantissa, std::mt19937_64& rng) {
  std::vector<double> speeds(n);
  for (double& rho : speeds) {
    if (full_mantissa) {
      rho = std::uniform_real_distribution<double>{0.05, 2.0}(rng);
    } else {
      rho = static_cast<double>(std::uniform_int_distribution<int>{1, 8192}(rng)) / 4096.0;
    }
  }
  return speeds;
}

TEST(SimplexDifferential, RandomOrderPairsAndLifespansMatchBitForBit) {
  const core::Environment env = core::Environment::paper_default();
  std::mt19937_64 rng{20100419};
  for (std::size_t n = 2; n <= 6; ++n) {
    for (const bool full_mantissa : {false, true}) {
      SimplexBasis previous;  // chain: each LP warm-starts from the last optimum
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " full=" << full_mantissa
                                        << " trial=" << trial);
        const std::vector<double> speeds = random_speeds(n, full_mantissa, rng);
        protocol::ProtocolOrders orders;
        orders.startup = shuffled(n, rng);
        orders.finishing = shuffled(n, rng);
        const double lifespan =
            static_cast<double>(std::uniform_int_distribution<int>{1, 99}(rng)) * 100.0;
        const protocol::ProtocolLp lp = protocol::protocol_lp(speeds, env, lifespan, orders);
        const LpSolution cold = check(lp);
        ASSERT_EQ(cold.status, LpStatus::kOptimal);
        check(lp, cold.basis);  // its own optimal basis: a valid warm start
        check(lp, previous);    // a neighbour's basis: stale or transferable
        previous = cold.basis;
      }
    }
  }
}

TEST(SimplexDifferential, InterleavedChannelLpsMatchBitForBit) {
  const core::Environment env = core::Environment::paper_default();
  std::mt19937_64 rng{7};
  for (std::size_t n = 1; n <= 3; ++n) {
    const std::vector<double> speeds = random_speeds(n, n == 3, rng);
    protocol::ProtocolOrders orders;
    orders.startup = shuffled(n, rng);
    orders.finishing = shuffled(n, rng);
    for (const protocol::ChannelMerge& merge : protocol::all_channel_merges(n)) {
      if (!protocol::merge_is_causal(merge, orders)) continue;
      check(protocol::interleaved_lp(speeds, env, 250.0, orders, merge));
    }
  }
}

/// A random LP with dyadic coefficients; about a third of the rows get a
/// negative right-hand side, so phase 1 and the artificial clean-up run.
protocol::ProtocolLp random_lp(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> coeff{-6, 6};
  std::uniform_int_distribution<int> scale{0, 4};
  protocol::ProtocolLp lp;
  lp.constraint = Matrix(rows, cols);
  lp.rhs.resize(rows);
  lp.objective.resize(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      lp.constraint(i, j) = coeff(rng) / static_cast<double>(1 << scale(rng));
    }
    const int sign = std::uniform_int_distribution<int>{0, 2}(rng) == 0 ? -1 : 1;
    lp.rhs[i] = sign * std::uniform_int_distribution<int>{0, 12}(rng) / 4.0;
  }
  for (double& c : lp.objective) c = coeff(rng) / 2.0;
  return lp;
}

TEST(SimplexDifferential, PhaseOneAndEveryVerdictMatchBitForBit) {
  std::mt19937_64 rng{1234};
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const auto rows = static_cast<std::size_t>(1 + trial % 5);
    const auto cols = static_cast<std::size_t>(1 + (trial / 5) % 5);
    const protocol::ProtocolLp lp = random_lp(rows, cols, rng);
    const LpSolution cold = check(lp);
    optimal += cold.status == LpStatus::kOptimal ? 1 : 0;
    infeasible += cold.status == LpStatus::kInfeasible ? 1 : 0;
    unbounded += cold.status == LpStatus::kUnbounded ? 1 : 0;
    if (!cold.basis.empty()) check(lp, cold.basis);
  }
  // The family really exercises all three verdicts.
  EXPECT_GT(optimal, 50);
  EXPECT_GT(infeasible, 10);
  EXPECT_GT(unbounded, 10);
}

TEST(SimplexDifferential, RejectedWarmBasesMatchBitForBit) {
  const core::Environment env = core::Environment::paper_default();
  const std::vector<double> speeds{1.0, 0.75, 0.5};
  const protocol::ProtocolLp lp =
      protocol::protocol_lp(speeds, env, 900.0, protocol::ProtocolOrders::lifo(3));
  const std::size_t m = lp.rhs.size();
  const std::size_t n = lp.objective.size();
  SimplexBasis wrong_size;
  wrong_size.basic = {0, 1};
  SimplexBasis out_of_range;
  out_of_range.basic.assign(m, 0);
  std::iota(out_of_range.basic.begin(), out_of_range.basic.end(), std::size_t{0});
  out_of_range.basic.back() = n + m;
  SimplexBasis duplicated = out_of_range;
  duplicated.basic.back() = 0;
  // The slack identity with one slack swapped for an all-zero-in-its-row
  // structural: every row but one still holds a wanted slack, so the swap
  // has nowhere to pivot.
  SimplexBasis singular;
  for (std::size_t i = 0; i < m; ++i) singular.basic.push_back(n + i);
  singular.basic.front() = 2 * speeds.size() - 1;  // r_2, absent from row 0
  for (const SimplexBasis& bad : {wrong_size, out_of_range, duplicated, singular}) {
    const LpSolution got = check(lp, bad);
    EXPECT_FALSE(got.warm_started);
  }
}

TEST(SimplexDifferential, WarmStartsOnPhaseOneLpsMatchBitForBit) {
  // Negative right-hand sides put artificials in the starting basis; a warm
  // basis must be able to replace them.
  std::mt19937_64 rng{99};
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const protocol::ProtocolLp donor = random_lp(3, 3, rng);
    const LpSolution solved = check(donor);
    if (solved.basis.empty()) continue;
    protocol::ProtocolLp neighbour = donor;
    for (double& b : neighbour.rhs) b += std::uniform_int_distribution<int>{-2, 2}(rng) / 8.0;
    accepted += check(neighbour, solved.basis).warm_started ? 1 : 0;
  }
  EXPECT_GT(accepted, 20);
}

TEST(SimplexDifferential, EveryIterationBudgetMatchesBitForBit) {
  const core::Environment env = core::Environment::paper_default();
  const std::vector<double> speeds{1.0, 0.5, 0.25, 0.125};
  const protocol::ProtocolLp lp =
      protocol::protocol_lp(speeds, env, 1000.0, protocol::ProtocolOrders::lifo(4));
  const int full = check(lp).iterations;
  for (int budget = 0; budget <= full; ++budget) {
    SCOPED_TRACE(budget);
    const LpSolution got = check(lp, {}, budget);
    EXPECT_EQ(got.status, budget < full ? LpStatus::kIterationLimit : LpStatus::kOptimal);
  }
  std::mt19937_64 rng{5};
  for (int trial = 0; trial < 60; ++trial) {
    const protocol::ProtocolLp phase1 = random_lp(4, 3, rng);
    for (int budget = 0; budget <= 4; ++budget) check(phase1, {}, budget);
  }
}

}  // namespace
}  // namespace hetero::numeric
