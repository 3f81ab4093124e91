#include "hetero/numeric/simplex.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetero::numeric {
namespace {

TEST(Simplex, SolvesTextbookTwoVariableProgram) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  =>  (2, 6), obj 36.
  const std::vector<double> c{3.0, 5.0};
  const Matrix a{{1.0, 0.0}, {0.0, 2.0}, {3.0, 2.0}};
  const std::vector<double> b{4.0, 12.0, 18.0};
  const LpSolution solution = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 36.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
}

TEST(Simplex, DetectsUnboundedProgram) {
  // max x with only x - y <= 1: push y and x together forever.
  const std::vector<double> c{1.0, 0.0};
  const Matrix a{{1.0, -1.0}};
  const std::vector<double> b{1.0};
  EXPECT_EQ(SimplexSolver{}.maximize(c, a, b).status, LpStatus::kUnbounded);
}

TEST(Simplex, DetectsInfeasibleProgram) {
  // x <= 1 and -x <= -3  (i.e. x >= 3) cannot both hold.
  const std::vector<double> c{1.0};
  const Matrix a{{1.0}, {-1.0}};
  const std::vector<double> b{1.0, -3.0};
  EXPECT_EQ(SimplexSolver{}.maximize(c, a, b).status, LpStatus::kInfeasible);
}

TEST(Simplex, HandlesNegativeRhsViaPhase1) {
  // max -x - y  s.t.  x >= 2 (as -x <= -2), y >= 1, x + y <= 10.
  const std::vector<double> c{-1.0, -1.0};
  const Matrix a{{-1.0, 0.0}, {0.0, -1.0}, {1.0, 1.0}};
  const std::vector<double> b{-2.0, -1.0, 10.0};
  const LpSolution solution = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 1.0, 1e-9);
  EXPECT_NEAR(solution.objective, -3.0, 1e-9);
}

TEST(Simplex, DegenerateProgramTerminates) {
  // Redundant constraints producing degenerate vertices; Bland's rule must
  // still terminate at the optimum.
  const std::vector<double> c{1.0, 1.0};
  const Matrix a{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> b{5.0, 5.0, 5.0, 10.0};
  const LpSolution solution = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 10.0, 1e-9);
}

TEST(Simplex, MinimizeIsMaximizeOfNegation) {
  // min x + 2y  s.t.  x >= 1, y >= 2  => 5.
  const std::vector<double> c{1.0, 2.0};
  const Matrix a{{-1.0, 0.0}, {0.0, -1.0}};
  const std::vector<double> b{-1.0, -2.0};
  const LpSolution solution = SimplexSolver{}.minimize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(Simplex, ZeroRowsGiveTrivialOptimum) {
  const std::vector<double> c{-1.0, -2.0};
  const Matrix a{{1.0, 1.0}};
  const std::vector<double> b{100.0};
  const LpSolution solution = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.0, 1e-12);  // x = 0 is optimal
}

TEST(Simplex, RejectsShapeMismatch) {
  const std::vector<double> c{1.0};
  const Matrix a{{1.0, 2.0}};
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)SimplexSolver{}.maximize(c, a, b), std::invalid_argument);
}

TEST(Simplex, SolutionSatisfiesAllConstraints) {
  const std::vector<double> c{2.0, 3.0, 1.0};
  const Matrix a{{1.0, 1.0, 1.0}, {2.0, 1.0, 0.0}, {0.0, 1.0, 3.0}};
  const std::vector<double> b{10.0, 8.0, 9.0};
  const LpSolution solution = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  for (std::size_t row = 0; row < 3; ++row) {
    double lhs = 0.0;
    for (std::size_t col = 0; col < 3; ++col) lhs += a(row, col) * solution.x[col];
    EXPECT_LE(lhs, b[row] + 1e-9);
  }
  for (double xi : solution.x) EXPECT_GE(xi, -1e-9);
}

// max x + y  s.t.  x + y <= 4, x >= 1, y >= 1: phase 1 needs two pivots to
// drive out both artificials, phase 2 one more.
struct TwoPhaseProgram {
  std::vector<double> c{1.0, 1.0};
  Matrix a{{1.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  std::vector<double> b{4.0, -1.0, -1.0};
};

TEST(Simplex, IterationBudgetIsSharedByBothPhases) {
  const TwoPhaseProgram lp;
  const LpSolution unlimited = SimplexSolver{}.maximize(lp.c, lp.a, lp.b);
  ASSERT_EQ(unlimited.status, LpStatus::kOptimal);
  ASSERT_EQ(unlimited.iterations, 3);
  EXPECT_EQ(unlimited.objective, 4.0);
  for (int budget = 0; budget < unlimited.iterations; ++budget) {
    const LpSolution capped =
        SimplexSolver{SimplexSolver::Options{budget}}.maximize(lp.c, lp.a, lp.b);
    // Running out of budget in phase 1 is not a verdict of infeasibility,
    // and phase 2 gets no fresh budget of its own.
    EXPECT_EQ(capped.status, LpStatus::kIterationLimit) << budget;
    EXPECT_EQ(capped.iterations, budget);
  }
}

TEST(Simplex, OptimumReachedWithinTheBudgetIsOptimal) {
  const TwoPhaseProgram lp;
  const LpSolution exact = SimplexSolver{SimplexSolver::Options{3}}.maximize(lp.c, lp.a, lp.b);
  EXPECT_EQ(exact.status, LpStatus::kOptimal);
  EXPECT_EQ(exact.iterations, 3);
  EXPECT_EQ(exact.objective, 4.0);
  EXPECT_FALSE(exact.basis.empty());

  // max x + 2y  s.t.  x + y <= 6, x - y <= 2, x >= 1: two pivots in all.
  const std::vector<double> c{1.0, 2.0};
  const Matrix a{{1.0, 1.0}, {1.0, -1.0}, {-1.0, 0.0}};
  const std::vector<double> b{6.0, 2.0, -1.0};
  const LpSolution unlimited = SimplexSolver{}.maximize(c, a, b);
  ASSERT_EQ(unlimited.status, LpStatus::kOptimal);
  ASSERT_EQ(unlimited.iterations, 2);
  const LpSolution capped = SimplexSolver{SimplexSolver::Options{2}}.maximize(c, a, b);
  EXPECT_EQ(capped.status, LpStatus::kOptimal);
  EXPECT_EQ(capped.objective, unlimited.objective);
  EXPECT_EQ(capped.x, unlimited.x);
}

TEST(Simplex, ZeroBudgetStillRecognisesAStartingOptimum) {
  // x = 0 is already optimal: no pivot is needed, so none is charged.
  const std::vector<double> c{-1.0, -2.0};
  const Matrix a{{1.0, 1.0}};
  const std::vector<double> b{100.0};
  const LpSolution solution = SimplexSolver{SimplexSolver::Options{0}}.maximize(c, a, b);
  EXPECT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_EQ(solution.iterations, 0);
}

TEST(Simplex, StatusToStringCoversAllValues) {
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}

}  // namespace
}  // namespace hetero::numeric
