#pragma once

// Dense two-phase simplex solver for small linear programs.
//
// Computing the maximum work production of a worksharing protocol with an
// arbitrary (startup, finishing)-order pair is a linear program: maximize
// total allocated work subject to the timing feasibility constraints.  The
// programs are tiny (n variables, O(n) constraints), so a dense tableau with
// Bland's anti-cycling rule is exactly the right tool.
//
// The tableau is exact and fraction-free (Edmonds/Bareiss integer pivoting,
// as in lrs).  Every double is m * 2^e, so scaling constraint row i by a
// power of two D_i makes it integral; its slack is scaled with it
// (s'_i = D_i s_i) and keeps coefficient 1, so the starting basis is the
// identity.  Invariant: every cell holds d times its value in the rational
// tableau, where d > 0 is the previous pivot element (1 at the start).  A
// pivot on a = T[p][k] is T[r][j] <- (a T[r][j] - T[r][k] T[p][j]) / d for
// r != p: the division is exact (each cell is a minor of the integer
// matrix), so no gcd and no Rational appear in the pivot loop.  A negative
// pivot negates its row first, which keeps d > 0.
//
// Why the answers equal the reduced-Rational tableau's bit for bit: the
// pivot rule reads only signs, zero tests and ratio comparisons (by
// cross-multiplication).  Multiplying a row or the whole tableau by a
// positive constant changes none of them, and scaling slack i rescales its
// column and its ratios uniformly, so Bland's rule picks the same entering
// and leaving columns at every step — phase 1, warm installs and degenerate
// ties included.  x_j = rhs_i / d and the objective (an integer sum over
// d) are reduced once, at extraction, to the same Rational, hence the same
// double.

#include <cstddef>
#include <span>
#include <vector>

#include "hetero/numeric/matrix.h"

namespace hetero::numeric {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] const char* to_string(LpStatus status) noexcept;

/// Basis of a simplex vertex: for each constraint row, the index of its
/// basic column in [structural 0..n-1 | slack n..n+m-1] space (artificial
/// columns never appear).  An empty `basic` means "no basis" — a cold start
/// when passed in, "no reusable basis" when handed back.
struct SimplexBasis {
  std::vector<std::size_t> basic;
  [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;
  /// Optimal basis (populated when status == kOptimal and no artificial
  /// variable is stuck basic); feed it back as a warm start for a
  /// neighbouring LP.  Execution detail: excluded from the warm/cold
  /// bit-identity contract.
  SimplexBasis basis;
  /// True when the solve actually started from the supplied basis (false on
  /// cold start or warm-start fallback).  Execution detail, like `basis`.
  bool warm_started = false;
};

/// Maximizes c.x subject to A x <= b and x >= 0 — **exactly**.
///
/// Every coefficient is an IEEE double, i.e. an exact dyadic rational, so
/// the tableau is carried in exact integer arithmetic (see above): the
/// verdict (optimal/infeasible/unbounded) and the optimum are exact for the
/// given coefficients, and Bland's rule guarantees finite termination.  (A
/// floating tableau is untrustworthy here: protocol LPs mix coefficients
/// spanning six orders of magnitude and drift infeasible under tiny-pivot
/// roundoff.)  Rows with negative right-hand sides go through phase-1
/// artificial variables.
class SimplexSolver {
 public:
  struct Options {
    /// Pivot budget for one solve, shared by phase 1 and phase 2.  When
    /// another pivot is needed and the budget is spent the status is
    /// kIterationLimit (never kInfeasible); x and objective then describe
    /// the current vertex if phase 2 was reached and stay empty/0 if not.
    /// An optimum reached within the budget is kOptimal.
    int max_iterations = 10000;
  };

  SimplexSolver() : options_{} {}
  explicit SimplexSolver(const Options& options) : options_{options} {}

  /// Throws std::invalid_argument on shape mismatches and non-finite
  /// coefficients.
  [[nodiscard]] LpSolution maximize(std::span<const double> c, const Matrix& a,
                                    std::span<const double> b) const;

  /// Like the above, but tries to start phase 2 directly from `warm`
  /// (typically the optimal basis of a neighbouring LP in a sweep).  If the
  /// basis is malformed, singular for this tableau, or infeasible here, the
  /// solver silently falls back to a cold start — warm-starting can change
  /// speed, never correctness.  The returned status, objective, and x are
  /// bit-identical to the cold solve whenever the LP's optimal vertex is
  /// unique: exact pivoting reaches the same vertex from any
  /// feasible starting basis, and every double is extracted from the same
  /// exact value.  (With multiple optima either run may report a different
  /// — equally optimal — vertex.)  `iterations`, `warm_started`, and
  /// `basis` are execution details excluded from that identity contract.
  [[nodiscard]] LpSolution maximize(std::span<const double> c, const Matrix& a,
                                    std::span<const double> b,
                                    const SimplexBasis& warm) const;

  /// Convenience: minimize c.x subject to A x <= b, x >= 0.
  [[nodiscard]] LpSolution minimize(std::span<const double> c, const Matrix& a,
                                    std::span<const double> b) const;

  /// Warm-started minimize (same contract as the warm maximize).
  [[nodiscard]] LpSolution minimize(std::span<const double> c, const Matrix& a,
                                    std::span<const double> b,
                                    const SimplexBasis& warm) const;

 private:
  Options options_;
};

}  // namespace hetero::numeric
