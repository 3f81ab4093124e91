#include "hetero/numeric/simplex.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <compare>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hetero/numeric/bigint.h"
#include "hetero/numeric/rational.h"
#include "hetero/obs/metrics.h"

namespace hetero::numeric {
namespace {

/// A nonzero finite double as odd_mantissa * 2^exponent.
struct Dyadic {
  std::int64_t mantissa = 0;
  int exponent = 0;
};

Dyadic split(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("SimplexSolver: non-finite coefficient");
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);
  const auto mantissa = static_cast<std::int64_t>(std::ldexp(fraction, 53));
  const int trailing = std::countr_zero(
      static_cast<std::uint64_t>(mantissa < 0 ? -mantissa : mantissa));
  return Dyadic{mantissa >> trailing, exponent - 53 + trailing};
}

/// Lowest binary exponent among the nonzero values (0 when all are zero):
/// scaling every value by 2^-low makes each one an integer.
int low_exponent(std::span<const double> values) {
  int low = INT_MAX;
  for (double value : values) {
    if (value != 0.0) low = std::min(low, split(value).exponent);
  }
  return low == INT_MAX ? 0 : low;
}

/// value * 2^-low as an exact integer (low <= value's own exponent).
BigInt scaled(double value, int low) {
  if (value == 0.0) return BigInt{};
  const Dyadic dyadic = split(value);
  return BigInt{dyadic.mantissa} << static_cast<std::size_t>(dyadic.exponent - low);
}

// Dense simplex tableau kept fraction-free (Edmonds/Bareiss integer
// pivoting); simplex.h states the invariant and why its pivots, bases and
// answers equal the reduced-Rational tableau's.  Row i is scaled by
// D_i = 2^-row_low_[i] and so is its slack; the cost vector by
// 2^-objective_low_.
//
// Column layout: [structural | slack | rhs]; artificial columns are never
// read (they cannot re-enter), so they are not stored, only named in basis_
// as n + m + k.  Row layout: [constraints | objective].  The objective row
// holds a positive multiple of the negated reduced costs, so the optimality
// loop hunts for negative entries.  Basic columns are d times a unit vector
// and are set, not computed.
class Tableau {
 public:
  Tableau(std::span<const double> c, const Matrix& a, std::span<const double> b) {
    m_ = a.rows();
    n_ = a.cols();
    if (c.size() != n_ || b.size() != m_) {
      throw std::invalid_argument("SimplexSolver: shape mismatch");
    }
    cols_ = n_ + m_ + 1;
    cells_.assign((m_ + 1) * cols_, BigInt{});
    basis_.resize(m_);
    basic_.assign(n_ + m_, false);
    row_low_.resize(m_);
    std::vector<double> row(n_ + 1);
    std::size_t artificial = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) row[j] = a(i, j);
      row[n_] = b[i];
      const int low = low_exponent(row);
      row_low_[i] = low;
      // Rows with a negative right-hand side are negated and start on an
      // artificial variable (phase 1); their slack becomes a surplus.
      const bool flip = b[i] < 0.0;
      for (std::size_t j = 0; j <= n_; ++j) {
        if (row[j] == 0.0) continue;
        BigInt value = scaled(row[j], low);
        at(i, j == n_ ? cols_ - 1 : j) = flip ? value.negated() : std::move(value);
      }
      at(i, n_ + i) = BigInt{flip ? -1 : 1};
      if (flip) {
        basis_[i] = n_ + m_ + artificial++;
      } else {
        basis_[i] = n_ + i;
        basic_[n_ + i] = true;
      }
      note_bits(i);
    }
    objective_low_ = low_exponent(c);
    objective_.reserve(n_);
    for (double value : c) objective_.push_back(scaled(value, objective_low_));
  }

  /// Drives the artificials out of the freshly built tableau.  kOptimal
  /// means feasible (go on to phase 2); otherwise kInfeasible or
  /// kIterationLimit.
  LpStatus phase1(int max_iterations, int& iterations) {
    int min_low = INT_MAX;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ + m_) min_low = std::min(min_low, row_low_[i]);
    }
    if (min_low == INT_MAX) return LpStatus::kOptimal;
    // Maximize -sum(artificials) = -sum(art'_i / D_i): weight each row by
    // L / D_i with L = max D_i so the objective row stays integral.
    for (std::size_t j = 0; j < cols_; ++j) at(m_, j) = BigInt{};
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_ + m_) continue;
      const auto shift = static_cast<std::size_t>(row_low_[i] - min_low);
      for (std::size_t j = 0; j < cols_; ++j) {
        if (!at(i, j).is_zero()) at(m_, j) -= at(i, j) << shift;
      }
    }
    note_bits(m_);
    const LpStatus status = iterate(max_iterations, iterations);
    if (status != LpStatus::kOptimal) return status;
    if (rhs(m_).signum() < 0) return LpStatus::kInfeasible;  // residual infeasibility
    // Pivot degenerate artificials out of the basis where possible.
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_ + m_) continue;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (!at(i, j).is_zero()) {
          pivot(i, j);
          ++cleanup_pivots_;
          break;
        }
      }
    }
    return LpStatus::kOptimal;
  }

  /// Phase 2 with the real objective: kOptimal, kUnbounded or
  /// kIterationLimit.
  LpStatus phase2(int max_iterations, int& iterations) {
    // d * 2^-low_c * (c_B B^-1 A - c): the objective row of the current
    // basis, assembled from the basic rows in one pass.
    for (std::size_t j = 0; j < cols_; ++j) at(m_, j) = BigInt{};
    for (std::size_t j = 0; j < n_; ++j) at(m_, j) = -(d_ * objective_[j]);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ || objective_[basis_[i]].is_zero()) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        if (!at(i, j).is_zero()) at(m_, j) += at(i, j) * objective_[basis_[i]];
      }
    }
    note_bits(m_);
    return iterate(max_iterations, iterations);
  }

  /// Pivots the freshly built tableau onto the given basis.  Returns true
  /// iff the basis is well-formed (one distinct structural/slack column per
  /// row), nonsingular for this tableau, and primal feasible here (all rhs
  /// nonnegative) — in which case phase 1 can be skipped outright.  On
  /// false the tableau may be half-pivoted (see install_pivots()).
  bool install_basis(const SimplexBasis& warm) {
    if (warm.basic.size() != m_) return false;
    std::vector<bool> wanted(n_ + m_, false);
    for (std::size_t col : warm.basic) {
      if (col >= n_ + m_ || wanted[col]) return false;
      wanted[col] = true;
    }
    for (std::size_t col : warm.basic) {
      if (basic_[col]) continue;  // the slack identity covers most rows
      std::size_t row = m_;
      for (std::size_t i = 0; i < m_; ++i) {
        const bool replaceable = basis_[i] >= n_ + m_ || !wanted[basis_[i]];
        if (replaceable && !at(i, col).is_zero()) {
          row = i;
          break;
        }
      }
      if (row == m_) return false;  // singular against the remaining rows
      pivot(row, col);
      ++install_pivots_;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (rhs(i).signum() < 0) return false;  // that vertex is infeasible here
    }
    return true;
  }

  /// Basis of the current vertex, for warm-starting a neighbouring LP.
  /// Empty when an artificial variable is stuck basic (degenerate phase-1
  /// leftovers) — such a basis cannot seed another solve.
  [[nodiscard]] SimplexBasis extract_basis() const {
    SimplexBasis basis;
    basis.basic.reserve(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ + m_) return SimplexBasis{};
      basis.basic.push_back(basis_[i]);
    }
    return basis;
  }

  /// x_j = rhs_i / d, reduced once here and nowhere else.
  [[nodiscard]] std::vector<double> extract_solution() const {
    std::vector<double> x(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) x[basis_[i]] = Rational{rhs(i), d_}.to_double();
    }
    return x;
  }

  /// c.x = sum(C_j rhs_i) / (d * 2^-low_c), summed as an integer.
  [[nodiscard]] double objective_value() const {
    BigInt numerator;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ || rhs(i).is_zero()) continue;
      numerator += objective_[basis_[i]] * rhs(i);
    }
    BigInt denominator = d_;
    if (objective_low_ >= 0) {
      numerator <<= static_cast<std::size_t>(objective_low_);
    } else {
      denominator <<= static_cast<std::size_t>(-objective_low_);
    }
    return Rational{std::move(numerator), std::move(denominator)}.to_double();
  }

  [[nodiscard]] int install_pivots() const noexcept { return install_pivots_; }
  [[nodiscard]] int cleanup_pivots() const noexcept { return cleanup_pivots_; }
  /// Bit length of the largest tableau entry seen so far.
  [[nodiscard]] std::size_t max_entry_bits() const noexcept { return max_bits_; }

 private:
  BigInt& at(std::size_t r, std::size_t c) { return cells_[r * cols_ + c]; }
  [[nodiscard]] const BigInt& at(std::size_t r, std::size_t c) const {
    return cells_[r * cols_ + c];
  }
  BigInt& rhs(std::size_t r) { return at(r, cols_ - 1); }
  [[nodiscard]] const BigInt& rhs(std::size_t r) const { return at(r, cols_ - 1); }

  void note_bits(std::size_t r) {
    for (std::size_t j = 0; j < cols_; ++j) max_bits_ = std::max(max_bits_, at(r, j).bit_length());
  }

  // Integer-preserving Gauss-Jordan step on (pivot_row, pivot_col).
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    if (at(pivot_row, pivot_col).is_negative()) {
      for (std::size_t j = 0; j < cols_; ++j) {
        BigInt& cell = at(pivot_row, j);
        if (!cell.is_zero()) cell = cell.negated();
      }
    }
    const BigInt& a = at(pivot_row, pivot_col);
    const std::size_t leaving = basis_[pivot_row];
    const bool leaving_stored = leaving < n_ + m_;
    // The leaving column was d * e_p (or -d * e_p after the negation above);
    // for r != p its update (a * 0 - T[r][k] * (+-d)) / d needs no division.
    const bool leaving_negated = leaving_stored && at(pivot_row, leaving).is_negative();
    std::vector<std::size_t> updated;  // nonbasic columns and the rhs
    for (std::size_t j = 0; j + 1 < cols_; ++j) {
      if (!basic_[j] && j != pivot_col) updated.push_back(j);
    }
    updated.push_back(cols_ - 1);
    const ExactDivisor divisor{d_};
    for (std::size_t r = 0; r <= m_; ++r) {
      if (r == pivot_row) continue;
      const BigInt factor = std::move(at(r, pivot_col));
      at(r, pivot_col) = BigInt{};
      for (std::size_t j : updated) {
        BigInt& cell = at(r, j);
        const BigInt& pivot_cell = at(pivot_row, j);
        if (cell.is_zero() && (factor.is_zero() || pivot_cell.is_zero())) continue;
        cell.assign_cross_quotient(cell, a, factor, pivot_cell, divisor);
        max_bits_ = std::max(max_bits_, cell.bit_length());
      }
      if (leaving_stored) at(r, leaving) = leaving_negated ? factor : factor.negated();
      if (r < m_ && basis_[r] < n_ + m_) at(r, basis_[r]) = a;
    }
    if (leaving_stored) basic_[leaving] = false;
    basic_[pivot_col] = true;
    basis_[pivot_row] = pivot_col;
    d_ = a;
  }

  // ratio(i) < ratio(best) for rhs_i / T[i][k] with positive denominators,
  // by cross-multiplication; ties go to the smaller basic column (Bland).
  [[nodiscard]] bool better_ratio(std::size_t i, std::size_t best, std::size_t k) const {
    const BigInt& rhs_i = rhs(i);
    const BigInt& rhs_best = rhs(best);
    std::strong_ordering cmp = std::strong_ordering::equal;
    if (rhs_i.is_zero() || rhs_best.is_zero()) {
      cmp = rhs_i.signum() <=> rhs_best.signum();  // a zero ratio against a signed one
    } else {
      cmp = rhs_i * at(best, k) <=> rhs_best * at(i, k);
    }
    return cmp < 0 || (cmp == 0 && basis_[i] < basis_[best]);
  }

  // Primal simplex with Bland's rule.  Every pivot is charged to the one
  // per-solve budget: the status is kIterationLimit when another pivot is
  // needed and the budget is spent.  Bland + exactness => no cycling.
  LpStatus iterate(int max_iterations, int& iterations) {
    for (;;) {
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (at(m_, j).is_negative()) {
          entering = j;
          break;
        }
      }
      if (entering == cols_) return LpStatus::kOptimal;
      if (iterations >= max_iterations) return LpStatus::kIterationLimit;
      std::size_t leaving = m_;
      for (std::size_t i = 0; i < m_; ++i) {
        if (at(i, entering).signum() <= 0) continue;
        if (leaving == m_ || better_ratio(i, leaving, entering)) leaving = i;
      }
      if (leaving == m_) return LpStatus::kUnbounded;
      pivot(leaving, entering);
      ++iterations;
    }
  }

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t cols_ = 0;
  std::vector<BigInt> cells_;
  std::vector<std::size_t> basis_;
  std::vector<bool> basic_;     // per stored column
  std::vector<int> row_low_;    // row i is scaled by 2^-row_low_[i]
  std::vector<BigInt> objective_;  // c scaled by 2^-objective_low_
  int objective_low_ = 0;
  BigInt d_{1};  // last pivot element (1 for the identity start)
  int install_pivots_ = 0;
  int cleanup_pivots_ = 0;
  std::size_t max_bits_ = 0;
};

}  // namespace

const char* to_string(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// One metrics flush per solve (never per pivot): where the pivots went and
/// how wide the integers grew.  lp.pivots == phase1 + phase2 pivots (the
/// solution's `iterations`); install and clean-up pivots are counted apart.
[[maybe_unused]] void record_solve_metrics(int phase1, int phase2, const Tableau& tableau) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& solves = obs::counter("lp.solves");
    static obs::Counter& pivots = obs::counter("lp.pivots");
    static obs::Counter& phase1_pivots = obs::counter("lp.phase1_pivots");
    static obs::Counter& phase2_pivots = obs::counter("lp.phase2_pivots");
    static obs::Counter& install_pivots = obs::counter("lp.install_pivots");
    static obs::Counter& cleanup_pivots = obs::counter("lp.cleanup_pivots");
    static obs::Histogram& entry_bits = obs::histogram("lp.max_entry_bits");
    solves.add(1);
    pivots.add(static_cast<std::uint64_t>(phase1 + phase2));
    phase1_pivots.add(static_cast<std::uint64_t>(phase1));
    phase2_pivots.add(static_cast<std::uint64_t>(phase2));
    install_pivots.add(static_cast<std::uint64_t>(tableau.install_pivots()));
    cleanup_pivots.add(static_cast<std::uint64_t>(tableau.cleanup_pivots()));
    entry_bits.record(static_cast<double>(tableau.max_entry_bits()));
  } else {
    static_cast<void>(phase1);
    static_cast<void>(phase2);
    static_cast<void>(tableau);
  }
}

/// Warm-start effectiveness: attempts vs accepted installs tell sweeps
/// whether their bases actually transfer between neighbouring LPs.
[[maybe_unused]] void record_warm_metrics(bool accepted) {
  if constexpr (obs::kEnabled) {
    static obs::Counter& attempts = obs::counter("lp.warm_attempts");
    static obs::Counter& accepts = obs::counter("lp.warm_starts");
    attempts.add(1);
    if (accepted) accepts.add(1);
  } else {
    static_cast<void>(accepted);
  }
}

}  // namespace

LpSolution SimplexSolver::maximize(std::span<const double> c, const Matrix& a,
                                   std::span<const double> b) const {
  return maximize(c, a, b, SimplexBasis{});
}

LpSolution SimplexSolver::maximize(std::span<const double> c, const Matrix& a,
                                   std::span<const double> b, const SimplexBasis& warm) const {
  // The whole solve runs inside a reused per-thread arena: every BigInt
  // temporary the pivot loop churns through is a pointer bump, reclaimed
  // wholesale after the tableau dies.  Safe because LpSolution carries only
  // doubles and column indices — no exact value escapes the scope.
  static thread_local Arena arena;
  LpSolution solution;
  {
    ArenaScope scope{arena};
    Tableau tableau{c, a, b};
    if (!warm.empty()) {
      solution.warm_started = tableau.install_basis(warm);
      record_warm_metrics(solution.warm_started);
      // A rejected basis that got as far as pivoting left the tableau
      // half-pivoted; one rejected before any pivot left it untouched.
      if (!solution.warm_started && tableau.install_pivots() != 0) {
        tableau = Tableau{c, a, b};
      }
    }
    int iterations = 0;
    LpStatus status = solution.warm_started ? LpStatus::kOptimal
                                            : tableau.phase1(options_.max_iterations, iterations);
    const int phase1_pivots = iterations;
    const bool feasible = status == LpStatus::kOptimal;
    if (feasible) status = tableau.phase2(options_.max_iterations, iterations);
    solution.status = status;
    solution.iterations = iterations;
    if (feasible && status != LpStatus::kUnbounded) {
      solution.x = tableau.extract_solution();
      solution.objective = tableau.objective_value();
      if (status == LpStatus::kOptimal) solution.basis = tableau.extract_basis();
    }
    record_solve_metrics(phase1_pivots, iterations - phase1_pivots, tableau);
  }
  arena.reset();
  return solution;
}

LpSolution SimplexSolver::minimize(std::span<const double> c, const Matrix& a,
                                   std::span<const double> b) const {
  return minimize(c, a, b, SimplexBasis{});
}

LpSolution SimplexSolver::minimize(std::span<const double> c, const Matrix& a,
                                   std::span<const double> b, const SimplexBasis& warm) const {
  std::vector<double> negated(c.begin(), c.end());
  for (double& v : negated) v = -v;
  LpSolution solution = maximize(negated, a, b, warm);
  solution.objective = -solution.objective;
  return solution;
}

}  // namespace hetero::numeric
