#pragma once

// Reference oracle for the exact simplex: a dense two-phase tableau whose
// cells are reduced Rationals, pivoted by Gauss-Jordan with Bland's rule.
//
// This is the solver the library shipped before its tableau became
// fraction-free (integer-preserving Bareiss pivoting), kept here, test-only,
// so the differential test and the fuzz target can demand that the library
// reproduce it bit for bit: status, objective, x, iterations, basis and
// warm_started.  Every decision below uses only signs, zero tests and exact
// ratio comparisons of rational cells, which is what makes that equality a
// meaningful check.  The iteration budget is one per solve, shared by both
// phases, as in the library.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "hetero/numeric/matrix.h"
#include "hetero/numeric/rational.h"
#include "hetero/numeric/simplex.h"

namespace hetero::test_support {

class RationalTableau {
 public:
  using LpStatus = numeric::LpStatus;

  RationalTableau(std::span<const double> c, const numeric::Matrix& a,
                  std::span<const double> b) {
    using numeric::Rational;
    m_ = a.rows();
    n_ = a.cols();
    if (c.size() != n_ || b.size() != m_) {
      throw std::invalid_argument("SimplexSolver: shape mismatch");
    }
    std::size_t artificial_count = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (b[i] < 0.0) ++artificial_count;
    }
    cols_ = n_ + m_ + artificial_count + 1;
    rows_.assign((m_ + 1) * cols_, Rational{});
    basis_.resize(m_);
    num_artificial_ = artificial_count;
    std::size_t artificial_index = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      const bool flip = b[i] < 0.0;
      for (std::size_t j = 0; j < n_; ++j) {
        const double value = a(i, j);
        if (value != 0.0) at(i, j) = Rational::from_double(flip ? -value : value);
      }
      at(i, n_ + i) = Rational{flip ? -1 : 1};
      rhs(i) = Rational::from_double(flip ? -b[i] : b[i]);
      if (flip) {
        const std::size_t art_col = n_ + m_ + artificial_index++;
        at(i, art_col) = Rational{1};
        basis_[i] = art_col;
      } else {
        basis_[i] = n_ + i;
      }
    }
    for (double value : c) objective_.push_back(Rational::from_double(value));
  }

  /// kOptimal (feasible; go on to phase 2), kInfeasible or kIterationLimit.
  LpStatus phase1(int max_iterations, int& iterations) {
    using numeric::Rational;
    if (num_artificial_ == 0) return LpStatus::kOptimal;
    for (std::size_t j = 0; j < cols_; ++j) at(m_, j) = Rational{};
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ + m_) {
        for (std::size_t j = 0; j < cols_; ++j) at(m_, j) -= at(i, j);
      }
    }
    const LpStatus status = iterate(max_iterations, iterations);
    if (status != LpStatus::kOptimal) return status;
    if (rhs(m_).signum() < 0) return LpStatus::kInfeasible;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_ + m_) continue;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (!at(i, j).is_zero()) {
          pivot(i, j);
          break;
        }
      }
    }
    return LpStatus::kOptimal;
  }

  /// kOptimal, kUnbounded or kIterationLimit.
  LpStatus phase2(int max_iterations, int& iterations) {
    using numeric::Rational;
    for (std::size_t j = 0; j < cols_; ++j) at(m_, j) = Rational{};
    for (std::size_t j = 0; j < n_; ++j) at(m_, j) = -objective_[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const Rational coeff = at(m_, basis_[i]);
      if (!coeff.is_zero()) {
        for (std::size_t j = 0; j < cols_; ++j) at(m_, j) -= coeff * at(i, j);
      }
    }
    return iterate(max_iterations, iterations);
  }

  bool install_basis(const numeric::SimplexBasis& warm) {
    if (warm.basic.size() != m_) return false;
    std::vector<bool> wanted(n_ + m_, false);
    for (std::size_t col : warm.basic) {
      if (col >= n_ + m_ || wanted[col]) return false;
      wanted[col] = true;
    }
    for (std::size_t col : warm.basic) {
      bool already_basic = false;
      for (std::size_t i = 0; i < m_; ++i) already_basic = already_basic || basis_[i] == col;
      if (already_basic) continue;
      std::size_t row = m_;
      for (std::size_t i = 0; i < m_; ++i) {
        if (!wanted[basis_[i]] && !at(i, col).is_zero()) {
          row = i;
          break;
        }
      }
      if (row == m_) return false;
      pivot(row, col);
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (rhs(i).signum() < 0) return false;
    }
    return true;
  }

  [[nodiscard]] numeric::SimplexBasis extract_basis() const {
    numeric::SimplexBasis basis;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_ + m_) return numeric::SimplexBasis{};
      basis.basic.push_back(basis_[i]);
    }
    return basis;
  }

  [[nodiscard]] std::vector<double> extract_solution() const {
    std::vector<double> x(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) x[basis_[i]] = rhs(i).to_double();
    }
    return x;
  }

  [[nodiscard]] double objective_value() const {
    numeric::Rational value;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) value += objective_[basis_[i]] * rhs(i);
    }
    return value.to_double();
  }

 private:
  numeric::Rational& at(std::size_t r, std::size_t c) { return rows_[r * cols_ + c]; }
  [[nodiscard]] const numeric::Rational& at(std::size_t r, std::size_t c) const {
    return rows_[r * cols_ + c];
  }
  numeric::Rational& rhs(std::size_t r) { return at(r, cols_ - 1); }
  [[nodiscard]] const numeric::Rational& rhs(std::size_t r) const { return at(r, cols_ - 1); }

  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const numeric::Rational inverse = at(pivot_row, pivot_col).reciprocal();
    for (std::size_t j = 0; j < cols_; ++j) at(pivot_row, j) *= inverse;
    for (std::size_t r = 0; r <= m_; ++r) {
      if (r == pivot_row) continue;
      const numeric::Rational factor = at(r, pivot_col);
      if (factor.is_zero()) continue;
      for (std::size_t j = 0; j < cols_; ++j) at(r, j) -= factor * at(pivot_row, j);
    }
    basis_[pivot_row] = pivot_col;
  }

  LpStatus iterate(int max_iterations, int& iterations) {
    for (;;) {
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (at(m_, j).signum() < 0) {
          entering = j;
          break;
        }
      }
      if (entering == cols_) return LpStatus::kOptimal;
      if (iterations >= max_iterations) return LpStatus::kIterationLimit;
      std::size_t leaving = m_;
      numeric::Rational best_ratio;
      for (std::size_t i = 0; i < m_; ++i) {
        const numeric::Rational& coeff = at(i, entering);
        if (coeff.signum() <= 0) continue;
        const numeric::Rational ratio = rhs(i) / coeff;
        if (leaving == m_ || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
      if (leaving == m_) return LpStatus::kUnbounded;
      pivot(leaving, entering);
      ++iterations;
    }
  }

  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t cols_ = 0;
  std::size_t num_artificial_ = 0;
  std::vector<numeric::Rational> rows_;
  std::vector<std::size_t> basis_;
  std::vector<numeric::Rational> objective_;
};

/// SimplexSolver::maximize over the reference tableau: same warm-start
/// fallback, same budget, same fields filled for each status.
inline numeric::LpSolution rational_maximize(std::span<const double> c,
                                             const numeric::Matrix& a,
                                             std::span<const double> b,
                                             const numeric::SimplexBasis& warm = {},
                                             int max_iterations = 10000) {
  using numeric::LpStatus;
  numeric::LpSolution solution;
  RationalTableau tableau{c, a, b};
  if (!warm.empty()) {
    solution.warm_started = tableau.install_basis(warm);
    if (!solution.warm_started) tableau = RationalTableau{c, a, b};
  }
  int iterations = 0;
  LpStatus status =
      solution.warm_started ? LpStatus::kOptimal : tableau.phase1(max_iterations, iterations);
  const bool feasible = status == LpStatus::kOptimal;
  if (feasible) status = tableau.phase2(max_iterations, iterations);
  solution.status = status;
  solution.iterations = iterations;
  if (feasible && status != LpStatus::kUnbounded) {
    solution.x = tableau.extract_solution();
    solution.objective = tableau.objective_value();
    if (status == LpStatus::kOptimal) solution.basis = tableau.extract_basis();
  }
  return solution;
}

}  // namespace hetero::test_support
