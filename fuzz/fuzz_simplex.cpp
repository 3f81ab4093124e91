// libFuzzer target: the fraction-free exact simplex against the
// reduced-Rational reference tableau on small LPs built from the fuzz
// bytes — status, objective, x, iterations, basis and warm_started must be
// bit-identical, across phase 1, degenerate ties, iteration budgets and
// arbitrary (often malformed) warm bases.  The only exception either solver
// may raise is std::invalid_argument for a shape mismatch, and then both
// must raise it.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "../tests/support/rational_simplex.h"
#include "hetero/numeric/matrix.h"
#include "hetero/numeric/simplex.h"

namespace numeric = hetero::numeric;

namespace {

/// Minimal deterministic byte reader (zeros once the input runs out).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_{data}, size_{size} {}

  std::uint8_t byte() { return pos_ < size_ ? data_[pos_++] : 0u; }

  /// A coefficient: mostly small dyadics (so ties and degeneracy are common),
  /// sometimes a raw finite double (so huge exponent spreads occur).
  double coefficient() {
    const std::uint8_t tag = byte();
    if (tag < 224) {
      const auto numerator = static_cast<std::int8_t>(byte()) / 16;
      return numerator / static_cast<double>(1u << (tag % 6));
    }
    std::uint64_t raw = 0;
    for (int i = 0; i < 8; ++i) raw = (raw << 8) | byte();
    const double value = std::bit_cast<double>(raw);
    return value - value == 0.0 ? value : 1.0;  // NaN/inf become 1
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool same(const numeric::LpSolution& a, const numeric::LpSolution& b) {
  if (a.status != b.status || a.iterations != b.iterations ||
      a.warm_started != b.warm_started || a.basis.basic != b.basis.basic ||
      std::bit_cast<std::uint64_t>(a.objective) != std::bit_cast<std::uint64_t>(b.objective) ||
      a.x.size() != b.x.size()) {
    return false;
  }
  return a.x.empty() || std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  Reader reader{data, size};
  const std::uint8_t shape = reader.byte();
  const std::size_t rows = shape % 6;
  const std::size_t cols = (shape / 6) % 6;
  // One input in sixteen mis-sizes c or b: the documented shape error.
  const std::uint8_t flags = reader.byte();
  const std::size_t c_size = (flags & 0x0f) == 1 ? cols + 1 : cols;
  const std::size_t b_size = (flags & 0x0f) == 2 ? rows + 1 : rows;
  const int budget = (flags & 0x30) == 0x30 ? reader.byte() % 8 : 10000;

  numeric::Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = reader.coefficient();
  }
  std::vector<double> b(b_size);
  for (double& value : b) value = reader.coefficient();
  std::vector<double> c(c_size);
  for (double& value : c) value = reader.coefficient();

  // A warm basis of arbitrary length and contents: valid, stale, singular,
  // duplicated and out-of-range bases all occur.
  numeric::SimplexBasis warm;
  if ((flags & 0x40) != 0) {
    const std::size_t length = reader.byte() % (rows + 2);
    for (std::size_t k = 0; k < length; ++k) {
      warm.basic.push_back(reader.byte() % (rows + cols + 2));
    }
  }

  const numeric::SimplexSolver solver{numeric::SimplexSolver::Options{budget}};
  numeric::LpSolution got;
  numeric::LpSolution want;
  bool got_threw = false;
  bool want_threw = false;
  try {
    got = solver.maximize(c, a, b, warm);
  } catch (const std::invalid_argument&) {
    got_threw = true;
  }
  try {
    want = hetero::test_support::rational_maximize(c, a, b, warm, budget);
  } catch (const std::invalid_argument&) {
    want_threw = true;
  }
  const bool mis_shaped = c_size != cols || b_size != rows;
  if (got_threw != mis_shaped || want_threw != mis_shaped) __builtin_trap();
  if (!mis_shaped && !same(got, want)) __builtin_trap();
  // A returned basis always warm-starts its own LP back to the same answer.
  if (!mis_shaped && !got.basis.empty()) {
    const numeric::LpSolution again = solver.maximize(c, a, b, got.basis);
    if (!again.warm_started || again.status != got.status ||
        std::bit_cast<std::uint64_t>(again.objective) !=
            std::bit_cast<std::uint64_t>(got.objective)) {
      __builtin_trap();
    }
  }
  return 0;
}
