#pragma once

// Optimal worksharing for arbitrary (startup, finishing)-order pairs, as a
// linear program.
//
// Fixing Sigma and Phi, the CEP becomes: choose allocations w >= 0 and
// result-transmission start times r >= 0 maximizing sum(w) subject to
//   * sends run seriatim from time 0 (gaps in sends can only hurt), so
//     worker at startup position k receives at A * (w_{s_1}+...+w_{s_k});
//   * a result may start only after its worker finishes computing;
//   * results run in finishing order on the single channel, and none may
//     start before the send phase has released the channel;
//   * the last result lands by the lifespan L.
// This is the machinery that lets us *verify* Theorem 1 (FIFO optimality and
// startup-order independence) instead of assuming it: enumerate order pairs,
// solve each LP, compare optima.

#include <cstdint>
#include <span>
#include <vector>

#include "hetero/core/environment.h"
#include "hetero/numeric/matrix.h"
#include "hetero/numeric/simplex.h"
#include "hetero/protocol/schedule.h"

namespace hetero::protocol {

struct LpScheduleResult {
  numeric::LpStatus status = numeric::LpStatus::kIterationLimit;
  double total_work = 0.0;
  Schedule schedule;  ///< populated only when status == kOptimal
};

/// A protocol LP in the solver's standard form: maximize objective.x
/// subject to constraint x <= rhs, x >= 0.
struct ProtocolLp {
  std::vector<double> objective;
  numeric::Matrix constraint;
  std::vector<double> rhs;
};

/// The fixed-order CEP as an LP; variables are [w_0..w_{n-1} | r_0..r_{n-1}]
/// (allocations, then result-transmission starts, indexed by machine).
/// Throws std::invalid_argument on invalid orders/speeds/lifespan.
[[nodiscard]] ProtocolLp protocol_lp(std::span<const double> speeds,
                                     const core::Environment& env, double lifespan,
                                     const ProtocolOrders& orders);

/// Solves the fixed-order CEP exactly.  Throws std::invalid_argument on
/// invalid orders/speeds/lifespan.
[[nodiscard]] LpScheduleResult solve_protocol_lp(std::span<const double> speeds,
                                                 const core::Environment& env, double lifespan,
                                                 const ProtocolOrders& orders);

/// Warm-started re-solver for families of related protocol LPs (lifespan or
/// speed sweep grids, order enumerations).  Remembers the optimal basis of
/// the previous solve and seeds the next one with it: neighbouring cells of
/// a sweep usually share their optimal basis, so the simplex starts at (or
/// one pivot from) the answer instead of replaying phase 1 + phase 2.
///
/// Correctness contract: each solve returns exactly what solve_protocol_lp
/// would (bit-identical status/total_work/schedule whenever the LP optimum
/// is unique — see SimplexSolver's warm-start contract); the cached basis is
/// only a starting point, and the solver falls back to a cold start whenever
/// it does not transfer.  Not thread-safe; use one resolver per thread.
class LpResolver {
 public:
  LpResolver() = default;
  explicit LpResolver(const numeric::SimplexSolver::Options& options) : solver_{options} {}

  /// Same semantics and validation as solve_protocol_lp.
  [[nodiscard]] LpScheduleResult solve(std::span<const double> speeds,
                                       const core::Environment& env, double lifespan,
                                       const ProtocolOrders& orders);

  /// Drops the cached basis; the next solve starts cold.
  void reset() noexcept { basis_.basic.clear(); }

  [[nodiscard]] std::uint64_t solves() const noexcept { return solves_; }
  /// Solves that actually started from the cached basis.
  [[nodiscard]] std::uint64_t warm_starts() const noexcept { return warm_starts_; }

 private:
  numeric::SimplexSolver solver_;
  numeric::SimplexBasis basis_;
  std::uint64_t solves_ = 0;
  std::uint64_t warm_starts_ = 0;
};

/// One row of the Theorem-1 validation sweep.
struct OrderPairOutcome {
  ProtocolOrders orders;
  double total_work = 0.0;
};

/// Solves the LP for every (Sigma, Phi) permutation pair of an n-machine
/// cluster (n! * n! LPs — intended for n <= 5) and returns all outcomes.
/// Theorem 1 predicts: the maximum is attained by every FIFO pair, and all
/// FIFO pairs tie.
[[nodiscard]] std::vector<OrderPairOutcome> enumerate_order_pairs(
    std::span<const double> speeds, const core::Environment& env, double lifespan);

// ------------------------------------------------------------------------
// Channel-interleaving extension.
//
// The CEP protocols send all work packages before any result returns.  Is
// that structure ever suboptimal — could slipping an early result *between*
// two sends buy work?  A fixed interleaving of the channel's 2n operations
// (sends in Sigma order, results in Phi order) still yields an LP; sweeping
// all C(2n, n) interleavings answers the question exhaustively for small n.

/// Channel operation sequence: true = next work message (in startup order),
/// false = next result message (in finishing order).  Must contain exactly
/// n of each.
using ChannelMerge = std::vector<bool>;

/// All C(2n, n) interleavings of n sends and n results.
[[nodiscard]] std::vector<ChannelMerge> all_channel_merges(std::size_t n);

/// True when every machine's send precedes its result in the merged
/// channel sequence (a physical prerequisite).
[[nodiscard]] bool merge_is_causal(const ChannelMerge& merge, const ProtocolOrders& orders);

/// The interleaved-channel LP; variables are [w_0..w_{n-1} | t_0..t_{2n-1}]
/// with t_k the start of the k-th channel operation in merge order.  Throws
/// like solve_interleaved_lp.
[[nodiscard]] ProtocolLp interleaved_lp(std::span<const double> speeds,
                                        const core::Environment& env, double lifespan,
                                        const ProtocolOrders& orders, const ChannelMerge& merge);

/// Maximum work under the given orders *and* channel interleaving (exact
/// LP).  Throws std::invalid_argument on malformed inputs or an acausal
/// merge.  The all-sends-first merge reproduces solve_protocol_lp (its
/// feasible set is a superset — sends may idle — with the same optimum).
[[nodiscard]] LpScheduleResult solve_interleaved_lp(std::span<const double> speeds,
                                                    const core::Environment& env,
                                                    double lifespan,
                                                    const ProtocolOrders& orders,
                                                    const ChannelMerge& merge);

struct InterleavingReport {
  double non_interleaved_best = 0.0;  ///< channel-feasible optimum over (Sigma, Phi)
  double interleaved_best = 0.0;      ///< max over orders x causal merges
  double fifo_closed_form = 0.0;      ///< Theorem 2's W(L; P)
  bool fifo_gap_free = true;          ///< gap-free FIFO physically feasible?
  std::size_t programs_solved = 0;
  bool interleaving_helps = false;    ///< interleaved_best > non_interleaved_best
};

/// Exhaustive interleaving sweep over all (Sigma, Phi) pairs and causal
/// merges; intended for n <= 3 (n = 3 is 36 x 20 LPs).
[[nodiscard]] InterleavingReport interleaving_ablation(std::span<const double> speeds,
                                                       const core::Environment& env,
                                                       double lifespan);

}  // namespace hetero::protocol
