#include "hetero/protocol/lp_solver.h"

#include "hetero/obs/scope.h"
#include "hetero/protocol/fifo.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace hetero::protocol {
namespace {

// Variable layout: x = [w_0..w_{n-1} | r_0..r_{n-1}], indexed by *machine*.
// w are allocations, r are result-transmission start times.
std::size_t w_var(std::size_t machine) { return machine; }
std::size_t r_var(std::size_t machine, std::size_t n) { return n + machine; }

}  // namespace

ProtocolLp protocol_lp(std::span<const double> speeds, const core::Environment& env,
                       double lifespan, const ProtocolOrders& orders) {
  const std::size_t n = speeds.size();
  if (n == 0) throw std::invalid_argument("solve_protocol_lp: empty cluster");
  if (!(lifespan > 0.0)) throw std::invalid_argument("solve_protocol_lp: lifespan must be positive");
  if (!orders.is_valid(n)) throw std::invalid_argument("solve_protocol_lp: invalid orders");
  for (double rho : speeds) {
    if (!(rho > 0.0)) throw std::invalid_argument("solve_protocol_lp: rho-values must be positive");
  }

  const double a = env.a();
  const double b = env.b();
  const double td = env.tau_delta();

  // Startup position of each machine (prefix sums of w over startup order
  // give receive times).
  std::vector<std::size_t> startup_position(n);
  for (std::size_t k = 0; k < n; ++k) startup_position[orders.startup[k]] = k;

  const std::size_t num_vars = 2 * n;
  const std::size_t num_constraints = 2 * n + 1;
  ProtocolLp lp;
  lp.constraint = numeric::Matrix(num_constraints, num_vars);
  lp.rhs.assign(num_constraints, 0.0);
  numeric::Matrix& constraint = lp.constraint;
  std::size_t row = 0;

  // (1) compute_done_m <= r_m for every machine m:
  //     A * sum_{j: pos(j) <= pos(m)} w_j + B rho_m w_m - r_m <= 0.
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t j = 0; j < n; ++j) {
      if (startup_position[j] <= startup_position[m]) constraint(row, w_var(j)) += a;
    }
    constraint(row, w_var(m)) += b * speeds[m];
    constraint(row, r_var(m, n)) -= 1.0;
    lp.rhs[row] = 0.0;
    ++row;
  }

  // (2) results serialized in finishing order:
  //     r_{f_k} + tau delta w_{f_k} - r_{f_{k+1}} <= 0.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t cur = orders.finishing[k];
    const std::size_t next = orders.finishing[k + 1];
    constraint(row, r_var(cur, n)) += 1.0;
    constraint(row, w_var(cur)) += td;
    constraint(row, r_var(next, n)) -= 1.0;
    lp.rhs[row] = 0.0;
    ++row;
  }

  // (3) the first result waits for the send phase to release the channel:
  //     A * sum(w) - r_{f_1} <= 0.
  for (std::size_t j = 0; j < n; ++j) constraint(row, w_var(j)) += a;
  constraint(row, r_var(orders.finishing.front(), n)) -= 1.0;
  lp.rhs[row] = 0.0;
  ++row;

  // (4) last result lands by the lifespan: r_{f_n} + tau delta w_{f_n} <= L.
  constraint(row, r_var(orders.finishing.back(), n)) += 1.0;
  constraint(row, w_var(orders.finishing.back())) += td;
  lp.rhs[row] = lifespan;
  ++row;

  lp.objective.assign(num_vars, 0.0);
  for (std::size_t m = 0; m < n; ++m) lp.objective[w_var(m)] = 1.0;
  return lp;
}

namespace {

LpScheduleResult materialize_schedule(const numeric::LpSolution& solution,
                                      std::span<const double> speeds,
                                      const core::Environment& env, double lifespan,
                                      const ProtocolOrders& orders) {
  LpScheduleResult result;
  result.status = solution.status;
  if (solution.status != numeric::LpStatus::kOptimal) return result;
  result.total_work = solution.objective;

  const std::size_t n = speeds.size();
  const double a = env.a();
  const double b = env.b();
  const double td = env.tau_delta();

  // Materialize the timed schedule from the LP solution.
  Schedule& schedule = result.schedule;
  schedule.lifespan = lifespan;
  schedule.speeds.assign(speeds.begin(), speeds.end());
  schedule.timelines.resize(n);
  double send_clock = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t m = orders.startup[k];
    WorkerTimeline& t = schedule.timelines[k];
    t.machine = m;
    t.work = solution.x[w_var(m)];
    t.send_start = send_clock;
    t.receive = t.send_start + a * t.work;
    send_clock = t.receive;
    t.compute_done = t.receive + b * speeds[m] * t.work;
    t.result_start = solution.x[r_var(m, n)];
    t.result_end = t.result_start + td * t.work;
  }
  return result;
}

}  // namespace

LpScheduleResult solve_protocol_lp(std::span<const double> speeds,
                                   const core::Environment& env, double lifespan,
                                   const ProtocolOrders& orders) {
  HETERO_OBS_SCOPE("protocol.solve_lp");
  const ProtocolLp lp = protocol_lp(speeds, env, lifespan, orders);
  const numeric::SimplexSolver solver;
  const numeric::LpSolution solution = solver.maximize(lp.objective, lp.constraint, lp.rhs);
  return materialize_schedule(solution, speeds, env, lifespan, orders);
}

LpScheduleResult LpResolver::solve(std::span<const double> speeds, const core::Environment& env,
                                   double lifespan, const ProtocolOrders& orders) {
  HETERO_OBS_SCOPE("protocol.solve_lp");
  const ProtocolLp lp = protocol_lp(speeds, env, lifespan, orders);
  numeric::LpSolution solution = solver_.maximize(lp.objective, lp.constraint, lp.rhs, basis_);
  ++solves_;
  if (solution.warm_started) ++warm_starts_;
  basis_ = std::move(solution.basis);  // empty again if this solve had none to offer
  return materialize_schedule(solution, speeds, env, lifespan, orders);
}

std::vector<ChannelMerge> all_channel_merges(std::size_t n) {
  std::vector<ChannelMerge> merges;
  ChannelMerge current;
  current.reserve(2 * n);
  const std::function<void(std::size_t, std::size_t)> recurse = [&](std::size_t sends,
                                                                    std::size_t results) {
    if (sends == n && results == n) {
      merges.push_back(current);
      return;
    }
    if (sends < n) {
      current.push_back(true);
      recurse(sends + 1, results);
      current.pop_back();
    }
    if (results < n) {
      current.push_back(false);
      recurse(sends, results + 1);
      current.pop_back();
    }
  };
  recurse(0, 0);
  return merges;
}

bool merge_is_causal(const ChannelMerge& merge, const ProtocolOrders& orders) {
  const std::size_t n = orders.startup.size();
  if (merge.size() != 2 * n) return false;
  std::vector<std::size_t> send_position(n, 0);
  std::vector<std::size_t> result_position(n, 0);
  std::size_t sends_seen = 0;
  std::size_t results_seen = 0;
  for (std::size_t k = 0; k < merge.size(); ++k) {
    if (merge[k]) {
      if (sends_seen >= n) return false;
      send_position[orders.startup[sends_seen++]] = k;
    } else {
      if (results_seen >= n) return false;
      result_position[orders.finishing[results_seen++]] = k;
    }
  }
  if (sends_seen != n || results_seen != n) return false;
  for (std::size_t m = 0; m < n; ++m) {
    if (send_position[m] > result_position[m]) return false;
  }
  return true;
}

ProtocolLp interleaved_lp(std::span<const double> speeds, const core::Environment& env,
                          double lifespan, const ProtocolOrders& orders,
                          const ChannelMerge& merge) {
  const std::size_t n = speeds.size();
  if (n == 0) throw std::invalid_argument("solve_interleaved_lp: empty cluster");
  if (!(lifespan > 0.0)) throw std::invalid_argument("solve_interleaved_lp: lifespan must be positive");
  if (!orders.is_valid(n)) throw std::invalid_argument("solve_interleaved_lp: invalid orders");
  if (!merge_is_causal(merge, orders)) {
    throw std::invalid_argument("solve_interleaved_lp: merge is not causal for these orders");
  }
  for (double rho : speeds) {
    if (!(rho > 0.0)) throw std::invalid_argument("solve_interleaved_lp: nonpositive rho");
  }
  const double a = env.a();
  const double b = env.b();
  const double td = env.tau_delta();

  // Variables: [w_0..w_{n-1} | t_0..t_{2n-1}] with t_k the start of the k-th
  // channel operation in merge order.
  const auto t_var = [n](std::size_t op) { return n + op; };
  // Per-op machine and duration coefficient (duration = coeff * w_machine).
  std::vector<std::size_t> op_machine(2 * n);
  std::vector<double> op_coeff(2 * n);
  std::vector<std::size_t> send_op_of_machine(n);
  std::size_t sends_seen = 0;
  std::size_t results_seen = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    if (merge[k]) {
      const std::size_t m = orders.startup[sends_seen++];
      op_machine[k] = m;
      op_coeff[k] = a;  // package + transit, serial, holding the channel
      send_op_of_machine[m] = k;
    } else {
      const std::size_t m = orders.finishing[results_seen++];
      op_machine[k] = m;
      op_coeff[k] = td;
    }
  }

  const std::size_t num_vars = 3 * n;
  const std::size_t num_constraints = (2 * n - 1) + n + 1;
  ProtocolLp lp;
  lp.constraint = numeric::Matrix(num_constraints, num_vars);
  lp.rhs.assign(num_constraints, 0.0);
  numeric::Matrix& constraint = lp.constraint;
  std::size_t row = 0;

  // (1) Channel ops do not overlap: t_{k-1} + dur_{k-1} <= t_k.
  for (std::size_t k = 1; k < 2 * n; ++k) {
    constraint(row, t_var(k - 1)) += 1.0;
    constraint(row, op_machine[k - 1]) += op_coeff[k - 1];
    constraint(row, t_var(k)) -= 1.0;
    ++row;
  }
  // (2) A result may start only after its machine finished computing:
  //     t_send(m) + (A + B rho_m) w_m <= t_result_op.
  for (std::size_t k = 0; k < 2 * n; ++k) {
    if (merge[k]) continue;
    const std::size_t m = op_machine[k];
    constraint(row, t_var(send_op_of_machine[m])) += 1.0;
    constraint(row, m) += a + b * speeds[m];
    constraint(row, t_var(k)) -= 1.0;
    ++row;
  }
  // (3) The last operation finishes by the lifespan.
  constraint(row, t_var(2 * n - 1)) += 1.0;
  constraint(row, op_machine[2 * n - 1]) += op_coeff[2 * n - 1];
  lp.rhs[row] = lifespan;
  ++row;

  lp.objective.assign(num_vars, 0.0);
  for (std::size_t m = 0; m < n; ++m) lp.objective[m] = 1.0;
  return lp;
}

LpScheduleResult solve_interleaved_lp(std::span<const double> speeds,
                                      const core::Environment& env, double lifespan,
                                      const ProtocolOrders& orders, const ChannelMerge& merge) {
  const ProtocolLp lp = interleaved_lp(speeds, env, lifespan, orders, merge);
  const numeric::LpSolution solution =
      numeric::SimplexSolver{}.maximize(lp.objective, lp.constraint, lp.rhs);

  LpScheduleResult result;
  result.status = solution.status;
  if (solution.status != numeric::LpStatus::kOptimal) return result;
  result.total_work = solution.objective;
  // Materialize a schedule (in startup order, like the other solvers); t_k
  // is variable n + k.
  const std::size_t n = speeds.size();
  Schedule& schedule = result.schedule;
  schedule.lifespan = lifespan;
  schedule.speeds.assign(speeds.begin(), speeds.end());
  std::vector<std::size_t> send_op_of_machine(n);
  std::vector<std::size_t> result_op_of_machine(n);
  std::size_t sends_seen = 0;
  std::size_t results_seen = 0;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    if (merge[k]) {
      send_op_of_machine[orders.startup[sends_seen++]] = k;
    } else {
      result_op_of_machine[orders.finishing[results_seen++]] = k;
    }
  }
  for (std::size_t m_pos = 0; m_pos < n; ++m_pos) {
    const std::size_t m = orders.startup[m_pos];
    WorkerTimeline t;
    t.machine = m;
    t.work = solution.x[m];
    t.send_start = solution.x[n + send_op_of_machine[m]];
    t.receive = t.send_start + env.a() * t.work;
    t.compute_done = t.receive + env.b() * speeds[m] * t.work;
    t.result_start = solution.x[n + result_op_of_machine[m]];
    t.result_end = t.result_start + env.tau_delta() * t.work;
    schedule.timelines.push_back(t);
  }
  return result;
}

InterleavingReport interleaving_ablation(std::span<const double> speeds,
                                         const core::Environment& env, double lifespan) {
  const std::size_t n = speeds.size();
  if (n > 3) {
    throw std::invalid_argument("interleaving_ablation: n! * n! * C(2n, n) blows up beyond n = 3");
  }
  InterleavingReport report;
  report.fifo_closed_form = fifo_total_work(speeds, env, lifespan);
  report.fifo_gap_free = fifo_gap_free_feasible(speeds, env);
  // The honest non-interleaved baseline is the channel-feasible LP optimum
  // (in communication-heavy regimes the gap-free FIFO of Theorem 2 is
  // infeasible and its closed form over-reports).
  for (const OrderPairOutcome& outcome : enumerate_order_pairs(speeds, env, lifespan)) {
    report.non_interleaved_best = std::max(report.non_interleaved_best, outcome.total_work);
  }

  const std::vector<ChannelMerge> merges = all_channel_merges(n);
  std::vector<std::size_t> sigma(n);
  std::iota(sigma.begin(), sigma.end(), std::size_t{0});
  do {
    std::vector<std::size_t> phi(n);
    std::iota(phi.begin(), phi.end(), std::size_t{0});
    do {
      ProtocolOrders orders;
      orders.startup = sigma;
      orders.finishing = phi;
      for (const ChannelMerge& merge : merges) {
        if (!merge_is_causal(merge, orders)) continue;
        const LpScheduleResult lp =
            solve_interleaved_lp(speeds, env, lifespan, orders, merge);
        ++report.programs_solved;
        if (lp.status == numeric::LpStatus::kOptimal) {
          report.interleaved_best = std::max(report.interleaved_best, lp.total_work);
        }
      }
    } while (std::next_permutation(phi.begin(), phi.end()));
  } while (std::next_permutation(sigma.begin(), sigma.end()));

  report.interleaving_helps =
      report.interleaved_best > report.non_interleaved_best * (1.0 + 1e-9);
  return report;
}

std::vector<OrderPairOutcome> enumerate_order_pairs(std::span<const double> speeds,
                                                    const core::Environment& env,
                                                    double lifespan) {
  const std::size_t n = speeds.size();
  if (n > 6) {
    throw std::invalid_argument("enumerate_order_pairs: n! * n! blows up beyond n = 6");
  }
  std::vector<std::size_t> sigma(n);
  std::iota(sigma.begin(), sigma.end(), std::size_t{0});
  std::vector<OrderPairOutcome> outcomes;
  // Adjacent permutation pairs differ by a transposition, so their LPs
  // usually share an optimal basis: warm-start each solve from the last.
  // Only total_work (the exact optimum, basis-independent) is recorded, so
  // warm-starting cannot change the outcomes even for degenerate ties.
  LpResolver resolver;
  do {
    std::vector<std::size_t> phi(n);
    std::iota(phi.begin(), phi.end(), std::size_t{0});
    do {
      ProtocolOrders orders;
      orders.startup = sigma;
      orders.finishing = phi;
      const LpScheduleResult lp = resolver.solve(speeds, env, lifespan, orders);
      OrderPairOutcome outcome;
      outcome.orders = std::move(orders);
      outcome.total_work =
          lp.status == numeric::LpStatus::kOptimal ? lp.total_work : -1.0;
      outcomes.push_back(std::move(outcome));
    } while (std::next_permutation(phi.begin(), phi.end()));
  } while (std::next_permutation(sigma.begin(), sigma.end()));
  return outcomes;
}

}  // namespace hetero::protocol
