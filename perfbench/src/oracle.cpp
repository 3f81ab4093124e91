// Answer oracle: every 2xx body heterod returns is checked against a direct
// call into the library, so a fast wrong answer (or an error page) can never
// pass as a benchmark result.
//
// Single-profile answers must be bit-identical to the library: X to
// core::x_measure_serial over the canonical (sorted) profile — the contract
// of the server's incremental evaluator — allocations to
// core::fifo_allocations_in_order, exact allocations to a cold
// protocol::solve_protocol_lp, upgrades to core::evaluate_*_upgrades and
// core::greedy_upgrade_plan.  Batch answers come from the vectorized
// kernels and must match core::x_measure within a few ulp.

#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "bench.h"
#include "hetero/core/batch.h"
#include "hetero/core/power.h"
#include "hetero/core/speedup.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/service/fingerprint.h"
#include "hetero/service/json.h"

namespace perfbench {

namespace {

using hetero::service::Json;

/// Largest distance, in units in the last place, allowed between a batch
/// answer and core::x_measure (the two are documented to agree "to a few
/// ulp"; core::x_measure itself is within a few sqrt(n) ulp of the serial
/// reference).
constexpr std::int64_t kBatchUlps = 16;

struct Checker {
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) error = what;
    return false;
  }
  bool same(double got, double want, const char* what) {
    if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) return true;
    return fail(std::string{what} + ": got " + fmt(got) + ", want " + fmt(want));
  }
  bool same_vector(const Json& got, const std::vector<double>& want, const char* what) {
    if (!got.is_array() || got.items().size() != want.size()) {
      return fail(std::string{what} + ": wrong length");
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!same(got.items()[i].number(), want[i], what)) return false;
    }
    return true;
  }
};

std::int64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  if ((ia < 0) != (ib < 0)) return a == b ? 0 : INT64_MAX;
  return std::llabs(ia - ib);
}

}  // namespace

std::string check_answer(const Query& query, const std::string& body) {
  namespace core = hetero::core;
  const core::Environment env = core::Environment::paper_default();
  Checker c;
  try {
    const Json answer = Json::parse(body);
    if (answer.find("degraded") != nullptr) return "degraded answer";

    if (query.endpoint == Endpoint::kXBatch) {
      const Json::Array& xs = answer.at("x").items();
      if (xs.size() != query.batch.size()) return "batch: wrong length";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const double want = core::x_measure(query.batch[i], env);
        if (ulp_distance(xs[i].number(), want) > kBatchUlps) {
          return "batch x[" + std::to_string(i) + "]: got " + fmt(xs[i].number()) +
                 ", want " + fmt(want);
        }
      }
      return {};
    }

    const std::vector<double> speeds = hetero::service::canonical_speeds(query.speeds);
    const double x = core::x_measure_serial(speeds, env);
    if (answer.at("n").number() != static_cast<double>(speeds.size())) return "wrong n";

    switch (query.endpoint) {
      case Endpoint::kX:
        c.same(answer.at("x").number(), x, "x");
        break;
      case Endpoint::kMakespan: {
        // Theorem 2: W(L; P) = L / (tau delta + 1/X).
        const double per_unit = env.tau_delta() + 1.0 / x;
        c.same(answer.at("x").number(), x, "x") &&
            c.same(answer.at("work").number(), query.param / per_unit, "work") &&
            c.same(answer.at("work_rate").number(), 1.0 / per_unit, "work_rate");
        break;
      }
      case Endpoint::kHecr:
        c.same(answer.at("x").number(), x, "x") &&
            c.same(answer.at("hecr").number(), core::hecr_from_x(x, speeds.size(), env),
                   "hecr");
        break;
      case Endpoint::kAllocate:
      case Endpoint::kAllocateExact: {
        const std::vector<double> fifo =
            core::fifo_allocations_in_order(speeds, env, query.param);
        if (!c.same(answer.at("x").number(), x, "x") ||
            !c.same_vector(answer.at("allocations"), fifo, "allocations")) {
          break;
        }
        if (query.endpoint == Endpoint::kAllocate) {
          if (answer.find("lp") != nullptr) c.fail("unexpected lp member");
          break;
        }
        const hetero::protocol::LpScheduleResult lp = hetero::protocol::solve_protocol_lp(
            speeds, env, query.param, hetero::protocol::ProtocolOrders::fifo(speeds.size()));
        const Json& got = answer.at("lp");
        if (lp.status != hetero::numeric::LpStatus::kOptimal ||
            got.at("status").string() != "optimal") {
          c.fail("lp not optimal");
          break;
        }
        std::vector<double> shares(speeds.size(), 0.0);
        for (const auto& line : lp.schedule.timelines) shares[line.machine] = line.work;
        c.same(got.at("total_work").number(), lp.total_work, "lp.total_work") &&
            c.same_vector(got.at("allocations"), shares, "lp.allocations");
        break;
      }
      case Endpoint::kUpgrade:
      case Endpoint::kUpgradePlan: {
        const core::Profile profile{speeds};
        const core::UpgradeEvaluation eval =
            query.multiplicative
                ? core::evaluate_multiplicative_upgrades(profile, query.param, env)
                : core::evaluate_additive_upgrades(profile, query.param, env);
        if (!c.same(answer.at("best_power_index").number(),
                    static_cast<double>(eval.best_power_index), "best_power_index") ||
            !c.same(answer.at("best_x").number(), eval.best_x, "best_x") ||
            !c.same_vector(answer.at("x_by_target"), eval.x_by_target, "x_by_target")) {
          break;
        }
        if (query.endpoint == Endpoint::kUpgrade) {
          if (answer.find("plan") != nullptr) c.fail("unexpected plan member");
          break;
        }
        const std::vector<core::UpgradeStep> plan = core::greedy_upgrade_plan(
            speeds,
            query.multiplicative ? core::UpgradeKind::kMultiplicative
                                 : core::UpgradeKind::kAdditive,
            query.param, query.rounds, env);
        const Json::Array& steps = answer.at("plan").items();
        if (steps.size() != plan.size()) {
          c.fail("plan: wrong length");
          break;
        }
        for (std::size_t i = 0; i < plan.size(); ++i) {
          if (!c.same(steps[i].at("machine").number(), static_cast<double>(plan[i].machine),
                      "plan.machine") ||
              !c.same(steps[i].at("x_after").number(), plan[i].x_after, "plan.x_after")) {
            break;
          }
        }
        break;
      }
      case Endpoint::kXBatch:
        break;
    }
  } catch (const std::exception& error) {
    return std::string{"unreadable answer: "} + error.what();
  }
  return c.error;
}

}  // namespace perfbench
