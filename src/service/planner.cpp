#include "hetero/service/planner.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "hetero/core/batch.h"
#include "hetero/core/power.h"
#include "hetero/core/profile.h"
#include "hetero/core/speedup.h"
#include "hetero/core/xmeasure.h"
#include "hetero/obs/metrics.h"
#include "hetero/obs/prometheus.h"
#include "hetero/obs/scope.h"
#include "hetero/protocol/lp_solver.h"
#include "hetero/service/json.h"

#ifndef HETERO_SERVICE_VERSION
#define HETERO_SERVICE_VERSION "0.0.0"
#endif

namespace hetero::service {

namespace {

// --------------------------------------------------------------------------
// Request-shape validation.  Every malformed-request path throws
// std::invalid_argument with a message that ends up verbatim in the 400
// body, so clients see *which* member was wrong, not just "bad request".

[[nodiscard]] const Json& require(const Json& body, std::string_view key) {
  const Json* found = body.find(key);
  if (found == nullptr) {
    throw std::invalid_argument("missing required member \"" + std::string{key} + "\"");
  }
  return *found;
}

[[nodiscard]] double require_number(const Json& body, std::string_view key) {
  const Json& value = require(body, key);
  if (!value.is_number()) {
    throw std::invalid_argument("member \"" + std::string{key} + "\" must be a number");
  }
  return value.number();
}

[[nodiscard]] double optional_number(const Json& body, std::string_view key, double fallback) {
  const Json* found = body.find(key);
  if (found == nullptr) return fallback;
  if (!found->is_number()) {
    throw std::invalid_argument("member \"" + std::string{key} + "\" must be a number");
  }
  return found->number();
}

[[nodiscard]] bool optional_bool(const Json& body, std::string_view key, bool fallback) {
  const Json* found = body.find(key);
  if (found == nullptr) return fallback;
  if (!found->is_bool()) {
    throw std::invalid_argument("member \"" + std::string{key} + "\" must be a boolean");
  }
  return found->boolean();
}

[[nodiscard]] std::vector<double> parse_rate_vector(const Json& value, std::size_t max_machines,
                                                    std::string_view what) {
  if (!value.is_array() || value.items().empty()) {
    throw std::invalid_argument(std::string{what} + " must be a non-empty array of rates");
  }
  const Json::Array& items = value.items();
  if (items.size() > max_machines) {
    throw std::invalid_argument(std::string{what} + " exceeds the " +
                                std::to_string(max_machines) + "-machine limit");
  }
  std::vector<double> speeds;
  speeds.reserve(items.size());
  for (const Json& item : items) {
    if (!item.is_number()) {
      throw std::invalid_argument(std::string{what} + " must contain only numbers");
    }
    const double rho = item.number();
    if (!std::isfinite(rho) || rho <= 0.0) {
      throw std::invalid_argument(std::string{what} +
                                  " rates must be finite and positive");
    }
    speeds.push_back(rho);
  }
  return speeds;
}

/// The request's environment: the configured default unless an "env" object
/// overrides tau/pi/delta (Environment's constructor validates the result).
[[nodiscard]] core::Environment request_env(const Json& body, const core::Environment& fallback) {
  const Json* env = body.find("env");
  if (env == nullptr) return fallback;
  if (!env->is_object()) throw std::invalid_argument("member \"env\" must be an object");
  core::Environment::Params params;
  params.tau = optional_number(*env, "tau", fallback.tau());
  params.pi = optional_number(*env, "pi", fallback.pi());
  params.delta = optional_number(*env, "delta", fallback.delta());
  try {
    return core::Environment{params};
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string{"invalid env: "} + error.what());
  }
}

[[nodiscard]] Json json_vector(std::span<const double> values) {
  Json array = Json::array();
  for (const double v : values) array.push_back(Json{v});
  return array;
}

// --------------------------------------------------------------------------
// Deadline header.  The client states its remaining budget in milliseconds;
// 0 means "already expired" (useful for deterministic shed tests and for
// proxies forwarding a blown budget).  Malformed values are a 400 — a
// deadline the server silently ignored would be worse than a rejection.

constexpr std::uint64_t kMaxDeadlineMs = 24ull * 3600 * 1000;

struct DeadlineParse {
  bool malformed = false;
  bool expired = false;
  core::CancelToken token;  ///< inert when the header was absent
};

[[nodiscard]] DeadlineParse parse_deadline(const HttpRequest& request) {
  DeadlineParse parsed;
  const std::string_view header = request.header("X-Hetero-Deadline-Ms");
  if (header.empty()) return parsed;
  std::uint64_t ms = 0;
  const auto [end, ec] = std::from_chars(header.data(), header.data() + header.size(), ms);
  if (ec != std::errc{} || end != header.data() + header.size() || ms > kMaxDeadlineMs) {
    parsed.malformed = true;
    return parsed;
  }
  if (ms == 0) {
    parsed.expired = true;
    return parsed;
  }
  parsed.token = core::CancelToken{}.with_timeout(std::chrono::milliseconds{ms});
  return parsed;
}

[[nodiscard]] HttpResponse shed_response(const char* reason, int retry_after_s) {
  HttpResponse response =
      HttpResponse::error(503, std::string{"overloaded: shed ("} + reason + ")");
  response.headers.emplace_back("Retry-After", std::to_string(retry_after_s));
  return response;
}

// --------------------------------------------------------------------------
// Thread-local evaluation state.
//
// The X path keeps one incremental XMeasure per worker thread: repeat
// queries for the same fleet cost a vector compare, near-miss queries
// (a few machines re-rated) commit only the diff, and everything stays
// bit-identical to x_measure_serial by the evaluator's invariant.  The
// allocate path keeps one LpResolver per thread so sweeps of related exact
// queries warm-start from the previous basis.

struct XThreadState {
  double tau = -1.0;
  double pi = -1.0;
  double delta = -1.0;
  std::optional<core::XMeasure> evaluator;
};

constexpr std::size_t kIncrementalDiffLimit = 8;

[[nodiscard]] double serve_x(std::span<const double> speeds, const core::Environment& env) {
  thread_local XThreadState state;
  [[maybe_unused]] static obs::Counter& rebuilds = obs::counter("service.x.rebuilds");
  [[maybe_unused]] static obs::Counter& incremental = obs::counter("service.x.incremental");
  [[maybe_unused]] static obs::Counter& reused = obs::counter("service.x.reused");

  const bool same_env = state.evaluator.has_value() && state.tau == env.tau() &&
                        state.pi == env.pi() && state.delta == env.delta();
  if (same_env && state.evaluator->size() == speeds.size()) {
    const std::vector<double>& current = state.evaluator->speeds();
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < speeds.size() && diffs <= kIncrementalDiffLimit; ++i) {
      if (current[i] != speeds[i]) ++diffs;
    }
    if (diffs == 0) {
      reused.add(1);
      return state.evaluator->value();
    }
    if (diffs <= kIncrementalDiffLimit) {
      for (std::size_t i = 0; i < speeds.size(); ++i) {
        if (state.evaluator->speeds()[i] != speeds[i]) state.evaluator->set_rho(i, speeds[i]);
      }
      incremental.add(1);
      return state.evaluator->value();
    }
    state.evaluator->assign(speeds);
    rebuilds.add(1);
    return state.evaluator->value();
  }

  state.evaluator.emplace(speeds, env);
  state.tau = env.tau();
  state.pi = env.pi();
  state.delta = env.delta();
  rebuilds.add(1);
  return state.evaluator->value();
}

[[nodiscard]] protocol::LpResolver& thread_resolver() {
  thread_local protocol::LpResolver resolver;
  return resolver;
}

// --------------------------------------------------------------------------
// Endpoint computations (body JSON in, response JSON out).  All of these
// receive the *canonical* (sorted nonincreasing) rate vector.

[[nodiscard]] Json compute_x(std::span<const double> speeds, const core::Environment& env) {
  Json out = Json::object();
  out.set("n", Json{speeds.size()});
  out.set("x", Json{serve_x(speeds, env)});
  return out;
}

[[nodiscard]] Json compute_makespan(std::span<const double> speeds, const core::Environment& env,
                                    bool have_lifespan, double param) {
  const double x = serve_x(speeds, env);
  Json out = Json::object();
  out.set("n", Json{speeds.size()});
  out.set("x", Json{x});
  // Theorem 2 and its CRP inverse, both in terms of the already-computed X
  // so the cached X path is the only X evaluation.
  const double per_unit = env.tau_delta() + 1.0 / x;
  if (have_lifespan) {
    out.set("lifespan", Json{param});
    out.set("work", Json{param / per_unit});
    out.set("work_rate", Json{1.0 / per_unit});
  } else {
    out.set("work", Json{param});
    out.set("lifespan", Json{param * per_unit});
  }
  return out;
}

[[nodiscard]] Json compute_hecr(std::span<const double> speeds, const core::Environment& env) {
  const double x = serve_x(speeds, env);
  Json out = Json::object();
  out.set("n", Json{speeds.size()});
  out.set("x", Json{x});
  out.set("hecr", Json{core::hecr_from_x(x, speeds.size(), env)});
  return out;
}

[[nodiscard]] Json compute_allocate(const std::vector<double>& speeds,
                                    const core::Environment& env, double lifespan, bool exact,
                                    std::size_t max_exact_machines) {
  Json out = Json::object();
  out.set("n", Json{speeds.size()});
  out.set("profile", json_vector(speeds));
  out.set("lifespan", Json{lifespan});

  const std::vector<double> allocations =
      core::fifo_allocations_in_order(speeds, env, lifespan);
  double total = 0.0;
  for (const double w : allocations) total += w;
  out.set("allocations", json_vector(allocations));
  out.set("total_work", Json{total});
  out.set("x", Json{serve_x(speeds, env)});

  if (exact) {
    if (speeds.size() > max_exact_machines) {
      throw std::invalid_argument("exact LP allocation is limited to " +
                                  std::to_string(max_exact_machines) + " machines");
    }
    // Channel-feasible optimum via the warm-started resolver; by the
    // warm-start contract the answer is bit-identical whether or not the
    // cached basis transferred, so the cacheable body stays deterministic.
    // The counter is the caching contract's witness: a cache hit must answer
    // a repeated exact query without bumping it.
    [[maybe_unused]] static obs::Counter& lp_solves = obs::counter("service.lp_solves");
    lp_solves.add(1);
    const protocol::LpScheduleResult lp = thread_resolver().solve(
        speeds, env, lifespan, protocol::ProtocolOrders::fifo(speeds.size()));
    Json lp_out = Json::object();
    lp_out.set("status",
               Json{lp.status == numeric::LpStatus::kOptimal ? "optimal" : "not-optimal"});
    lp_out.set("total_work", Json{lp.total_work});
    if (lp.status == numeric::LpStatus::kOptimal) {
      std::vector<double> lp_allocations(speeds.size(), 0.0);
      for (const protocol::WorkerTimeline& line : lp.schedule.timelines) {
        lp_allocations[line.machine] = line.work;
      }
      lp_out.set("allocations", json_vector(lp_allocations));
    }
    out.set("lp", std::move(lp_out));
  }
  return out;
}

[[nodiscard]] Json compute_upgrade(const std::vector<double>& speeds,
                                   const core::Environment& env, bool multiplicative,
                                   double amount, int rounds) {
  const core::Profile profile{speeds};
  Json out = Json::object();
  out.set("n", Json{speeds.size()});
  out.set("kind", Json{multiplicative ? "multiplicative" : "additive"});
  out.set("amount", Json{amount});

  const core::UpgradeEvaluation eval =
      multiplicative ? core::evaluate_multiplicative_upgrades(profile, amount, env)
                     : core::evaluate_additive_upgrades(profile, amount, env);
  out.set("best_power_index", Json{eval.best_power_index});
  out.set("best_x", Json{eval.best_x});
  out.set("x_by_target", json_vector(eval.x_by_target));

  if (rounds > 0) {
    const std::vector<core::UpgradeStep> plan = core::greedy_upgrade_plan(
        speeds,
        multiplicative ? core::UpgradeKind::kMultiplicative : core::UpgradeKind::kAdditive,
        amount, rounds, env);
    Json steps = Json::array();
    for (const core::UpgradeStep& step : plan) {
      Json entry = Json::object();
      entry.set("machine", Json{step.machine});
      entry.set("x_after", Json{step.x_after});
      steps.push_back(std::move(entry));
    }
    out.set("plan", std::move(steps));
  }
  return out;
}

}  // namespace

Planner::Planner(PlannerConfig config)
    : config_{std::move(config)},
      cache_{config_.cache_capacity, config_.cache_shards},
      overload_{config_.overload} {}

std::string Planner::version_string() { return "heterod/" HETERO_SERVICE_VERSION; }

HttpResponse Planner::handle(const HttpRequest& request) {
  [[maybe_unused]] static obs::Counter& requests = obs::counter("service.requests");
  [[maybe_unused]] static obs::Counter& status_2xx = obs::counter("service.status_2xx");
  [[maybe_unused]] static obs::Counter& status_4xx = obs::counter("service.status_4xx");
  [[maybe_unused]] static obs::Counter& status_5xx = obs::counter("service.status_5xx");
  requests.add(1);

  HttpResponse response;
  {
    HETERO_OBS_SCOPE("service.handle");
    [[maybe_unused]] static obs::Histogram& latency = obs::histogram("service.request_us");
    const std::uint64_t start_ns = obs::kEnabled ? obs::SpanCollector::now_ns() : 0;

    // Deadline, then admission, then work — rejecting is the cheap path and
    // must stay cheap, so nothing beyond the headers is inspected yet.
    const DeadlineParse deadline = parse_deadline(request);
    if (deadline.malformed) {
      response = HttpResponse::error(
          400, "malformed X-Hetero-Deadline-Ms (nonnegative integer milliseconds)");
    } else {
      const CostClass cost = OverloadController::classify(request.method, request.target);
      const OverloadController::Ticket ticket =
          overload_.admit(cost, request.target, deadline.expired);
      if (!ticket.admitted()) {
        response = shed_response(ticket.shed_reason(), config_.overload.retry_after_s);
      } else {
        response = dispatch(request, deadline.token);
      }
    }

    if constexpr (obs::kEnabled) {
      latency.record(static_cast<double>(obs::SpanCollector::now_ns() - start_ns) / 1000.0);
    }
  }

  if (response.status >= 500) status_5xx.add(1);
  else if (response.status >= 400) status_4xx.add(1);
  else status_2xx.add(1);
  return response;
}

HttpResponse Planner::dispatch(const HttpRequest& request, const core::CancelToken& token) {
  const std::string& target = request.target;

  // Operational GET surface.
  if (target == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return HttpResponse::error(405, "use GET");
    }
    return HttpResponse::text(200, "ok\n");
  }
  if (target == "/metrics") {
    if (request.method != "GET" && request.method != "HEAD") {
      return HttpResponse::error(405, "use GET");
    }
    return HttpResponse::text(200, obs::prometheus_text(obs::Registry::global().snapshot()));
  }
  if (target == "/version") {
    if (request.method != "GET" && request.method != "HEAD") {
      return HttpResponse::error(405, "use GET");
    }
    Json out = Json::object();
    out.set("server", Json{version_string()});
    out.set("api", Json{"v1"});
    out.set("obs", Json{obs::kEnabled});
    return HttpResponse::json(200, out.dump());
  }

  // Query endpoints.
  QueryKind kind;
  if (target == "/v1/x") kind = QueryKind::kX;
  else if (target == "/v1/makespan") kind = QueryKind::kMakespan;
  else if (target == "/v1/hecr") kind = QueryKind::kHecr;
  else if (target == "/v1/allocate") kind = QueryKind::kAllocate;
  else if (target == "/v1/upgrade") kind = QueryKind::kUpgrade;
  else return HttpResponse::error(404, "unknown route " + target);

  if (request.method != "POST") {
    return HttpResponse::error(405, "planning queries use POST");
  }

  try {
    Json body = Json::object();
    if (!request.body.empty()) {
      try {
        body = Json::parse(request.body);
      } catch (const JsonError& error) {
        return HttpResponse::error(400, std::string{"malformed JSON: "} + error.what());
      }
    }
    if (!body.is_object()) {
      return HttpResponse::error(400, "request body must be a JSON object");
    }
    const core::Environment env = request_env(body, config_.env);

    // Batch admission: /v1/x with "profiles" evaluates the whole batch in
    // one core::batch_evaluate sweep (optionally fanned out on the
    // configured executor) and bypasses the single-profile cache.
    if (kind == QueryKind::kX && body.contains("profiles")) {
      const Json& batch = body.at("profiles");
      if (!batch.is_array() || batch.items().empty()) {
        throw std::invalid_argument("member \"profiles\" must be a non-empty array");
      }
      if (batch.items().size() > config_.max_batch_profiles) {
        throw std::invalid_argument("batch exceeds the " +
                                    std::to_string(config_.max_batch_profiles) +
                                    "-profile limit");
      }
      [[maybe_unused]] static obs::Counter& batch_queries =
          obs::counter("service.queries.x_batch");
      batch_queries.add(1);
      std::vector<std::vector<double>> profiles;
      profiles.reserve(batch.items().size());
      for (const Json& entry : batch.items()) {
        profiles.push_back(parse_rate_vector(entry, config_.max_machines, "each profile"));
      }
      std::vector<std::span<const double>> views;
      views.reserve(profiles.size());
      for (const std::vector<double>& p : profiles) views.emplace_back(p);
      core::BatchRequest measures;
      measures.x = true;
      std::vector<core::ProfileMeasures> results(profiles.size());
      core::batch_evaluate_into(views, env, measures, results);
      Json xs = Json::array();
      for (const core::ProfileMeasures& m : results) xs.push_back(Json{m.x});
      Json out = Json::object();
      out.set("n", Json{profiles.size()});
      out.set("x", std::move(xs));
      HttpResponse response = HttpResponse::json(200, out.dump());
      response.headers.emplace_back("X-Hetero-Cache", "bypass");
      return response;
    }

    const std::vector<double> speeds = canonical_speeds(
        parse_rate_vector(require(body, "profile"), config_.max_machines, "\"profile\""));

    // Build the cache key (endpoint-specific scalars + flags).
    double param0 = 0.0;
    double param1 = 0.0;
    std::uint32_t flags = 0;
    bool have_lifespan = true;
    bool exact = false;
    bool multiplicative = false;
    int rounds = 0;
    switch (kind) {
      case QueryKind::kX:
      case QueryKind::kHecr:
        break;
      case QueryKind::kMakespan: {
        const bool has_l = body.contains("lifespan");
        const bool has_w = body.contains("work");
        if (has_l == has_w) {
          throw std::invalid_argument(
              "provide exactly one of \"lifespan\" (work produced) or \"work\" "
              "(lifespan required)");
        }
        have_lifespan = has_l;
        param0 = require_number(body, has_l ? "lifespan" : "work");
        if (!std::isfinite(param0) || param0 <= 0.0) {
          throw std::invalid_argument("\"lifespan\"/\"work\" must be finite and positive");
        }
        flags = has_l ? 0 : 1;
        break;
      }
      case QueryKind::kAllocate: {
        param0 = require_number(body, "lifespan");
        if (!std::isfinite(param0) || param0 <= 0.0) {
          throw std::invalid_argument("\"lifespan\" must be finite and positive");
        }
        exact = optional_bool(body, "exact", false);
        flags = exact ? 1 : 0;
        break;
      }
      case QueryKind::kUpgrade: {
        param0 = require_number(body, "amount");
        if (!std::isfinite(param0) || param0 <= 0.0) {
          throw std::invalid_argument("\"amount\" must be finite and positive");
        }
        const Json* kind_member = body.find("kind");
        if (kind_member != nullptr) {
          if (!kind_member->is_string() ||
              (kind_member->string() != "additive" &&
               kind_member->string() != "multiplicative")) {
            throw std::invalid_argument(
                "member \"kind\" must be \"additive\" or \"multiplicative\"");
          }
          multiplicative = kind_member->string() == "multiplicative";
        }
        const double rounds_value = optional_number(body, "rounds", 0.0);
        if (rounds_value < 0.0 || rounds_value > 1024.0 ||
            rounds_value != std::nearbyint(rounds_value)) {
          throw std::invalid_argument("member \"rounds\" must be an integer in [0, 1024]");
        }
        rounds = static_cast<int>(rounds_value);
        param1 = rounds_value;
        flags = multiplicative ? 1 : 0;
        break;
      }
    }

    PlanKey key = make_plan_key(kind, speeds, env, param0, param1, flags);
    key.speeds = speeds;  // already canonical; avoid re-sorting
    const std::uint64_t fp = fingerprint(key);
    if (const std::shared_ptr<const std::string> hit = cache_.find(key, fp)) {
      HttpResponse response = HttpResponse::json(200, *hit);
      response.headers.emplace_back("X-Hetero-Cache", "hit");
      return response;
    }

    // Graceful degradation: when the request carries a deadline whose
    // remaining budget cannot cover the expensive path (the exact LP, or
    // the multi-round greedy upgrade plan), answer with the closed-form
    // part only, marked degraded — never a blown deadline.  The cache probe
    // above already served any previously computed full answer; degraded
    // bodies are not cached, so the next unconstrained request recomputes
    // and caches the real one (stale-while-revalidate).
    const char* degrade_reason = nullptr;
    if (token.has_deadline() && !overload_.lp_budget_allows(token.remaining())) {
      if (kind == QueryKind::kAllocate && exact) degrade_reason = "lp-budget";
      if (kind == QueryKind::kUpgrade && rounds > 0) degrade_reason = "plan-budget";
    }

    Json out = Json::object();
    switch (kind) {
      case QueryKind::kX: out = compute_x(speeds, env); break;
      case QueryKind::kMakespan:
        out = compute_makespan(speeds, env, have_lifespan, param0);
        break;
      case QueryKind::kHecr: out = compute_hecr(speeds, env); break;
      case QueryKind::kAllocate:
        if (exact && degrade_reason == nullptr) {
          // Feed the measured solve time into the overload controller's
          // cost model so future degrade decisions track reality.
          const auto lp_start = std::chrono::steady_clock::now();
          out = compute_allocate(speeds, env, param0, true, config_.max_exact_machines);
          overload_.observe_lp_cost(std::chrono::steady_clock::now() - lp_start);
        } else {
          out = compute_allocate(speeds, env, param0, false, config_.max_exact_machines);
        }
        break;
      case QueryKind::kUpgrade:
        out = compute_upgrade(speeds, env, multiplicative, param0,
                              degrade_reason == nullptr ? rounds : 0);
        break;
    }
    if (degrade_reason != nullptr) {
      out.set("degraded", Json{true});
      out.set("degraded_reason", Json{degrade_reason});
      overload_.record_degrade(target, degrade_reason);
    }
    std::string body_text = out.dump();
    if (degrade_reason == nullptr) cache_.insert(std::move(key), fp, body_text);
    HttpResponse response = HttpResponse::json(200, std::move(body_text));
    response.headers.emplace_back("X-Hetero-Cache",
                                  degrade_reason == nullptr ? "miss" : "bypass");
    if (degrade_reason != nullptr) {
      response.headers.emplace_back("X-Hetero-Degraded", degrade_reason);
    }
    return response;
  } catch (const std::invalid_argument& error) {
    return HttpResponse::error(400, error.what());
  } catch (const std::exception& error) {
    [[maybe_unused]] static obs::Counter& failures = obs::counter("service.handler_failures");
    failures.add(1);
    return HttpResponse::error(500, error.what());
  }
}

}  // namespace hetero::service
