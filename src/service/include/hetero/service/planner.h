#pragma once

// The planning-query engine behind `heterod`.
//
// A Planner owns the sharded plan cache and maps parsed HTTP requests onto
// the library's analytic kernels:
//
//   POST /v1/x         X(P) — single profile or a batch (core/batch.h)
//   POST /v1/makespan  W(L;P) for a lifespan, or the CRP lifespan for a
//                      work target (Theorem 2 and its inverse)
//   POST /v1/hecr      homogeneous-equivalent computing rate (Prop. 1)
//   POST /v1/allocate  FIFO allocations (closed form; "exact": true solves
//                      the channel-feasible LP via a warm-started resolver)
//   POST /v1/upgrade   Theorem-3/4 upgrade evaluation or the greedy
//                      multi-round plan
//   GET  /healthz /metrics /version
//
// Caching contract: responses to single-profile /v1/* queries are cached
// under the canonicalized profile fingerprint (fingerprint.h); a hit
// returns the exact bytes of the first computation (byte determinism), and
// the X-Hetero-Cache response header says "hit" or "miss" without
// perturbing the body.  Cold single-profile X values come from the PR-1
// incremental XMeasure evaluator kept per worker thread — a query whose
// profile differs from the thread's previous one in a few entries commits
// the diff in O(diff * n) instead of rebuilding — and are therefore
// bit-identical to core::x_measure_serial.  Batch queries ("profiles")
// bypass the cache and use core::batch_evaluate (vectorized lane order),
// matching core::x_measure instead; the two agree to a few ulp and are
// never mixed in one cache.
//
// Thread safety: handle() may be called concurrently from any number of
// worker threads.  The cache is internally sharded; the incremental
// evaluator and LP resolver are thread-local.

#include <cstddef>
#include <string>

#include "hetero/core/cancel.h"
#include "hetero/core/environment.h"
#include "hetero/service/http.h"
#include "hetero/service/overload.h"
#include "hetero/service/plan_cache.h"

namespace hetero::service {

struct PlannerConfig {
  /// Environment assumed when a request carries no "env" member.
  core::Environment env = core::Environment::paper_default();
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  std::size_t max_machines = 1 << 16;      ///< per-profile size cap
  std::size_t max_batch_profiles = 4096;   ///< "profiles" array cap
  std::size_t max_exact_machines = 12;     ///< exact-LP /v1/allocate cap
  /// Admission watermarks, shed policy, and the exact-LP cost model
  /// (overload.h).  Defaults admit everything.
  OverloadConfig overload;
};

class Planner {
 public:
  explicit Planner(PlannerConfig config = PlannerConfig{});

  /// Routes and answers one request.  Never throws: malformed requests map
  /// to 4xx, library validation failures to 400, unexpected errors to 500,
  /// and overload to 503 + Retry-After.
  ///
  /// Deadlines: an `X-Hetero-Deadline-Ms` request header (nonnegative
  /// integer milliseconds of remaining budget) becomes a core::CancelToken
  /// deadline.  A request arriving already expired (0) is shed; a request
  /// whose remaining budget cannot cover the exact-LP path is answered from
  /// the plan cache when possible and otherwise degraded to the closed-form
  /// answer, marked with `"degraded": true` in the body and an
  /// `X-Hetero-Degraded` response header.  Degraded bodies are never cached,
  /// so a later request with budget recomputes and caches the full answer
  /// (stale-while-revalidate).
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  [[nodiscard]] OverloadController& overload() noexcept { return overload_; }
  [[nodiscard]] const PlannerConfig& config() const noexcept { return config_; }

  /// "heterod/<version>"; also reported by GET /version.
  [[nodiscard]] static std::string version_string();

 private:
  [[nodiscard]] HttpResponse dispatch(const HttpRequest& request,
                                      const core::CancelToken& token);

  PlannerConfig config_;
  PlanCache cache_;
  OverloadController overload_;
};

}  // namespace hetero::service
