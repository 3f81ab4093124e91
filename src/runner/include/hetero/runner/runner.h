#pragma once

// Crash-safe, straggler-tolerant execution of deterministic work units.
//
// run_units() is the harness under every long experiment: a run is `count`
// independent work units, each a pure function of its index (all randomness
// seed-derived), producing an opaque payload string.  The runner adds the
// robustness the paper's own sweeps need at scale, mirroring the
// straggler-mitigation playbook of coded-computation schedulers
// (Reisizadeh et al., Kim et al.): never wait on the slowest executor when
// a redundant copy is cheap.
//
//   * Checkpoint/resume — with a Journal attached, finished units are
//     appended durably; on a rerun, journaled units are *not* recomputed,
//     and because every unit is deterministic the resumed aggregate is
//     bit-identical to an uninterrupted run.
//   * Cancellation & deadlines — a core::CancelToken is threaded through
//     ThreadPool::submit into every attempt; compute() receives a token to
//     poll.  An optional per-unit deadline derives a tightened child token.
//   * Watchdog & speculation — a monitor thread tracks in-flight units
//     against the p95 of completed unit durations (power-of-two bucket
//     ladder, the same shape hetero::obs histograms use).  A unit overdue
//     by SpeculationPolicy::multiplier × p95 is flagged
//     (runner.tasks_overdue) and re-dispatched to an idle worker
//     (runner.speculative_launches).  First result wins; ties are broken
//     deterministically in favour of the lowest attempt number, and since
//     units are deterministic every attempt yields the same payload — the
//     race affects latency, never results.
//   * Retry taxonomy — compute() failures classified core::ErrorClass::
//     kRetryable are retried with the shared core::Backoff schedule; fatal
//     and cancellation errors abort the run.
//
// obs counters: runner.units_run, runner.units_resumed, runner.retries,
// runner.tasks_overdue, runner.speculative_launches, runner.tasks_cancelled
// (the last emitted by the pool when a token fires before a task starts).
//
// Causal observability (obs-enabled builds): every attempt — primary,
// backoff retry, speculative copy — is recorded as a span in a per-run
// causal tree rooted at RunContext::trace (derived deterministically from
// the journal seed when not supplied).  Primary attempts hang off the run
// root, copies off their primary, and nested HETERO_OBS_SCOPE spans (LP
// solves, sim episodes) join under whichever attempt ran them via the
// thread-local obs::ContextGuard.  Spans carry an outcome tag (ok / retry /
// speculative-win / speculative-loss / cancelled / fault); the Chrome-trace
// exporter renders the parent links as Perfetto flow arrows.  Winners of
// journaled runs additionally append a "!obs:<key>" telemetry record (unit,
// wall seconds, attempts, retries, outcome) the run-report generator reads;
// resume ignores these keys.  When RunContext::black_box names a path, the
// obs flight recorder is dumped there before a fatal error or cancellation
// propagates out of run_units.

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hetero/core/backoff.h"
#include "hetero/core/cancel.h"
#include "hetero/obs/trace_context.h"
#include "hetero/parallel/thread_pool.h"
#include "hetero/runner/journal.h"

namespace hetero::runner {

/// When to launch a redundant copy of a slow unit.
struct SpeculationPolicy {
  bool enabled = true;
  std::size_t min_samples = 3;   ///< completed units needed before p95 is trusted
  double percentile = 0.95;      ///< duration quantile the threshold is based on
  double multiplier = 3.0;       ///< overdue when elapsed > multiplier × quantile
  std::chrono::milliseconds min_overdue{50};  ///< floor under the threshold
  std::size_t max_copies = 1;    ///< speculative copies per unit (beyond the primary)
};

struct WatchdogOptions {
  std::chrono::milliseconds poll{20};  ///< monitor wake-up period
};

/// Everything a robust run threads through the drivers.  Default-constructed
/// RunContext (no pool, no journal) runs serially with no extras — the plain
/// overloads of run_fault_sweep, run_protocol_sweep, hecr_table and
/// run_campaign forward to that.
struct RunContext {
  parallel::ThreadPool* pool = nullptr;  ///< null = run units serially, in order
  Journal* journal = nullptr;            ///< null = no checkpointing
  core::CancelToken cancel{};
  std::chrono::milliseconds unit_deadline{0};  ///< 0 = none; exceeding it fails the run
  SpeculationPolicy speculation{};
  WatchdogOptions watchdog{};
  core::Backoff retry{0.01, 2.0, 2};  ///< seconds; applied to kRetryable failures
  /// Fault-injection hook for tests: called at the start of every attempt
  /// (unit index, attempt number — 0 is the primary).  Production leaves it
  /// empty.
  std::function<void(std::size_t, std::size_t)> before_unit{};
  /// Root of the run's causal span tree.  Invalid (the default) derives the
  /// root deterministically from the journal seed — or from the key prefix
  /// when the run is unjournaled — so reruns produce identical span ids.
  obs::TraceContext trace{};
  /// Non-empty: dump the obs flight recorder to this path (atomic rename)
  /// before any fatal error or cancellation propagates out of run_units.
  std::string black_box{};
};

/// What the run did (all zero-initialized; useful for assertions and logs).
struct RunStats {
  std::size_t units_total = 0;
  std::size_t units_resumed = 0;   ///< satisfied from the journal, not recomputed
  std::size_t units_run = 0;       ///< computed this run (primaries that won)
  std::size_t retries = 0;         ///< kRetryable failures retried with backoff
  std::size_t overdue = 0;         ///< units the watchdog flagged as stragglers
  std::size_t speculative_launches = 0;
  std::size_t speculative_wins = 0;  ///< units whose winning attempt was a copy
};

/// Runs units [0, count): compute(unit, token) must be deterministic in
/// `unit` and return the unit's payload.  Journaled units are returned
/// without recomputation.  Returns payloads in unit order.  Throws
/// core::Cancelled / core::DeadlineExceeded when ctx.cancel or a unit
/// deadline fires, and rethrows the first fatal compute error.
[[nodiscard]] std::vector<std::string> run_units(
    RunContext& ctx, std::string_view key_prefix, std::size_t count,
    const std::function<std::string(std::size_t, const core::CancelToken&)>& compute,
    RunStats* stats = nullptr);

}  // namespace hetero::runner
