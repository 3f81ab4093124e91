#pragma once

// Internal interface of the hetero benchmark program (see perfbench/README.md).
//
// The program runs one named workload from a seed, checks every answer
// against library ground truth, and prints its metrics.  Everything here is
// benchmark-private: the program under test is only reached through its
// public headers (hetero::service, hetero::core, hetero::protocol,
// hetero::experiments, hetero::runner) and, for the serving workloads,
// through a spawned `heterod` over loopback.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hetero/stats/histogram.h"
#include "hetero/stats/robust.h"

namespace perfbench {

// ------------------------------------------------------------------ util

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;
/// Mixes several values into one seed (order-sensitive).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t c = 0) noexcept;

/// splitmix64 stream: the only randomness the schedules use.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_{seed} {}
  [[nodiscard]] std::uint64_t next() noexcept { return splitmix64(state_); }
  /// Uniform in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() noexcept;
  /// Uniform integer in [lo, hi].
  [[nodiscard]] std::size_t between(std::size_t lo, std::size_t hi) noexcept;

 private:
  std::uint64_t state_;
};

[[nodiscard]] double now_s() noexcept;            ///< steady clock, seconds
[[nodiscard]] std::uint64_t now_ns() noexcept;    ///< steady clock, nanoseconds
/// Type-7 quantile and median of unsorted samples (the library's own).
using hetero::stats::median;
using hetero::stats::quantile;
/// "%.17g" — every double printed with all its digits.
[[nodiscard]] std::string fmt(double value);
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);
/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] double self_cpu_s();
/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Every counter of this process's obs registry, by name.
[[nodiscard]] std::map<std::string, double> registry_counters();
/// after[name] - before[name], absent entries reading 0.
[[nodiscard]] double delta(const std::map<std::string, double>& before,
                           const std::map<std::string, double>& after, const std::string& name);

// ----------------------------------------------------------- host speed

/// Where the measured threads run.  `work` does the measured work: in the
/// serving workloads one CPU per connection, shared by its client thread and
/// the heterod worker that serves it; in the sweep, the process and its
/// pool.  `rest` holds everything else (heterod's other threads, the thread
/// that coordinates the run).  With three or more CPUs the two are disjoint.
struct CpuPlan {
  std::vector<int> work;
  std::vector<int> rest;
  [[nodiscard]] std::vector<int> all() const;
};
[[nodiscard]] CpuPlan cpu_plan();
/// Pins the calling thread (and the threads and processes it starts later)
/// to `cpus`; empty leaves it as it is.
void pin_thread(const std::vector<int>& cpus);
/// Pins thread `tid` of any process of this user to `cpus`.
void pin_task(int tid, const std::vector<int>& cpus);
/// The CPUs the calling thread may run on.
[[nodiscard]] std::vector<int> thread_cpus();

/// How slow some CPUs are now: the thread CPU time of each fixed
/// calibration kernel on each CPU, over its time on the reference host,
/// averaged over the CPUs; `value` is the geometric mean over the kernels.
/// 1 = reference speed, 1.5 = everything takes half as long again.  Time
/// metrics are divided by it (see hostspeed.cpp and README).
inline constexpr int kKernels = 3;  ///< calibration kernels: scalar, text, bignum
struct Slowness {
  double value = 1.0;
  double kernel[kKernels] = {1.0, 1.0, 1.0};
  /// The mean of two measurements, taken before and after a timed slice.
  [[nodiscard]] static Slowness between(const Slowness& a, const Slowness& b) noexcept;
};
[[nodiscard]] Slowness measure_slowness(const std::vector<int>& cpus);

// -------------------------------------------------------------- results

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run produced: the contract's result line plus provenance.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Provenance and sample counts (printed on their own line, and written
  /// beside the trace).
  std::map<std::string, std::string> info;
  std::size_t failure_notes = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) { info[key] = value; }
  void note(const std::string& key, double value) { info[key] = fmt(value); }
  /// Records `count` failed operations and why (the first few reasons are
  /// kept in the info line).
  void fail(const std::string& why, std::uint64_t count = 1);
};

/// Records where the measured threads ran.
void note_cpus(const CpuPlan& plan, RunResult& result);

// ------------------------------------------------------------- schedule

enum class Endpoint : std::uint8_t {
  kX,             ///< POST /v1/x, one profile (cached)
  kXBatch,        ///< POST /v1/x with "profiles" (never cached)
  kMakespan,      ///< POST /v1/makespan with a lifespan
  kHecr,          ///< POST /v1/hecr
  kAllocate,      ///< POST /v1/allocate, closed-form FIFO
  kAllocateExact, ///< POST /v1/allocate with "exact": true (exact LP)
  kUpgrade,       ///< POST /v1/upgrade, single-shot evaluation
  kUpgradePlan,   ///< POST /v1/upgrade with "rounds" > 0 (greedy plan)
};
inline constexpr std::size_t kEndpointCount = 8;
[[nodiscard]] const char* endpoint_name(Endpoint e) noexcept;

/// One distinct request and everything the oracle needs to check its answer.
struct Query {
  Endpoint endpoint = Endpoint::kX;
  std::vector<double> speeds;               ///< as sent (not canonicalized)
  std::vector<std::vector<double>> batch;   ///< kXBatch profiles
  double param = 0.0;                       ///< lifespan, or upgrade amount
  int rounds = 0;                           ///< kUpgradePlan
  bool multiplicative = false;              ///< kUpgrade / kUpgradePlan
  std::string wire;                         ///< the complete HTTP request bytes
};

/// A workload's requests: the distinct queries and, per connection, the
/// order it sends them in.  A pure function of (seed, connection index,
/// requests per connection).
struct Schedule {
  std::vector<Query> queries;
  std::vector<std::vector<std::uint32_t>> connections;
  /// Queries sent during set-up (serve_hot: every query the timed phase
  /// sends, so the timed phase only hits the cache).
  std::vector<std::uint32_t> warmup;
  /// serve_hot: popularity rank of each query's profile (-1 = batch query),
  /// kept so the self-test can check the Zipf rank distribution.
  std::vector<std::int64_t> rank;
};

/// The serving workloads' timed phase runs in this many consecutive
/// segments of equal work, and reports the median over them.
inline constexpr std::size_t kSegments = 20;

/// Requests per connection for a run of `seconds` (fixed work, sized so a
/// run takes about that long on the reference host; see README).
[[nodiscard]] std::size_t hot_requests_per_connection(double seconds) noexcept;
[[nodiscard]] std::size_t cold_requests_per_connection(double seconds) noexcept;

[[nodiscard]] Schedule make_hot_schedule(std::uint64_t seed, std::size_t connections,
                                         std::size_t per_connection);
[[nodiscard]] Schedule make_cold_schedule(std::uint64_t seed, std::size_t connections,
                                          std::size_t per_connection);
/// True when no two queries share a cache key (endpoint, canonical profile,
/// scalars) — the serve_cold contract.
[[nodiscard]] bool keys_unique(const Schedule& schedule);
/// Zipf exponent and profile count of serve_hot (the self-test checks them).
inline constexpr double kHotZipfS = 1.1;
inline constexpr std::size_t kHotProfiles = 1000;
/// Target endpoint shares of serve_hot, indexed by Endpoint.
[[nodiscard]] const std::vector<double>& hot_endpoint_shares();

// --------------------------------------------------------------- oracle

/// Checks one 2xx answer body against library ground truth.  Returns an
/// empty string when it matches, otherwise what is wrong.
[[nodiscard]] std::string check_answer(const Query& query, const std::string& body);

// ------------------------------------------------------------ workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string heterod;     ///< path of the heterod binary (serving workloads)
  std::string out_dir;     ///< scratch + trace output, inside the checkout
};

void run_serve(const Options& options, bool hot, RunResult& result);
void run_sweep(const Options& options, RunResult& result);
/// Per-layer probes shared by every traced run (service stage replay, LP,
/// core kernels, coded sizing); `skip_sweep` when the sweep workload
/// already measured the sweep layers.
void run_layer_probes(const Options& options, RunResult& result, bool skip_sweep);
/// The sweep layers (experiments / sim / runner / parallel) from one traced
/// pass set; used by the sweep workload's traced run and by the probes.
void sweep_layer_metrics(const Options& options, RunResult& result);

/// Writes every span the process recorded as Chrome trace JSON.
void export_trace(const std::string& path);

/// Schedule and oracle self-test; returns the failures (empty = pass).
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace perfbench
