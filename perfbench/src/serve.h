#pragma once

// Loopback plumbing for the serving workloads: a spawned heterod, a minimal
// keep-alive HTTP/1.1 client connection, and the timed closed loop.

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Reply {
  int status = 0;
  bool degraded = false;  ///< X-Hetero-Degraded present
  std::string body;
};

/// One blocking keep-alive connection to 127.0.0.1:port (TCP_NODELAY).
/// Deliberately independent of hetero::service's client, so a change to the
/// library's client cannot move the benchmark's clock.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one complete request and reads one Content-Length framed reply.
  /// Throws std::runtime_error on any transport failure.
  [[nodiscard]] Reply exchange(std::string_view wire);
  [[nodiscard]] Reply get(std::string_view target);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A heterod child process on an ephemeral port, pinned to `cpus` (empty =
/// wherever the caller may run); stop() (or the destructor) sends SIGTERM
/// and reaps it.
class Daemon {
 public:
  Daemon(const std::string& path, std::size_t threads, const std::vector<int>& cpus = {});
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// CPU seconds (user + system) the daemon has used so far.
  [[nodiscard]] double cpu_s() const;
  /// Terminates and reaps the daemon; returns its resource usage.
  rusage stop();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// GET /metrics, parsed into Prometheus sample name -> value (histogram
/// buckets skipped).
[[nodiscard]] std::map<std::string, double> scrape_metrics(Connection& connection);
/// after - before for a registry metric name such as "service.cache.hits".
[[nodiscard]] double counter_delta(const std::map<std::string, double>& before,
                                   const std::map<std::string, double>& after,
                                   const std::string& name);

void wait_healthy(std::uint16_t port);
/// Sends `queries` once each over `connections` parallel connections and
/// returns the bodies in order; throws if any reply is not a full 200.
/// Connection c's thread runs on client_cpus[c % size] (empty = anywhere).
[[nodiscard]] std::vector<std::string> send_all(std::uint16_t port, const Schedule& schedule,
                                                const std::vector<std::uint32_t>& queries,
                                                std::size_t connections,
                                                const std::vector<int>& client_cpus = {});

struct PhaseResult {
  /// One of kSegments consecutive slices of every connection's sequence,
  /// which the connections start together.
  struct Segment {
    double wall_s = 0.0;
    double server_cpu_s = 0.0;
    /// The plan's work CPUs, measured just before and just after the segment.
    Slowness slowness;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;        ///< transport, status or compare failures
    std::vector<double> latency_us;  ///< every request's round trip
  };
  double wall_s = 0.0;                            ///< the whole timed phase
  std::vector<Segment> segments;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
  std::vector<std::vector<std::string>> bodies;   ///< per connection (when not compared inline)
  std::vector<std::vector<bool>> answered;        ///< ... and whether each was a full 200
  std::map<std::string, double> before;           ///< /metrics around the timed phase
  std::map<std::string, double> after;
};

/// Runs every connection's sequence once, closed loop, one client thread per
/// connection, in kSegments segments.  With `expected` (indexed by query)
/// each reply is compared byte-for-byte to it; without, bodies are kept for
/// the oracle.
/// `server_cpu_s` (may be empty) reads the server's CPU clock.  With a
/// `plan`, connection c's client thread runs on plan->work[c % size],
/// `pair(c, connection, cpu)` is called first to move the server thread
/// that serves it there too, and the work CPUs are measured between
/// segments, while every connection waits.
using PairFn = std::function<void(std::size_t, Connection&, int)>;
[[nodiscard]] PhaseResult timed_phase(std::uint16_t port, const Schedule& schedule,
                                      const std::vector<const std::string*>& expected,
                                      bool traced,
                                      const std::function<double()>& server_cpu_s = {},
                                      const CpuPlan* plan = nullptr, const PairFn& pair = {});

/// Finds the thread of process `pid` that serves `connection` (the one
/// whose CPU time grows while only that connection sends) and pins it to
/// `cpu`.  Returns its thread id.
int pin_serving_thread(pid_t pid, Connection& connection, int cpu);

}  // namespace perfbench
