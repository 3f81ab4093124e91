// serve_hot / serve_cold: a real `heterod` spawned over loopback, driven by
// a closed loop of two keep-alive connections, each on its own client
// thread, against `heterod --threads 2` — so each connection keeps one
// server worker (and that worker's thread-local X evaluator and LP
// resolver) for the whole run, and the four busy threads fit the four
// vCPUs of the reference host.  Requests carry no deadline header, so any
// shed or degraded answer is a failure.

#include "serve.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "hetero/obs/scope.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kHotSetups = 3;
constexpr std::size_t kColdSetups = 21;
constexpr std::size_t kCacheEntries = 1 << 16;  // every hot key fits; no evictions
constexpr int kIoTimeoutMs = 30'000;

/// Span names per endpoint (span names must be string literals).
const char* request_span(Endpoint e) noexcept {
  switch (e) {
    case Endpoint::kX: return "bench.request.x";
    case Endpoint::kXBatch: return "bench.request.x_batch";
    case Endpoint::kMakespan: return "bench.request.makespan";
    case Endpoint::kHecr: return "bench.request.hecr";
    case Endpoint::kAllocate: return "bench.request.allocate";
    case Endpoint::kAllocateExact: return "bench.request.allocate_exact";
    case Endpoint::kUpgrade: return "bench.request.upgrade";
    case Endpoint::kUpgradePlan: return "bench.request.upgrade_plan";
  }
  return "bench.request";
}

/// utime + stime, in clock ticks, from a /proc/<pid>[/task/<tid>]/stat file.
double stat_ticks(const std::string& path) {
  // Fields 14/15: utime and stime.  The command name (field 2) may hold
  // spaces, so parse after its ')'.
  const std::string stat = read_file(path);
  std::istringstream in{stat.substr(stat.rfind(')') + 2)};
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks;
}

double proc_cpu_s(pid_t pid) {
  return stat_ticks("/proc/" + std::to_string(pid) + "/stat") /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// CPU ticks of every thread of `pid`, by thread id.
std::map<int, double> thread_ticks(pid_t pid) {
  std::map<int, double> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    try {
      out[std::stoi(entry.path().filename().string())] = stat_ticks(entry.path() / "stat");
    } catch (const std::exception&) {
      // The thread ended between listing and reading.
    }
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- Connection

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{kIoTimeoutMs / 1000, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string{"connect failed: "} + std::strerror(errno));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Reply Connection::exchange(std::string_view wire) {
  for (std::size_t sent = 0; sent < wire.size();) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
  buffer_.clear();
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  Reply reply;
  char chunk[16384];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        // Status line, then the headers this benchmark reads.
        if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0) throw std::runtime_error("bad status line");
        reply.status = std::atoi(buffer_.c_str() + 9);
        std::size_t line = buffer_.find("\r\n") + 2;
        while (line < header_end) {
          const std::size_t eol = buffer_.find("\r\n", line);
          const std::string_view header{buffer_.data() + line, eol - line};
          const std::size_t colon = header.find(':');
          std::string name{header.substr(0, colon)};
          for (char& ch : name) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
          std::string_view value = header.substr(colon + 1);
          while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
          if (name == "content-length") content_length = std::stoul(std::string{value});
          if (name == "x-hetero-degraded") reply.degraded = true;
          line = eol + 2;
        }
      }
    }
    if (header_end != std::string::npos && buffer_.size() >= header_end + 4 + content_length) {
      reply.body.assign(buffer_, header_end + 4, content_length);
      return reply;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw std::runtime_error(n == 0 ? "connection closed" : "recv failed");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Reply Connection::get(std::string_view target) {
  const std::string wire =
      "GET " + std::string{target} + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  return exchange(wire);
}

// ----------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& path, std::size_t threads, const std::vector<int>& cpus) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDERR_FILENO);
  const std::string threads_arg = std::to_string(threads);
  const std::string cache_arg = std::to_string(kCacheEntries);
  std::vector<std::string> args{path, "--port", "0", "--threads", threads_arg,
                                "--cache-entries", cache_arg, "--idle-timeout-ms", "600000"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // The child inherits the spawning thread's CPUs, and its threads inherit
  // them from it.
  const std::vector<int> caller_cpus = thread_cpus();
  pin_thread(cpus);
  const int rc = ::posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv.data(), environ);
  pin_thread(caller_cpus);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + path + ": " + std::strerror(rc));
  }
  // heterod announces "... listening on 127.0.0.1:<port>" on stderr.
  std::string text;
  const double deadline = now_s() + 30.0;
  while (port_ == 0) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int remaining = static_cast<int>((deadline - now_s()) * 1000.0);
    if (remaining <= 0 || ::poll(&pfd, 1, remaining) <= 0) break;
    char chunk[512];
    const ssize_t n = ::read(stderr_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    text.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = text.find("listening on ");
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::stoul(text.substr(text.rfind(':', eol) + 1)));
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("heterod did not start: " + text);
  }
}

Daemon::~Daemon() { stop(); }

rusage Daemon::stop() {
  rusage usage{};
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_s() + 20.0;
    for (;;) {
      const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_ || done < 0) break;
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &usage);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
  return usage;
}

double Daemon::cpu_s() const { return proc_cpu_s(pid_); }

int pin_serving_thread(pid_t pid, Connection& connection, int cpu) {
  // CPU time is counted in clock ticks (10 ms on the reference host): send
  // cheap requests until one thread has clearly done their work.
  const std::map<int, double> before = thread_ticks(pid);
  const double deadline = now_s() + 10.0;
  while (now_s() < deadline) {
    for (int i = 0; i < 200; ++i) {
      if (connection.get("/healthz").status != 200) throw std::runtime_error("unhealthy heterod");
    }
    int busiest = -1;
    double most = 0.0, next = 0.0;
    for (const auto& [tid, ticks] : thread_ticks(pid)) {
      const auto was = before.find(tid);
      const double grew = ticks - (was == before.end() ? 0.0 : was->second);
      if (grew > most) {
        next = most;
        most = grew;
        busiest = tid;
      } else {
        next = std::max(next, grew);
      }
    }
    if (most >= 5.0 && most >= 4.0 * next) {
      pin_task(busiest, {cpu});
      return busiest;
    }
  }
  return -1;  // no single thread serves it; leave the server where it is
}

std::map<std::string, double> scrape_metrics(Connection& connection) {
  const Reply reply = connection.get("/metrics");
  if (reply.status != 200) throw std::runtime_error("/metrics failed");
  std::map<std::string, double> out;
  std::istringstream in{reply.body};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after, const std::string& name) {
  // Prometheus names: "hetero_" + the registry name with '.' -> '_'.
  std::string prom = "hetero_" + name;
  std::replace(prom.begin(), prom.end(), '.', '_');
  return delta(before, after, prom);
}

// ------------------------------------------------------------ timed phase

void wait_healthy(std::uint16_t port) {
  Connection connection{port};
  if (connection.get("/healthz").status != 200) throw std::runtime_error("unhealthy heterod");
}

std::vector<std::string> send_all(std::uint16_t port, const Schedule& schedule,
                                  const std::vector<std::uint32_t>& queries,
                                  std::size_t connections, const std::vector<int>& client_cpus) {
  std::vector<std::string> bodies(queries.size());
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        if (!client_cpus.empty()) pin_thread({client_cpus[c % client_cpus.size()]});
        Connection connection{port};
        for (std::size_t i = c; i < queries.size(); i += connections) {
          Reply reply = connection.exchange(schedule.queries[queries[i]].wire);
          if (reply.status != 200 || reply.degraded) ok = false;
          bodies[i] = std::move(reply.body);
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!ok) throw std::runtime_error("warm-up request failed");
  return bodies;
}

PhaseResult timed_phase(std::uint16_t port, const Schedule& schedule,
                        const std::vector<const std::string*>& expected, bool traced,
                        const std::function<double()>& server_cpu_s, const CpuPlan* plan,
                        const PairFn& pair) {
  const std::size_t connections = schedule.connections.size();
  PhaseResult out;
  out.bodies.resize(connections);
  out.answered.resize(connections);
  // Per connection: every round trip, and the failures in each segment.
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::vector<std::uint64_t>> failures(connections,
                                                   std::vector<std::uint64_t>(kSegments, 0));
  std::vector<std::string> reasons(connections);
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Connection>(port));
    // Attach the connection to its server worker before the clock starts.
    if (conns.back()->get("/healthz").status != 200) throw std::runtime_error("unhealthy");
  }
  if (plan != nullptr && pair) {
    for (std::size_t c = 0; c < connections; ++c) {
      pair(c, *conns[c], plan->work[c % plan->work.size()]);
    }
  }
  out.before = scrape_metrics(*conns[0]);
  const auto slice = [](std::size_t size, std::size_t k) { return k * size / kSegments; };

  // Every connection starts segment k together.  At each of the
  // kSegments + 1 meeting points the connections meet twice: the main thread
  // marks the clocks after the first (the end of the segment before), measures
  // the CPUs while everything waits, and marks them again after the second
  // (the start of the segment after).
  std::barrier sync{static_cast<std::ptrdiff_t>(connections + 1)};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      if (plan != nullptr) pin_thread({plan->work[c % plan->work.size()]});
      const std::vector<std::uint32_t>& sequence = schedule.connections[c];
      std::vector<double>& lat = latencies[c];
      lat.reserve(sequence.size());
      Connection* connection = conns[c].get();
      for (std::size_t k = 0; k < kSegments; ++k) {
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        for (std::size_t i = slice(sequence.size(), k); i < slice(sequence.size(), k + 1); ++i) {
          const std::uint32_t q = sequence[i];
          const Query& query = schedule.queries[q];
          const std::uint64_t t0 = now_ns();
          Reply reply;
          std::string error;
          try {
            if (traced) {
              const hetero::obs::ProfileScope span{request_span(query.endpoint)};
              reply = connection->exchange(query.wire);
            } else {
              reply = connection->exchange(query.wire);
            }
          } catch (const std::exception& e) {
            error = std::string{"transport: "} + e.what();
          }
          lat.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
          if (error.empty() && reply.status != 200) {
            error = "status " + std::to_string(reply.status) + ": " + reply.body.substr(0, 120);
          } else if (error.empty() && reply.degraded) {
            error = "degraded reply";
          } else if (error.empty() && !expected.empty() &&
                     (expected[q] == nullptr || reply.body != *expected[q])) {
            error = std::string{"answer differs from the checked warm-up answer ("} +
                    endpoint_name(query.endpoint) + ")";
          }
          if (!error.empty() && reasons[c].empty()) reasons[c] = error;
          if (!error.empty()) ++failures[c][k];
          if (expected.empty()) {
            out.bodies[c].push_back(std::move(reply.body));
            out.answered[c].push_back(error.empty());
          }
        }
      }
      sync.arrive_and_wait();
      sync.arrive_and_wait();
    });
  }
  std::vector<double> end_s(kSegments + 1), start_s(kSegments + 1);
  std::vector<double> end_cpu_s(kSegments + 1), start_cpu_s(kSegments + 1);
  std::vector<Slowness> slowness(kSegments + 1);
  for (std::size_t k = 0; k <= kSegments; ++k) {
    sync.arrive_and_wait();
    end_s[k] = now_s();
    end_cpu_s[k] = server_cpu_s ? server_cpu_s() : 0.0;
    if (plan != nullptr) slowness[k] = measure_slowness(plan->work);
    start_cpu_s[k] = server_cpu_s ? server_cpu_s() : 0.0;
    start_s[k] = now_s();
    sync.arrive_and_wait();
  }
  for (std::thread& t : threads) t.join();
  out.after = scrape_metrics(*conns[0]);
  out.segments.resize(kSegments);
  for (std::size_t k = 0; k < kSegments; ++k) {
    PhaseResult::Segment& segment = out.segments[k];
    segment.wall_s = end_s[k + 1] - start_s[k];
    segment.server_cpu_s = end_cpu_s[k + 1] - start_cpu_s[k];
    segment.slowness = Slowness::between(slowness[k], slowness[k + 1]);
    out.wall_s += segment.wall_s;
    for (std::size_t c = 0; c < connections; ++c) {
      const std::size_t size = schedule.connections[c].size();
      segment.requests += slice(size, k + 1) - slice(size, k);
      segment.failed += failures[c][k];
      segment.latency_us.insert(segment.latency_us.end(),
                                latencies[c].begin() + static_cast<std::ptrdiff_t>(slice(size, k)),
                                latencies[c].begin() + static_cast<std::ptrdiff_t>(slice(size, k + 1)));
    }
    out.attempted += segment.requests;
    out.failed += segment.failed;
  }
  for (const std::string& reason : reasons) {
    if (!reason.empty()) out.reasons.push_back(reason);
  }
  return out;
}

// --------------------------------------------------------------- workload

namespace {

/// Checks bodies in parallel, one thread per CPU of `cpus` (at most four);
/// returns per-item error strings.
std::vector<std::string> check_all(const Schedule& schedule,
                                   const std::vector<std::uint32_t>& queries,
                                   const std::vector<const std::string*>& bodies,
                                   const std::vector<int>& cpus) {
  std::vector<std::string> errors(queries.size());
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::clamp<std::size_t>(cpus.size(), 1, 4);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      if (!cpus.empty()) pin_thread({cpus[w]});
      for (std::size_t i = next++; i < queries.size(); i = next++) {
        errors[i] = check_answer(schedule.queries[queries[i]], *bodies[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return errors;
}

/// The workloads' own invariants, from heterod's counters over the timed
/// phase: serve_hot hits the cache on every single-profile request and
/// solves no LP; serve_cold never hits; neither sheds nor degrades.  A
/// violation means the workload no longer measures what it exists for, so
/// it fails the run.
void check_counters(const Schedule& schedule, bool hot, const PhaseResult& phase,
                    RunResult& result) {
  const auto moved = [&](const char* name) {
    return counter_delta(phase.before, phase.after, name);
  };
  // A counter that heterod does not export would read 0 and pass vacuously.
  for (const char* name : {"hetero_service_cache_hits", "hetero_service_cache_misses",
                           "hetero_lp_solves"}) {
    if (phase.after.count(name) == 0) result.fail(std::string{"/metrics lacks "} + name);
  }
  double single = 0.0;
  for (const auto& sequence : schedule.connections) {
    for (const std::uint32_t q : sequence) {
      if (schedule.queries[q].endpoint != Endpoint::kXBatch) ++single;
    }
  }
  const double hits = moved("service.cache.hits");
  if (hot && hits != single) {
    result.fail("serve_hot: " + fmt(hits) + " cache hits for " + fmt(single) +
                " single-profile requests");
  }
  if (hot && moved("lp.solves") != 0.0) {
    result.fail("serve_hot: the timed phase solved " + fmt(moved("lp.solves")) + " LPs");
  }
  if (!hot && hits != 0.0) result.fail("serve_cold: " + fmt(hits) + " cache hits");
  for (const char* name : {"service.shed", "service.degraded"}) {
    if (moved(name) != 0.0) result.fail(std::string{name} + " moved by " + fmt(moved(name)));
  }
}

struct ServeRun {
  PhaseResult phase;
  std::vector<double> setup_s;       ///< as timed
  std::vector<Slowness> setup_slow;  ///< the CPUs around each set-up
  double peak_rss_mb = 0.0;
  rusage usage{};  ///< heterod's, over its whole life
};

/// One daemon life: `setups` timed set-ups (spawn → healthy → warm-up),
/// then the timed phase on the last one.
ServeRun serve_once(const Options& options, const Schedule& schedule, bool hot,
                    std::size_t setups, bool traced, const CpuPlan& plan, RunResult& result) {
  ServeRun run;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> warm_bodies;
  // Set-up runs on every CPU of the plan: heterod on the rest, the warm-up
  // clients on the work CPUs.
  Slowness before = measure_slowness(plan.all());
  for (std::size_t s = 0; s < setups; ++s) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(options.heterod, kConnections, plan.rest);
    wait_healthy(daemon->port());
    if (hot) {
      warm_bodies = send_all(daemon->port(), schedule, schedule.warmup, kConnections, plan.work);
    }
    run.setup_s.push_back(now_s() - t0);
    const Slowness after = measure_slowness(plan.all());
    run.setup_slow.push_back(Slowness::between(before, after));
    before = after;
  }

  std::vector<const std::string*> expected;
  if (hot) {
    // Check every distinct answer once; the timed phase then compares each
    // reply byte-for-byte with its checked warm-up answer.
    std::vector<const std::string*> views;
    for (const std::string& body : warm_bodies) views.push_back(&body);
    const std::vector<std::string> errors = check_all(schedule, schedule.warmup, views, plan.all());
    expected.assign(schedule.queries.size(), nullptr);
    for (std::size_t i = 0; i < schedule.warmup.size(); ++i) {
      if (errors[i].empty()) {
        expected[schedule.warmup[i]] = &warm_bodies[i];
      } else {
        result.note("oracle.warmup_error", std::string{endpoint_name(
                                               schedule.queries[schedule.warmup[i]].endpoint)} +
                                               ": " + errors[i]);
      }
    }
  }

  // Each connection shares its work CPU with the heterod thread that serves
  // it, so a round trip needs no wake-up across CPUs.
  std::string pairs;
  const PairFn pair = [&](std::size_t c, Connection& connection, int cpu) {
    const int tid = pin_serving_thread(daemon->pid(), connection, cpu);
    pairs += (pairs.empty() ? "" : ", ") + std::string{"connection "} + std::to_string(c) +
             (tid < 0 ? ": unpaired" : ": cpu " + std::to_string(cpu));
  };
  run.phase = timed_phase(daemon->port(), schedule, expected, traced,
                          [&daemon] { return daemon->cpu_s(); }, &plan, pair);
  result.note("cpus.pairs", pairs);
  const rusage usage = daemon->stop();
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.usage = usage;
  return run;
}

}  // namespace

void run_serve(const Options& options, bool hot, RunResult& result) {
  const double started = now_s();
  const Schedule schedule =
      hot ? make_hot_schedule(options.seed, kConnections,
                              hot_requests_per_connection(options.seconds))
          : make_cold_schedule(options.seed, kConnections,
                               cold_requests_per_connection(options.seconds));
  if (!hot && !keys_unique(schedule)) throw std::runtime_error("serve_cold repeats a key");
  const std::size_t setups = hot ? kHotSetups : kColdSetups;
  // This thread only coordinates: it runs apart from the measured work.
  const CpuPlan plan = cpu_plan();
  const std::vector<int> caller_cpus = thread_cpus();
  pin_thread(plan.rest);

  const double scheduled = now_s();
  ServeRun run = serve_once(options, schedule, hot, setups, false, plan, result);
  const double served = now_s();
  PhaseResult& phase = run.phase;

  if (!hot) {
    // Every cold answer is new: check each one against the library.
    // Replies that already failed (status, transport) are counted once.
    std::vector<std::uint32_t> queries;
    std::vector<const std::string*> bodies;
    for (std::size_t c = 0; c < schedule.connections.size(); ++c) {
      for (std::size_t i = 0; i < phase.bodies[c].size(); ++i) {
        if (!phase.answered[c][i]) continue;
        queries.push_back(schedule.connections[c][i]);
        bodies.push_back(&phase.bodies[c][i]);
      }
    }
    const std::vector<std::string> errors = check_all(schedule, queries, bodies, plan.all());
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (!errors[i].empty()) {
        ++phase.failed;
        if (phase.reasons.size() < 5) {
          phase.reasons.push_back(std::string{"oracle ("} +
                                  endpoint_name(schedule.queries[queries[i]].endpoint) +
                                  "): " + errors[i]);
        }
      }
    }
  }

  result.attempted += phase.attempted;
  if (phase.failed != 0) {
    std::string why;
    for (const std::string& reason : phase.reasons) why += (why.empty() ? "" : "; ") + reason;
    result.fail(why, phase.failed);
  }
  check_counters(schedule, hot, phase, result);
  result.note("phase_s.schedule", scheduled - started);
  result.note("phase_s.serve", served - scheduled);
  result.note("phase_s.check", now_s() - served);

  std::size_t endpoint_counts[kEndpointCount] = {};
  for (const auto& sequence : schedule.connections) {
    for (const std::uint32_t q : sequence) {
      ++endpoint_counts[static_cast<std::size_t>(schedule.queries[q].endpoint)];
    }
  }
  result.note("loop", "closed loop, 2 keep-alive connections (one client thread each), "
                      "heterod --threads 2, no deadline header");
  result.note("requests", static_cast<double>(phase.attempted));
  result.note("distinct_queries", static_cast<double>(schedule.queries.size()));
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    if (endpoint_counts[e] != 0) {
      result.note(std::string{"requests."} + endpoint_name(static_cast<Endpoint>(e)),
                  static_cast<double>(endpoint_counts[e]));
    }
  }
  result.note("segments", static_cast<double>(kSegments));
  result.note("latency_samples_per_segment",
              static_cast<double>(phase.segments.front().latency_us.size()));
  result.note("latency_samples", static_cast<double>(phase.attempted));
  result.note("setup_samples", static_cast<double>(run.setup_s.size()));
  result.note("schedule_wall_s", phase.wall_s);
  {
    std::string walls;
    for (const PhaseResult::Segment& segment : phase.segments) {
      walls += fmt(segment.wall_s).substr(0, 6) + " ";
    }
    result.note("segment_wall_s", walls);
  }

  note_cpus(plan, result);
  if (!options.trace) {
    // Each segment is the same work.  Every time is divided by the slowness
    // of the work CPUs measured around its segment, and every time metric
    // but p99 is the median over the segments, so a burst of load on the
    // host that spans fewer than half of them does not move it either.  The
    // p99 pools every round trip of the run, so that at least ten samples lie
    // beyond it on either workload.
    std::vector<double> rps, p50, cpu_per_op, wall, raw_p50, slowness, round_trips;
    for (const PhaseResult::Segment& segment : phase.segments) {
      const auto requests = static_cast<double>(segment.requests);
      const double slow = segment.slowness.value;
      rps.push_back((requests - static_cast<double>(segment.failed)) / segment.wall_s * slow);
      raw_p50.push_back(quantile(segment.latency_us, 0.50));
      p50.push_back(raw_p50.back() / slow);
      for (const double us : segment.latency_us) round_trips.push_back(us / slow);
      cpu_per_op.push_back(segment.server_cpu_s * 1e6 / requests / slow);
      wall.push_back(segment.wall_s / slow);
      slowness.push_back(slow);
    }
    std::vector<double> setup_s;
    for (std::size_t s = 0; s < run.setup_s.size(); ++s) {
      setup_s.push_back(run.setup_s[s] / run.setup_slow[s].value);
    }
    result.note("slowness.segments_median", median(slowness));
    result.note("raw.latency_p50_us", median(raw_p50));
    result.note("raw.setup_s", median(run.setup_s));
    const auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    result.note("heterod.user_s", seconds(run.usage.ru_utime));
    result.note("heterod.system_s", seconds(run.usage.ru_stime));
    result.note("heterod.minor_faults", static_cast<double>(run.usage.ru_minflt));
    result.set("throughput_rps", median(rps), "1/s");
    result.set("latency_p50_us", median(p50), "us");
    result.set("latency_p99_us", quantile(round_trips, 0.99), "us");
    result.set("cpu_us_per_op", median(cpu_per_op), "us");
    result.set("wall_s", median(wall) * static_cast<double>(kSegments), "s");
    result.set("peak_rss_mb", run.peak_rss_mb, "MiB");
    result.set("setup_s", median(setup_s), "s");
    pin_thread(caller_cpus);
    return;
  }

  // Traced run: the same schedule again on a fresh daemon with client spans
  // on, for the tracing overhead; counters come from the untraced run.
  const ServeRun traced = serve_once(options, schedule, hot, 1, true, plan, result);
  if (traced.phase.failed != 0) result.fail("traced pass: " + traced.phase.reasons.front());
  if (!hot) {
    for (std::size_t c = 0; c < schedule.connections.size(); ++c) {
      if (traced.phase.bodies[c] != phase.bodies[c]) {
        result.fail("traced pass answers differ from the checked untraced answers");
        break;
      }
    }
  }
  result.set("bench.trace_overhead_ratio", traced.phase.wall_s / phase.wall_s, "ratio");

  const auto moved = [&](const char* name) {
    return counter_delta(phase.before, phase.after, name);
  };
  const double hits = moved("service.cache.hits");
  const double misses = moved("service.cache.misses");
  const double rebuilds = moved("service.x.rebuilds");
  const double incremental = moved("service.x.incremental");
  const double reused = moved("service.x.reused");
  result.set("service.cache_hits_timed", hits, "count");
  result.set("service.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result.set("service.cache_evictions", moved("service.cache.evictions"), "count");
  const double x_calls = rebuilds + incremental + reused;
  result.set("service.x_incremental_ratio", x_calls > 0 ? incremental / x_calls : 0.0, "ratio");
  result.set("service.shed", moved("service.shed"), "count");
  result.set("service.degraded", moved("service.degraded"), "count");
  result.set("protocol.lp_solves_timed", moved("lp.solves"), "count");
  result.set("numeric.lp_pivots_timed", moved("lp.pivots"), "count");
  result.set("error_rate", static_cast<double>(phase.failed) / static_cast<double>(phase.attempted),
             "ratio");
  pin_thread(caller_cpus);
}

}  // namespace perfbench
