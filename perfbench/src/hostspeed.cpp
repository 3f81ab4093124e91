// Host speed: where the measured threads run, and how fast those CPUs are
// right now.
//
// On the reference host each vCPU shares a physical core with other
// tenants, so its speed moves by up to 2x within seconds, independently of
// the other vCPUs, and CPU time moves with it (there is no steal to
// subtract).  How much a busy neighbour slows code depends on the code: a
// floating-point dependency chain barely notices, multiword arithmetic and
// branchy library code slow by up to 40%.  The benchmark therefore pins the
// measured threads to fixed CPUs, times three fixed calibration kernels of
// those kinds on each of them between timed slices (while the program under
// test is idle), and divides every time metric by the slowness it finds.
// The kernels are the benchmark's own code and run while the program is
// idle, so a change to the program cannot move them; they are timed in
// thread CPU time, so they measure the CPU's speed, not its share of it.

#include <pthread.h>
#include <sched.h>
#include <sys/types.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

/// Thread CPU seconds of one rep of each calibration kernel on the
/// reference host (4 vCPU Xeon, see README) when its core is not shared:
/// the unit of "slowness".
constexpr double kReferenceRepS[kKernels] = {0.9e-3, 1.4e-3, 0.55e-3};
constexpr int kReps = 3;
constexpr std::size_t kTableSize = 1 << 15;  // 128 KiB: stays in L2

double thread_cpu_s() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Kernel 0, scalar: integer hashing, dependent table updates in L2 and a
/// floating-point chain.
[[gnu::noinline]] double scalar_rep() {
  static std::array<std::uint32_t, kTableSize> table{};
  std::uint32_t x = 12345;
  double f = 1.0;
  for (int i = 0; i < 100'000; ++i) {
    x = x * 1664525u + 1013904223u;
    std::uint32_t& slot = table[(x >> 10) & (kTableSize - 1)];
    slot += x;
    x ^= slot >> 7;
    f = f * 1.0000001 + static_cast<double>(x & 255u) * 1e-9;
    if (x & 1u) x += 3;
  }
  return f + static_cast<double>(x);
}

/// Kernel 1, text: numbers printed and parsed, strings in an ordered map —
/// heap allocation and branchy library code.
[[gnu::noinline]] double text_rep() {
  std::map<std::string, int> map;
  char buffer[64];
  double sum = 0.0;
  for (int i = 0; i < 1500; ++i) {
    std::snprintf(buffer, sizeof buffer, "%.17g", i * 0.7312 + 1e-3);
    sum += std::strtod(buffer, nullptr);
    map[buffer] += i;
  }
  for (const auto& [key, value] : map) {
    sum += static_cast<double>(value) + static_cast<double>(key.size());
  }
  return sum;
}

/// Kernel 2, bignum: schoolbook multiword multiplication and division by a
/// word, on freshly allocated limbs.
[[gnu::noinline]] double bignum_rep() {
  using u128 = unsigned __int128;
  std::uint64_t state = 7;
  const auto draw = [&state] {
    return state = state * 6364136223846793005ull + 1442695040888963407ull;
  };
  double sum = 0.0;
  for (int round = 0; round < 450; ++round) {
    std::vector<std::uint64_t> a(24), b(24), c(48, 0);
    for (std::uint64_t& limb : a) limb = draw();
    for (std::uint64_t& limb : b) limb = draw();
    for (std::size_t i = 0; i < a.size(); ++i) {
      u128 carry = 0;
      for (std::size_t j = 0; j < b.size(); ++j) {
        const u128 t = static_cast<u128>(a[i]) * b[j] + c[i + j] + carry;
        c[i + j] = static_cast<std::uint64_t>(t);
        carry = t >> 64;
      }
      c[i + b.size()] = static_cast<std::uint64_t>(carry);
    }
    u128 rem = 0;
    for (std::size_t i = c.size(); i-- > 0;) {
      const u128 cur = (rem << 64) | c[i];
      c[i] = static_cast<std::uint64_t>(cur / 1000000007u);
      rem = cur % 1000000007u;
    }
    sum += static_cast<double>(static_cast<std::uint64_t>(rem));
  }
  return sum;
}

double run_kernel(int kernel) {
  switch (kernel) {
    case 0: return scalar_rep();
    case 1: return text_rep();
    default: return bignum_rep();
  }
}

cpu_set_t thread_mask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof mask, &mask) != 0) {
    throw std::runtime_error("pthread_getaffinity_np failed");
  }
  return mask;
}

void set_thread_mask(const cpu_set_t& mask) {
  if (::pthread_setaffinity_np(::pthread_self(), sizeof mask, &mask) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 1.0 : sum / static_cast<double>(values.size());
}

}  // namespace

std::vector<int> CpuPlan::all() const {
  std::vector<int> out = work;
  for (const int cpu : rest) {
    if (std::find(out.begin(), out.end(), cpu) == out.end()) out.push_back(cpu);
  }
  return out;
}

std::vector<int> thread_cpus() {
  const cpu_set_t mask = thread_mask();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

CpuPlan cpu_plan() {
  const std::vector<int> allowed = thread_cpus();
  CpuPlan plan;
  // Two connections (or two pool workers), one CPU each; the rest apart
  // when there are CPUs to spare.
  const auto split = allowed.begin() + std::min<std::ptrdiff_t>(2, std::ssize(allowed));
  plan.work.assign(allowed.begin(), split);
  plan.rest = split != allowed.end() ? std::vector<int>(split, allowed.end()) : plan.work;
  return plan;
}

void pin_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  set_thread_mask(mask);
}

void pin_task(int tid, const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  if (::sched_setaffinity(static_cast<pid_t>(tid), sizeof mask, &mask) != 0) {
    throw std::runtime_error("sched_setaffinity failed for thread " + std::to_string(tid));
  }
}

namespace {

/// Geometric mean over the kernels.
Slowness combined(const double (&kernel)[kKernels]) noexcept {
  Slowness out;
  double log_sum = 0.0;
  for (int k = 0; k < kKernels; ++k) {
    out.kernel[k] = kernel[k];
    log_sum += std::log(kernel[k]);
  }
  out.value = std::exp(log_sum / kKernels);
  return out;
}

}  // namespace

Slowness measure_slowness(const std::vector<int>& cpus) {
  const cpu_set_t saved = thread_mask();
  std::vector<double> per_cpu[kKernels];
  volatile double sink = 0.0;
  for (const int cpu : cpus) {
    pin_thread({cpu});
    for (int k = 0; k < kKernels; ++k) {
      double best = 1e9;
      for (int rep = 0; rep < kReps; ++rep) {
        const double t0 = thread_cpu_s();
        sink = sink + run_kernel(k);
        best = std::min(best, thread_cpu_s() - t0);
      }
      per_cpu[k].push_back(best / kReferenceRepS[k]);
    }
  }
  set_thread_mask(saved);
  double kernel[kKernels];
  for (int k = 0; k < kKernels; ++k) kernel[k] = mean(per_cpu[k]);
  return combined(kernel);
}

Slowness Slowness::between(const Slowness& a, const Slowness& b) noexcept {
  double kernel[kKernels];
  for (int k = 0; k < kKernels; ++k) kernel[k] = (a.kernel[k] + b.kernel[k]) / 2.0;
  return combined(kernel);
}

void note_cpus(const CpuPlan& plan, RunResult& result) {
  const auto list = [](const std::vector<int>& cpus) {
    std::string out;
    for (const int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
    return out;
  };
  result.note("cpus.work", list(plan.work));
  result.note("cpus.rest", list(plan.rest));
}

}  // namespace perfbench
