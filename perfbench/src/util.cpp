#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "hetero/obs/metrics.h"

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  std::uint64_t state = a;
  state = splitmix64(state) ^ b;
  state = splitmix64(state) ^ c;
  return splitmix64(state);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::between(std::size_t lo, std::size_t hi) noexcept {
  return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

void make_dirs(const std::string& path) { std::filesystem::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  for (const auto& c : hetero::obs::Registry::global().snapshot().counters) {
    out[c.name] = static_cast<double>(c.value);
  }
  return out;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

void RunResult::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  correct = false;
  if (++failure_notes <= 5) info["failure." + std::to_string(failure_notes)] = why;
}

}  // namespace perfbench
