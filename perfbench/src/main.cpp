// hetero_perfbench — the repository benchmark program.
//
//   hetero_perfbench --workload serve_hot|serve_cold|sweep_journaled
//                    --seed N --seconds S --trace 0|1
//                    --heterod PATH --out DIR [--commit SHA]
//   hetero_perfbench --selftest
//
// Prints a provenance line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, and the
// run's spans are written to DIR/trace-<workload>-seed<N>.json (Chrome trace
// JSON; open in Perfetto).  Any error exits nonzero without a result line.
// --selftest checks the schedule generator and the answer checks, in a
// process of its own so it cannot inflate a measured run's peak RSS.
// perfbench/run.py builds this binary and heterod, runs the self-test, then
// the workload.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "hetero/obs/chrome_trace.h"
#include "hetero/obs/metrics.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& text) {
  return '"' + hetero::obs::json_escape(text) + '"';
}

std::string cpuinfo(const char* field) {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void provenance(const Options& options, const std::string& commit, RunResult& result) {
  result.note("workload", options.workload);
  result.note("seed", std::to_string(options.seed));
  result.note("seconds", options.seconds);
  result.note("trace", options.trace ? "1" : "0");
  result.note("cpu_model", cpuinfo("model name"));
  result.note("cpu_mhz", cpuinfo("cpu MHz"));
  result.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.note("build_type", HETERO_PERFBENCH_BUILD_TYPE);
  result.note("compiler", HETERO_PERFBENCH_CXX);
  result.note("simd_flags", HETERO_PERFBENCH_SIMD);
  result.note("obs_enabled", hetero::obs::kEnabled ? "1" : "0");
  result.note("commit", commit);
}

std::string result_line(const RunResult& result) {
  std::string out = std::string{"{\"correct\": "} + (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + fmt(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}}";
}

std::string info_line(const RunResult& result) {
  std::string out = "{\"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  return out + "}}";
}

int run(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stod(value());
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--heterod") options.heterod = value();
    else if (arg == "--out") options.out_dir = value();
    else if (arg == "--commit") commit = value();
    else if (arg == "--selftest") selftest_only = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }

  if (selftest_only) {
    const std::vector<std::string> failures = self_test();
    for (const std::string& failure : failures) std::cerr << "self-test: " << failure << '\n';
    if (!failures.empty()) return 3;
    std::cout << "self-test passed\n";
    return 0;
  }

  if (options.workload != "serve_hot" && options.workload != "serve_cold" &&
      options.workload != "sweep_journaled") {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  if (!(options.seconds > 0.0) || options.out_dir.empty() || options.heterod.empty()) {
    std::cerr << "need --seconds > 0, --out and --heterod\n";
    return 2;
  }
  make_dirs(options.out_dir);

  RunResult result;
  provenance(options, commit, result);
  if (options.workload == "sweep_journaled") {
    run_sweep(options, result);
  } else {
    run_serve(options, options.workload == "serve_hot", result);
  }
  if (options.trace) {
    run_layer_probes(options, result, options.workload == "sweep_journaled");
    const std::string path = options.out_dir + "/trace-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    export_trace(path);
    result.note("trace_file", path);
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) throw std::runtime_error("metric " + name + " is not finite");
  }
  result.note("failed", static_cast<double>(result.failed));
  result.note("attempted", static_cast<double>(result.attempted));

  const std::string info = info_line(result);
  const std::string line = result_line(result);
  write_file(options.out_dir + "/result-" + options.workload + "-seed" +
                 std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") + ".json",
             info + "\n" + line + "\n");
  std::cout << info << '\n' << line << std::endl;
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "hetero_perfbench: " << error.what() << '\n';
    return 1;
  }
}
