// Self-test of the benchmark's own machinery, run before every measurement:
// the schedule generator must be deterministic and shaped as documented, and
// the answer checks must fail loudly — on wrong bodies and on error pages.

#include <cmath>
#include <set>
#include <thread>

#include "bench.h"
#include "hetero/service/planner.h"
#include "hetero/service/server.h"
#include "serve.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kSeed = 20100419;
constexpr std::size_t kHotRequests = 20000;
constexpr std::size_t kColdRequests = 1500;

std::vector<std::string> wires(const Schedule& schedule, std::size_t connection) {
  std::vector<std::string> out;
  for (const std::uint32_t q : schedule.connections[connection]) {
    out.push_back(schedule.queries[q].wire);
  }
  return out;
}

void check_determinism(const char* name, Schedule (*make)(std::uint64_t, std::size_t, std::size_t),
                       std::size_t requests, std::vector<std::string>& failures) {
  const Schedule a = make(kSeed, 2, requests);
  const Schedule b = make(kSeed, 2, requests);
  const Schedule alone = make(kSeed, 1, requests);
  const Schedule other = make(kSeed + 1, 2, requests);
  for (std::size_t c = 0; c < 2; ++c) {
    if (wires(a, c) != wires(b, c)) {
      failures.push_back(std::string{name} + ": same seed gave different requests");
    }
    if (wires(a, c) == wires(other, c)) {
      failures.push_back(std::string{name} + ": a different seed gave the same requests");
    }
  }
  // A connection's sequence depends on (seed, connection) only.
  if (wires(a, 0) != wires(alone, 0)) {
    failures.push_back(std::string{name} + ": connection 0 depends on the connection count");
  }
  if (wires(a, 0) == wires(a, 1)) {
    failures.push_back(std::string{name} + ": both connections send the same requests");
  }
}

void check_hot_shape(std::vector<std::string>& failures) {
  const Schedule s = make_hot_schedule(kSeed, 2, kHotRequests);
  std::vector<double> rank_count(kHotProfiles, 0.0);
  std::vector<double> endpoint_count(kEndpointCount, 0.0);
  double total = 0.0;
  for (const auto& sequence : s.connections) {
    for (const std::uint32_t q : sequence) {
      ++endpoint_count[static_cast<std::size_t>(s.queries[q].endpoint)];
      if (s.rank[q] >= 0) ++rank_count[static_cast<std::size_t>(s.rank[q])];
      ++total;
    }
  }
  // Endpoint shares within 1.5 points of the targets.
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const double share = endpoint_count[e] / total;
    if (std::abs(share - hot_endpoint_shares()[e]) > 0.015) {
      failures.push_back(std::string{"serve_hot: share of "} +
                         endpoint_name(static_cast<Endpoint>(e)) + " is " + fmt(share));
    }
  }
  // Zipf(s): the top ranks' frequencies within 10% of 1/(k^s H), and the
  // frequency of rank k falling as k^-s between ranks 1 and 10.
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= kHotProfiles; ++k) harmonic += std::pow(double(k), -kHotZipfS);
  const double ranked = total - endpoint_count[static_cast<std::size_t>(Endpoint::kXBatch)];
  for (const std::size_t k : {0, 1, 2}) {
    const double want = std::pow(double(k + 1), -kHotZipfS) / harmonic;
    const double got = rank_count[k] / ranked;
    if (std::abs(got / want - 1.0) > 0.10) {
      failures.push_back("serve_hot: rank " + std::to_string(k) + " frequency " + fmt(got) +
                         ", Zipf wants " + fmt(want));
    }
  }
  double top = 0.0;
  double tail = 0.0;
  for (std::size_t k = 0; k < 10; ++k) top += rank_count[k];
  for (std::size_t k = 10; k < 100; ++k) tail += rank_count[k];
  if (top <= tail * 0.5) failures.push_back("serve_hot: rank distribution is not skewed");
  // Every key the timed phase sends is warmed in set-up.
  const std::set<std::uint32_t> warm(s.warmup.begin(), s.warmup.end());
  for (const auto& sequence : s.connections) {
    for (const std::uint32_t q : sequence) {
      if (warm.count(q) == 0) {
        failures.push_back("serve_hot: a timed key is missing from the warm-up set");
        return;
      }
    }
  }
}

void check_cold_shape(std::vector<std::string>& failures) {
  const Schedule s = make_cold_schedule(kSeed, 2, kColdRequests);
  if (!keys_unique(s)) failures.push_back("serve_cold: a key repeats");
  std::size_t sent = 0;
  for (const auto& sequence : s.connections) sent += sequence.size();
  if (sent != s.queries.size()) failures.push_back("serve_cold: a query is sent twice");
}

/// The oracle must reject wrong numbers, truncated bodies and error bodies.
void check_oracle(std::vector<std::string>& failures) {
  const Schedule s = make_hot_schedule(kSeed, 1, 400);
  hetero::service::Planner planner;
  std::size_t checked = 0;
  std::set<Endpoint> kinds;
  for (const std::uint32_t q : s.warmup) {
    const Query& query = s.queries[q];
    hetero::service::RequestParser parser;
    parser.feed(query.wire);
    hetero::service::HttpRequest request;
    if (parser.poll(request) != hetero::service::RequestParser::Status::kReady) {
      failures.push_back("oracle: a schedule request does not parse");
      return;
    }
    const std::string body = planner.handle(request).body;
    if (const std::string why = check_answer(query, body); !why.empty()) {
      failures.push_back(std::string{"oracle: rejects a correct "} +
                         endpoint_name(query.endpoint) + " answer: " + why);
      continue;
    }
    // Corrupt the last digit of the first number after the first ':'.
    std::string corrupted = body;
    const std::size_t colon = corrupted.find("\"x");
    std::size_t digit = corrupted.find_first_of("0123456789", colon == std::string::npos ? 0 : colon);
    while (digit + 1 < corrupted.size() && std::isdigit(static_cast<unsigned char>(corrupted[digit + 1]))) ++digit;
    corrupted[digit] = corrupted[digit] == '9' ? '8' : static_cast<char>(corrupted[digit] + 1);
    if (check_answer(query, corrupted).empty()) {
      failures.push_back(std::string{"oracle: accepts a corrupted "} +
                         endpoint_name(query.endpoint) + " answer");
    }
    if (check_answer(query, body.substr(0, body.size() / 2)).empty() ||
        check_answer(query, "{\"error\":\"bad request\"}").empty()) {
      failures.push_back(std::string{"oracle: accepts a truncated or error "} +
                         endpoint_name(query.endpoint) + " body");
    }
    kinds.insert(query.endpoint);
    if (++checked == 200) break;
  }
  if (kinds.size() < 6) failures.push_back("oracle: self-test covered too few endpoints");
}

/// An all-4xx timed phase and a phase whose answers differ from the expected
/// bytes must both count every request as failed.
void check_failure_accounting(std::vector<std::string>& failures) {
  hetero::service::Planner planner;
  hetero::service::ServerConfig config;
  config.threads = 2;
  hetero::service::Server server{planner, config};
  server.listen();
  std::thread serving{[&server] { server.serve(); }};

  Schedule bad = make_hot_schedule(kSeed, 2, 50);
  for (Query& q : bad.queries) {
    const std::string body = "{\"profile\":[-1]}";  // a negative rate: 400
    q.wire = "POST /v1/x HTTP/1.1\r\nHost: x\r\nContent-Length: " + std::to_string(body.size()) +
             "\r\n\r\n" + body;
  }
  try {
    const PhaseResult all_4xx = timed_phase(server.port(), bad, {}, false);
    if (all_4xx.failed != all_4xx.attempted) {
      failures.push_back("accounting: an all-4xx run reported " + std::to_string(all_4xx.failed) +
                         " of " + std::to_string(all_4xx.attempted) + " failed");
    }
    const Schedule good = make_hot_schedule(kSeed, 2, 50);
    std::vector<std::string> wrong(good.queries.size(), "{\"x\":0}");
    std::vector<const std::string*> expected;
    for (const std::string& w : wrong) expected.push_back(&w);
    const PhaseResult corrupted = timed_phase(server.port(), good, expected, false);
    if (corrupted.failed != corrupted.attempted) {
      failures.push_back("accounting: wrong answers were not all counted as failed");
    }
  } catch (const std::exception& error) {
    failures.push_back(std::string{"accounting: "} + error.what());
  }
  server.request_stop();
  serving.join();
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  check_determinism("serve_hot", &make_hot_schedule, 2000, failures);
  check_determinism("serve_cold", &make_cold_schedule, 300, failures);
  check_hot_shape(failures);
  check_cold_shape(failures);
  check_oracle(failures);
  check_failure_accounting(failures);
  return failures;
}

}  // namespace perfbench
