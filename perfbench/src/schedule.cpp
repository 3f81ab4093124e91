// Deterministic request schedules for the serving workloads.
//
// Every byte heterod receives comes from here, and every schedule is a pure
// function of (seed, connection index, requests per connection): the same
// arguments give byte-identical request sequences on any host.  The timed
// phase therefore always sends the same mix of cheap and expensive requests,
// whatever the host's speed.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "bench.h"
#include "hetero/service/fingerprint.h"

namespace perfbench {

namespace {

// Stream tags, so each kind of draw has its own independent stream.
constexpr std::uint64_t kHotTag = 0x686f74;      // "hot"
constexpr std::uint64_t kColdTag = 0x636f6c64;   // "cold"
constexpr std::uint64_t kConnectionBase = 1u << 20;

constexpr std::size_t kHotBatches = 16;
constexpr std::size_t kHotBatchSize = 8;
constexpr double kHotBatchShare = 0.05;

/// serve_hot's single-profile requests cycle through this pattern (see
/// hot_endpoint_shares for why these shares).
constexpr Endpoint kHotPattern[] = {
    Endpoint::kX,        Endpoint::kMakespan, Endpoint::kHecr,          Endpoint::kAllocate,
    Endpoint::kUpgrade,  Endpoint::kX,        Endpoint::kAllocateExact, Endpoint::kMakespan,
    Endpoint::kHecr,     Endpoint::kX,        Endpoint::kAllocate,      Endpoint::kUpgrade,
    Endpoint::kX,        Endpoint::kMakespan, Endpoint::kHecr,          Endpoint::kAllocateExact,
    Endpoint::kX,        Endpoint::kAllocate, Endpoint::kUpgrade};
constexpr std::size_t kHotPatternSize = std::size(kHotPattern);

// serve_cold sends whole blocks of kColdBlock requests, each with exactly
// these counts in an order shuffled by the seed, so a seed changes the
// numbers in the requests but not how much work they are.
constexpr std::size_t kColdExactPerN = 4;  ///< exact-LP allocations per n = 2..6
constexpr std::size_t kColdPlans = 8;      ///< multi-round upgrade plans
constexpr std::size_t kColdXRuns = 3;      ///< wide fleets, each sent kColdXRun times
constexpr std::size_t kColdXRun = 4;       ///< X requests per wide fleet (1 + 3 near-miss)
constexpr std::size_t kColdXSizes = 12;    ///< wide-fleet sizes, log-spaced over 256..4096
constexpr std::size_t kMaxRerated = 8;     ///< machines re-rated between them
constexpr std::size_t kColdBlock = 5 * kColdExactPerN + kColdPlans + kColdXRuns * kColdXRun;

// Requests per connection per second of run, measured on the reference
// host (4 vCPU Xeon, see README) so that a run lasts about --seconds.
constexpr double kHotRate = 21000.0;
constexpr double kColdRate = 370.0;

void append_number(std::string& out, double value) { out += fmt(value); }

void append_vector(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    append_number(out, values[i]);
  }
  out += ']';
}

const char* target_of(Endpoint e) noexcept {
  switch (e) {
    case Endpoint::kX:
    case Endpoint::kXBatch: return "/v1/x";
    case Endpoint::kMakespan: return "/v1/makespan";
    case Endpoint::kHecr: return "/v1/hecr";
    case Endpoint::kAllocate:
    case Endpoint::kAllocateExact: return "/v1/allocate";
    case Endpoint::kUpgrade:
    case Endpoint::kUpgradePlan: return "/v1/upgrade";
  }
  return "/";
}

/// Renders the request body and the full HTTP/1.1 request.
void render(Query& q) {
  std::string body = "{";
  switch (q.endpoint) {
    case Endpoint::kXBatch:
      body += "\"profiles\":[";
      for (std::size_t i = 0; i < q.batch.size(); ++i) {
        if (i != 0) body += ',';
        append_vector(body, q.batch[i]);
      }
      body += "]";
      break;
    case Endpoint::kX:
    case Endpoint::kHecr:
      body += "\"profile\":";
      append_vector(body, q.speeds);
      break;
    case Endpoint::kMakespan:
    case Endpoint::kAllocate:
    case Endpoint::kAllocateExact:
      if (q.endpoint == Endpoint::kAllocateExact) body += "\"exact\":true,";
      body += "\"lifespan\":";
      append_number(body, q.param);
      body += ",\"profile\":";
      append_vector(body, q.speeds);
      break;
    case Endpoint::kUpgrade:
    case Endpoint::kUpgradePlan:
      body += "\"amount\":";
      append_number(body, q.param);
      body += q.multiplicative ? ",\"kind\":\"multiplicative\"" : ",\"kind\":\"additive\"";
      body += ",\"profile\":";
      append_vector(body, q.speeds);
      if (q.endpoint == Endpoint::kUpgradePlan) {
        body += ",\"rounds\":" + std::to_string(q.rounds);
      }
      break;
  }
  body += '}';
  q.wire = std::string{"POST "} + target_of(q.endpoint) +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
           "Content-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Rates in [0.05, 1) on a 1/4096 grid: the paper normalizes the slowest
/// machine to rho = 1, and dyadic values print in a few digits, which keeps
/// the wide serve_cold requests (thousands of rates each) small.
double draw_rate(Rng& rng) { return static_cast<double>(205 + rng.between(0, 3890)) / 4096.0; }

std::vector<double> draw_profile(Rng& rng, std::size_t n) {
  std::vector<double> speeds(n);
  for (double& rho : speeds) rho = draw_rate(rng);
  return speeds;
}

/// Upgrade amount: psi in [0.5, 0.9) for multiplicative, or a quarter of the
/// fastest rate for additive (Theorem 3 needs phi below every rate).
double upgrade_amount(Rng& rng, bool multiplicative, const std::vector<double>& speeds) {
  if (multiplicative) return 0.5 + 0.4 * rng.uniform();
  return 0.25 * *std::min_element(speeds.begin(), speeds.end());
}

// ------------------------------------------------------------ serve_hot

/// One hot profile and its fixed per-endpoint parameters.
struct HotProfile {
  std::vector<double> speeds;
  std::vector<double> small;  ///< first 2..6 machines: the exact-LP variant
  double lifespan = 0.0;
  double amount = 0.0;
  bool multiplicative = false;
};

/// A rank's fleet size, 4..64, fixed for every seed: the seed changes the
/// rates, not how many there are.  37 is prime to 61, so the popular ranks
/// spread over the whole range.
std::size_t hot_size(std::size_t rank) noexcept { return 4 + (rank * 37) % 61; }

HotProfile hot_profile(std::uint64_t seed, std::size_t rank) {
  Rng rng{mix_seed(seed, kHotTag, rank)};
  HotProfile p;
  p.speeds = draw_profile(rng, hot_size(rank));
  const std::size_t small = std::min(p.speeds.size(), 2 + rank % 5);
  p.small.assign(p.speeds.begin(), p.speeds.begin() + static_cast<std::ptrdiff_t>(small));
  p.lifespan = 100.0 + 9900.0 * rng.uniform();
  p.multiplicative = rank % 2 == 0;
  p.amount = upgrade_amount(rng, p.multiplicative, p.speeds);
  return p;
}

/// Apportions `total` requests over Zipf(s) ranks 0..n-1 by largest
/// remainder: rank k gets its expected count, rounded so the counts sum to
/// `total`.
std::vector<std::size_t> zipf_counts(std::size_t n, double s, std::size_t total) {
  std::vector<double> weight(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += weight[k] = std::pow(static_cast<double>(k + 1), -s);
  std::vector<std::size_t> counts(n);
  std::vector<std::pair<double, std::size_t>> remainder(n);
  std::size_t given = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double want = static_cast<double>(total) * weight[k] / sum;
    counts[k] = static_cast<std::size_t>(want);
    given += counts[k];
    remainder[k] = {want - static_cast<double>(counts[k]), k};
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < total; ++i, ++given) ++counts[remainder[i].second];
  return counts;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.between(0, i - 1)]);
}

}  // namespace

const char* endpoint_name(Endpoint e) noexcept {
  switch (e) {
    case Endpoint::kX: return "x";
    case Endpoint::kXBatch: return "x_batch";
    case Endpoint::kMakespan: return "makespan";
    case Endpoint::kHecr: return "hecr";
    case Endpoint::kAllocate: return "allocate";
    case Endpoint::kAllocateExact: return "allocate_exact";
    case Endpoint::kUpgrade: return "upgrade";
    case Endpoint::kUpgradePlan: return "upgrade_plan";
  }
  return "?";
}

const std::vector<double>& hot_endpoint_shares() {
  // Chosen, not measured (heterod keeps no per-endpoint traffic log): x is a
  // quarter, as the base query of Theorem 2 that heteroctl issues most; the
  // other lifespan and upgrade endpoints a sixth of the rest each, so every
  // handler and body shape is on the hit path; exact allocate a little less
  // (its hit is a closed-form-sized body); batches 5%, because each one
  // evaluates 8 profiles uncached and a larger share would make this a
  // compute workload.
  static const std::vector<double> shares = [] {
    std::vector<double> out(kEndpointCount, 0.0);
    for (const Endpoint e : kHotPattern) {
      out[static_cast<std::size_t>(e)] += (1.0 - kHotBatchShare) / static_cast<double>(kHotPatternSize);
    }
    out[static_cast<std::size_t>(Endpoint::kXBatch)] = kHotBatchShare;
    return out;
  }();
  return shares;
}

std::size_t hot_requests_per_connection(double seconds) noexcept {
  const auto unit = static_cast<double>(kSegments);
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds * kHotRate / unit))) *
         kSegments;
}

std::size_t cold_requests_per_connection(double seconds) noexcept {
  // Whole blocks, the same number in every segment of the timed phase.
  const auto unit = static_cast<double>(kColdBlock * kSegments);
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds * kColdRate / unit))) *
         kColdBlock * kSegments;
}

Schedule make_hot_schedule(std::uint64_t seed, std::size_t connections,
                           std::size_t per_connection) {
  // Every connection sends the same multiset of (rank, endpoint) pairs —
  // exact Zipf counts per rank, the endpoint pattern dealt over them in rank
  // order, and equal counts per batch — in an order shuffled by (seed,
  // connection).  The seed changes the rates in the requests and their
  // order, not which requests or how many.
  const std::size_t batches = static_cast<std::size_t>(
      std::round(kHotBatchShare * static_cast<double>(per_connection)));
  const std::vector<std::size_t> rank_counts =
      zipf_counts(kHotProfiles, kHotZipfS, per_connection - batches);
  std::vector<std::pair<std::int64_t, Endpoint>> mix;
  mix.reserve(per_connection);
  for (std::size_t rank = 0; rank < kHotProfiles; ++rank) {
    for (std::size_t i = 0; i < rank_counts[rank]; ++i) {
      mix.emplace_back(static_cast<std::int64_t>(rank), kHotPattern[mix.size() % kHotPatternSize]);
    }
  }
  // Batch queries are keyed by a negative id, one of kHotBatches fixed
  // batches of kHotBatchSize ranks each.
  for (std::size_t i = 0; i < batches; ++i) {
    mix.emplace_back(-1 - static_cast<std::int64_t>(i % kHotBatches), Endpoint::kXBatch);
  }

  Schedule schedule;
  std::map<std::pair<std::int64_t, Endpoint>, std::uint32_t> index;
  std::map<std::size_t, HotProfile> profiles;
  auto query_for = [&](std::int64_t key, Endpoint e) -> std::uint32_t {
    const auto [it, inserted] =
        index.emplace(std::make_pair(key, e), static_cast<std::uint32_t>(schedule.queries.size()));
    if (!inserted) return it->second;
    Query q;
    q.endpoint = e;
    if (e == Endpoint::kXBatch) {
      const auto batch = static_cast<std::size_t>(-1 - key);
      for (std::size_t i = 0; i < kHotBatchSize; ++i) {
        q.batch.push_back(hot_profile(seed, batch * kHotBatchSize + i).speeds);
      }
    } else {
      const auto r = static_cast<std::size_t>(key);
      auto found = profiles.find(r);
      if (found == profiles.end()) found = profiles.emplace(r, hot_profile(seed, r)).first;
      const HotProfile& p = found->second;
      q.speeds = e == Endpoint::kAllocateExact ? p.small : p.speeds;
      q.param = e == Endpoint::kUpgrade ? p.amount : p.lifespan;
      q.multiplicative = p.multiplicative;
    }
    render(q);
    schedule.queries.push_back(std::move(q));
    schedule.rank.push_back(key < 0 ? -1 : key);
    return it->second;
  };

  for (std::size_t c = 0; c < connections; ++c) {
    Rng rng{mix_seed(seed, kHotTag, kConnectionBase + c)};
    std::vector<std::pair<std::int64_t, Endpoint>> order = mix;
    shuffle(order, rng);
    std::vector<std::uint32_t>& sequence = schedule.connections.emplace_back();
    sequence.reserve(per_connection);
    for (const auto& [key, e] : order) sequence.push_back(query_for(key, e));
  }
  for (std::size_t q = 0; q < schedule.queries.size(); ++q) {
    schedule.warmup.push_back(static_cast<std::uint32_t>(q));
  }
  return schedule;
}

// ----------------------------------------------------------- serve_cold

Schedule make_cold_schedule(std::uint64_t seed, std::size_t connections,
                            std::size_t per_connection) {
  // One unit of a block: an exact allocation of `size` machines, the
  // `index`-th upgrade plan, or the `index`-th wide-fleet run.
  enum class Kind : std::uint8_t { kExact, kPlan, kXRun };
  struct Unit {
    Kind kind;
    std::size_t index;
  };
  Schedule schedule;
  auto add = [&](Query q, std::vector<std::uint32_t>& sequence) {
    render(q);
    sequence.push_back(static_cast<std::uint32_t>(schedule.queries.size()));
    schedule.queries.push_back(std::move(q));
  };
  const std::size_t blocks = (per_connection + kColdBlock - 1) / kColdBlock;
  for (std::size_t c = 0; c < connections; ++c) {
    Rng rng{mix_seed(seed, kColdTag, kConnectionBase + c)};
    std::vector<std::uint32_t>& sequence = schedule.connections.emplace_back();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<Unit> units;
      for (std::size_t n = 2; n <= 6; ++n) {
        for (std::size_t i = 0; i < kColdExactPerN; ++i) units.push_back({Kind::kExact, n});
      }
      for (std::size_t i = 0; i < kColdPlans; ++i) units.push_back({Kind::kPlan, b * kColdPlans + i});
      for (std::size_t i = 0; i < kColdXRuns; ++i) units.push_back({Kind::kXRun, b * kColdXRuns + i});
      shuffle(units, rng);
      for (const Unit& unit : units) {
        if (unit.kind == Kind::kExact) {
          // Exact-LP allocation, n = 2..6 (~0.1-4 ms of simplex each).
          Query q;
          q.endpoint = Endpoint::kAllocateExact;
          q.speeds = draw_profile(rng, unit.index);
          q.param = 100.0 + 9900.0 * rng.uniform();
          add(std::move(q), sequence);
        } else if (unit.kind == Kind::kPlan) {
          // Multi-round greedy upgrade plan; (n, rounds, kind) cycle through
          // n = 8..24 step 4, 4..12 rounds and both kinds (periods 5, 9, 2).
          Query q;
          q.endpoint = Endpoint::kUpgradePlan;
          q.speeds = draw_profile(rng, 8 + 4 * (unit.index % 5));
          q.rounds = static_cast<int>(4 + unit.index % 9);
          q.multiplicative = unit.index % 2 == 0;
          q.param = upgrade_amount(rng, q.multiplicative, q.speeds);
          add(std::move(q), sequence);
        } else {
          // A wide fleet (n cycling through kColdXSizes log-spaced sizes in
          // 256..4096) and near-miss re-ratings of it: each re-rates 1..8
          // machines within their neighbours' rates, so the canonical
          // (sorted) profile differs in those entries only and the server's
          // per-thread incremental X evaluator commits the diff.
          const double level = (static_cast<double>(unit.index % kColdXSizes) + 0.5) /
                                static_cast<double>(kColdXSizes);
          const auto n = static_cast<std::size_t>(std::lround(256.0 * std::pow(16.0, level)));
          std::vector<double> sorted = draw_profile(rng, n);
          std::sort(sorted.begin(), sorted.end(), std::greater<>{});
          std::vector<std::size_t> order(n);  // the order the fleet is sent in
          for (std::size_t i = 0; i < n; ++i) order[i] = i;
          shuffle(order, rng);
          for (std::size_t v = 0; v < kColdXRun; ++v) {
            if (v != 0) {
              const std::size_t rerated = rng.between(1, kMaxRerated);
              for (std::size_t j = 0; j < rerated;) {
                const std::size_t k = rng.between(0, n - 1);
                const double hi = k == 0 ? 1.0 : sorted[k - 1];
                const double lo = k + 1 == n ? 0.05 : sorted[k + 1];
                if (!(hi > lo)) continue;  // no room between equal neighbours
                sorted[k] = lo + (hi - lo) * (0.1 + 0.8 * rng.uniform());
                ++j;
              }
            }
            Query q;
            q.endpoint = Endpoint::kX;
            q.speeds.resize(n);
            for (std::size_t i = 0; i < n; ++i) q.speeds[i] = sorted[order[i]];
            add(std::move(q), sequence);
          }
        }
      }
    }
  }
  return schedule;
}

bool keys_unique(const Schedule& schedule) {
  std::set<std::pair<Endpoint, std::vector<double>>> seen;
  for (const Query& q : schedule.queries) {
    std::vector<double> key = hetero::service::canonical_speeds(q.speeds);
    key.push_back(q.param);
    key.push_back(q.rounds);
    key.push_back(q.multiplicative ? 1.0 : 0.0);
    if (!seen.emplace(q.endpoint, std::move(key)).second) return false;
  }
  return true;
}

}  // namespace perfbench
