// core::batch_evaluate: every measure bit-identical to its single-profile
// entry point, fused or not; the in-order FIFO closed form bit-identical to
// protocol::fifo_allocations.

#include "hetero/core/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

#include "hetero/core/power.h"
#include "hetero/protocol/fifo.h"
#include "hetero/random/rng.h"

namespace hetero::core {
namespace {

const Environment kEnv = Environment::paper_default();

// Profiles are generated pre-sorted into Profile's canonical nonincreasing
// order, so the span-based and Profile-based paths see the same value
// sequence and bit-identity comparisons are meaningful.
std::vector<std::vector<double>> random_profiles(std::size_t count, std::size_t n) {
  auto rng = random::Xoshiro256StarStar::for_stream(0xba7c4ba7c4ull, 7);
  std::vector<std::vector<double>> profiles(count);
  for (auto& rho : profiles) {
    rho.resize(n);
    for (double& r : rho) r = rng.uniform(0.1, 10.0);
    std::sort(rho.begin(), rho.end(), std::greater<>{});
  }
  return profiles;
}

std::vector<std::span<const double>> views_of(const std::vector<std::vector<double>>& profiles) {
  std::vector<std::span<const double>> views;
  views.reserve(profiles.size());
  for (const auto& rho : profiles) views.emplace_back(rho);
  return views;
}

TEST(BatchEvaluate, AllMeasuresBitIdenticalToSingleProfileCalls) {
  const auto profiles = random_profiles(17, 9);
  const auto views = views_of(profiles);
  BatchRequest request;
  request.x = true;
  request.work_rate = true;
  request.hecr = true;
  request.fifo_lifespan = 50.0;
  const auto measures = batch_evaluate(std::span{views}, kEnv, request);
  ASSERT_EQ(measures.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Profile profile{profiles[i]};
    EXPECT_EQ(measures[i].x, x_measure(profile, kEnv));
    EXPECT_EQ(measures[i].work_rate, work_rate(profile, kEnv));
    EXPECT_EQ(measures[i].hecr, hecr(profile, kEnv));
    const std::vector<double> fifo = protocol::fifo_allocations(profiles[i], kEnv, 50.0);
    ASSERT_EQ(measures[i].fifo.size(), fifo.size());
    for (std::size_t k = 0; k < fifo.size(); ++k) EXPECT_EQ(measures[i].fifo[k], fifo[k]);
  }
}

TEST(BatchEvaluate, FusedAndSeparateSweepsAgreeBitForBit) {
  // x+hecr together runs the fused kernel; alone they run the standalone
  // kernels.  All three must agree exactly.
  const auto profiles = random_profiles(8, 23);
  const auto views = views_of(profiles);
  BatchRequest both;
  both.x = true;
  both.hecr = true;
  BatchRequest x_only;
  x_only.x = true;
  BatchRequest hecr_only;
  hecr_only.x = false;
  hecr_only.hecr = true;
  const auto fused = batch_evaluate(std::span{views}, kEnv, both);
  const auto xs = batch_evaluate(std::span{views}, kEnv, x_only);
  const auto hecrs = batch_evaluate(std::span{views}, kEnv, hecr_only);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(fused[i].x, xs[i].x);
    EXPECT_EQ(fused[i].hecr, hecrs[i].hecr);
  }
}

TEST(BatchEvaluate, ProfileOverloadMatchesSpanOverload) {
  const auto raw = random_profiles(5, 6);
  std::vector<Profile> profiles;
  for (const auto& rho : raw) profiles.emplace_back(rho);
  BatchRequest request;
  request.x = true;
  request.hecr = true;
  const auto by_profile = batch_evaluate(std::span<const Profile>{profiles}, kEnv, request);
  // Profile sorts into canonical order; compare against its own values().
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(by_profile[i].x, x_measure(profiles[i], kEnv));
    EXPECT_EQ(by_profile[i].hecr, hecr(profiles[i], kEnv));
  }
}

TEST(BatchEvaluate, IntoVariantRejectsSizeMismatchAndAvoidsAllocation) {
  const auto profiles = random_profiles(3, 4);
  const auto views = views_of(profiles);
  std::array<ProfileMeasures, 2> too_small;
  EXPECT_THROW(batch_evaluate_into(views, kEnv, BatchRequest{}, too_small),
               std::invalid_argument);
  std::array<ProfileMeasures, 3> out;
  batch_evaluate_into(views, kEnv, BatchRequest{}, out);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].x, x_measure(Profile{profiles[i]}, kEnv));
    EXPECT_TRUE(out[i].fifo.empty());  // no FIFO request: slot untouched
  }
}

TEST(BatchEvaluate, EmptyBatchIsFine) {
  const auto measures =
      batch_evaluate(std::span<const std::span<const double>>{}, kEnv, BatchRequest{});
  EXPECT_TRUE(measures.empty());
}

TEST(FifoAllocationsInOrder, MatchesProtocolClosedFormBitForBit) {
  const auto profiles = random_profiles(6, 8);
  for (const auto& rho : profiles) {
    const std::vector<double> want = protocol::fifo_allocations(rho, kEnv, 75.0);
    const std::vector<double> got = fifo_allocations_in_order(rho, kEnv, 75.0);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
  }
}

TEST(FifoAllocationsInOrder, ValidatesInputs) {
  EXPECT_THROW(fifo_allocations_in_order({}, kEnv, 1.0), std::invalid_argument);
  const std::vector<double> speeds{1.0, 2.0};
  EXPECT_THROW(fifo_allocations_in_order(speeds, kEnv, 0.0), std::invalid_argument);
  const std::vector<double> bad{1.0, -2.0};
  EXPECT_THROW(fifo_allocations_in_order(bad, kEnv, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hetero::core
