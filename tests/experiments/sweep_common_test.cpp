// The trial-seed mix that the fault sweep and the protocol sweep share.  Journals record
// finished cells but not how their trial seeds were derived, so a change to
// the mix would resume old journals with different trials and no
// fingerprint check would notice.  These values pin the mix.

#include "../../src/experiments/sweep_common.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace hetero::experiments::detail {
namespace {

TEST(TrialSeed, MatchesThePinnedMix) {
  struct Pinned {
    std::uint64_t seed;
    std::uint64_t cell;
    std::size_t trial;
    std::uint64_t expected;
  };
  const Pinned pinned[] = {
      {0, 0, 0, 0xe4bacea5c4b9b499ULL},
      {7, 0, 0, 0x380047005c67c096ULL},
      {7, 0, 1, 0xb5a7c6fbdbc42070ULL},
      {7, 3, 2, 0x10300a578c28bfbeULL},
      {42, 8, 0, 0x1ba2040c977620ceULL},
      {0xffffffffffffffffULL, 1, 0, 0x39c3f1e2dab8846cULL},
      {123456789, 24, 4, 0xfbda664591845a18ULL},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(trial_seed(p.seed, p.cell, p.trial), p.expected)
        << "seed " << p.seed << " cell " << p.cell << " trial " << p.trial;
  }
}

}  // namespace
}  // namespace hetero::experiments::detail
