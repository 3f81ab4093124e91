#include "hetero/numeric/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace hetero::numeric {
namespace {

TEST(BigInt, DefaultConstructedIsZero) {
  const BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.signum(), 0);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.bit_length(), 0u);
}

TEST(BigInt, ConstructsFromInt64Extremes) {
  const BigInt max{std::numeric_limits<std::int64_t>::max()};
  const BigInt min{std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(max.to_string(), "9223372036854775807");
  EXPECT_EQ(min.to_string(), "-9223372036854775808");
  EXPECT_EQ(max.to_int64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(min.to_int64(), std::numeric_limits<std::int64_t>::min());
}

TEST(BigInt, RoundTripsDecimalStrings) {
  for (const char* text :
       {"0", "1", "-1", "4294967295", "4294967296", "18446744073709551616",
        "-340282366920938463463374607431768211456", "999999999999999999999999999999"}) {
    EXPECT_EQ(BigInt::from_string(text).to_string(), text) << text;
  }
}

TEST(BigInt, FromStringRejectsMalformedInput) {
  EXPECT_THROW(BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string(" 1"), std::invalid_argument);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_string("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt{1}).to_string(), "4294967296");
  const BigInt b = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + b).to_string(), "36893488147419103230");
}

TEST(BigInt, SignedAdditionMatchesInt64) {
  std::mt19937_64 gen{42};
  std::uniform_int_distribution<std::int64_t> dist{-1'000'000'000, 1'000'000'000};
  for (int i = 0; i < 200; ++i) {
    const std::int64_t x = dist(gen);
    const std::int64_t y = dist(gen);
    EXPECT_EQ((BigInt{x} + BigInt{y}).to_int64(), x + y);
    EXPECT_EQ((BigInt{x} - BigInt{y}).to_int64(), x - y);
    EXPECT_EQ((BigInt{x} * BigInt{y}).to_int64(), x * y);
  }
}

TEST(BigInt, SubtractionToZeroNormalizes) {
  const BigInt a = BigInt::from_string("123456789012345678901234567890");
  EXPECT_TRUE((a - a).is_zero());
  EXPECT_EQ((a - a).to_string(), "0");
}

TEST(BigInt, MultiplicationMatchesKnownBigProduct) {
  const BigInt a = BigInt::from_string("123456789123456789");
  const BigInt b = BigInt::from_string("987654321987654321");
  EXPECT_EQ((a * b).to_string(), "121932631356500531347203169112635269");
}

TEST(BigInt, DivModSatisfiesEuclideanIdentityRandomized) {
  std::mt19937_64 gen{7};
  std::uniform_int_distribution<int> limbs_dist{1, 8};
  std::uniform_int_distribution<std::uint32_t> limb{};
  for (int trial = 0; trial < 300; ++trial) {
    // Build random multi-limb values via decimal strings of random chunks.
    auto random_big = [&](int limbs) {
      BigInt value{0};
      for (int i = 0; i < limbs; ++i) {
        value = value * BigInt{std::uint64_t{1} << 32} + BigInt{std::uint64_t{limb(gen)}};
      }
      return value;
    };
    BigInt dividend = random_big(limbs_dist(gen));
    BigInt divisor = random_big(limbs_dist(gen));
    if (divisor.is_zero()) divisor = BigInt{1};
    if (trial % 3 == 0) dividend = dividend.negated();
    if (trial % 5 == 0) divisor = divisor.negated();
    const auto [q, r] = div_mod(dividend, divisor);
    EXPECT_EQ(q * divisor + r, dividend);
    EXPECT_LT(r.abs(), divisor.abs());
    // Truncated division: remainder carries dividend's sign (or is zero).
    if (!r.is_zero()) EXPECT_EQ(r.signum(), dividend.signum());
  }
}

TEST(BigInt, DivModHandlesQhatCorrectionCases) {
  // Dividend/divisor chosen so the Knuth-D trial quotient needs adjustment:
  // top limbs equal forces q_hat == base - 1 paths.
  const BigInt a = (BigInt{1} << 96) - BigInt{1};
  const BigInt b = (BigInt{1} << 64) - BigInt{1};
  const auto [q, r] = div_mod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_EQ(q.to_string(), "4294967296");  // 2^32
  EXPECT_EQ(r.to_string(), "4294967295");  // 2^32 - 1
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{0}, std::domain_error);
}

TEST(BigInt, ShiftsMatchMultiplicationByPowersOfTwo) {
  BigInt x = BigInt::from_string("123456789123456789");
  for (std::size_t k : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(x << k, x * BigInt::pow(BigInt{2}, k)) << k;
    EXPECT_EQ((x << k) >> k, x) << k;
  }
  EXPECT_TRUE((BigInt{1} >> 1).is_zero());
}

TEST(BigInt, ComparisonIsATotalOrder) {
  const BigInt values[] = {BigInt::from_string("-100000000000000000000"), BigInt{-3}, BigInt{0},
                           BigInt{7}, BigInt::from_string("100000000000000000000")};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    for (std::size_t j = 0; j < std::size(values); ++j) {
      EXPECT_EQ(values[i] < values[j], i < j);
      EXPECT_EQ(values[i] == values[j], i == j);
    }
  }
}

TEST(BigInt, GcdMatchesKnownValues) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}).to_string(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}).to_string(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}).to_string(), "5");
  EXPECT_EQ(BigInt::gcd(BigInt::from_string("123456789123456789123456789"),
                        BigInt::from_string("987654321987654321"))
                .to_string(),
            "9");
  EXPECT_EQ(BigInt::gcd(BigInt::pow(BigInt{2}, 100) * BigInt{81},
                        BigInt::pow(BigInt{2}, 90) * BigInt{27})
                .to_string(),
            (BigInt::pow(BigInt{2}, 90) * BigInt{27}).to_string());
}

TEST(BigInt, PowComputesLargePowers) {
  EXPECT_EQ(BigInt::pow(BigInt{2}, 128).to_string(), "340282366920938463463374607431768211456");
  EXPECT_EQ(BigInt::pow(BigInt{10}, 30).to_string(), std::string("1") + std::string(30, '0'));
  EXPECT_EQ(BigInt::pow(BigInt{-3}, 3).to_int64(), -27);
  EXPECT_EQ(BigInt::pow(BigInt{7}, 0).to_int64(), 1);
}

TEST(BigInt, ToDoubleIsAccurateForLargeValues) {
  const BigInt big = BigInt::pow(BigInt{10}, 40);
  EXPECT_NEAR(big.to_double(), 1e40, 1e25);
  EXPECT_DOUBLE_EQ(BigInt{-123456}.to_double(), -123456.0);
}

TEST(BigInt, FromIntegralDoubleRoundTrips) {
  EXPECT_EQ(BigInt::from_integral_double(0.0).to_string(), "0");
  EXPECT_EQ(BigInt::from_integral_double(-9007199254740992.0).to_string(), "-9007199254740992");
  EXPECT_EQ(BigInt::from_integral_double(std::ldexp(1.0, 100)).to_double(),
            std::ldexp(1.0, 100));
  EXPECT_THROW(BigInt::from_integral_double(0.5), std::invalid_argument);
  EXPECT_THROW(BigInt::from_integral_double(std::nan("")), std::invalid_argument);
}

TEST(BigInt, CrossQuotientMatchesMultiplyThenDivide) {
  // (a*b - c*e) / d against the plain operators, with d dividing exactly:
  // either a = d*v and c = d*u, or a = 1 and b = q*d + c*e.  Divisors get
  // extra factors of two; signs, zeros and word/limb sizes all vary.
  std::mt19937_64 gen{11};
  std::uniform_int_distribution<int> limbs_dist{0, 9};
  std::uniform_int_distribution<std::uint32_t> limb{};
  auto random_big = [&] {
    BigInt value{0};
    const int limbs = limbs_dist(gen);
    for (int i = 0; i < limbs; ++i) {
      value = value * BigInt{std::uint64_t{1} << 32} + BigInt{std::uint64_t{limb(gen)}};
    }
    return limb(gen) % 3 == 0 ? value.negated() : value;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    BigInt d = random_big();
    if (d.is_zero()) d = BigInt{trial % 2 == 0 ? 3 : -1};
    d <<= static_cast<std::size_t>(trial % 70);
    BigInt a;
    BigInt b = random_big();
    BigInt c;
    BigInt e = random_big();
    if (trial % 2 == 0) {
      a = d * random_big();
      c = d * random_big();
    } else {
      a = BigInt{1};
      c = random_big();
      b = random_big() * d + c * e;
    }
    const BigInt expected = (a * b - c * e) / d;
    BigInt got{12345};
    got.assign_cross_quotient(a, b, c, e, ExactDivisor{d});
    EXPECT_EQ(got, expected) << trial;
    // The cell being updated is usually an operand of its own update.
    BigInt aliased = b;
    aliased.assign_cross_quotient(a, aliased, c, e, ExactDivisor{d});
    EXPECT_EQ(aliased, expected) << trial;
  }
  EXPECT_THROW(ExactDivisor{BigInt{}}, std::domain_error);
}

TEST(BigInt, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt::from_string("9223372036854775807").fits_int64());
  EXPECT_FALSE(BigInt::from_string("9223372036854775808").fits_int64());
  EXPECT_TRUE(BigInt::from_string("-9223372036854775808").fits_int64());
  EXPECT_FALSE(BigInt::from_string("-9223372036854775809").fits_int64());
  EXPECT_THROW((void)BigInt::from_string("9223372036854775808").to_int64(), std::overflow_error);
}

}  // namespace
}  // namespace hetero::numeric
