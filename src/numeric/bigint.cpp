#include "hetero/numeric/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace hetero::numeric {
namespace {

constexpr std::uint64_t kBase = std::uint64_t{1} << 32;

// 128-bit product of two words (GCC/Clang builtin type; no standard spelling).
__extension__ using uint128 = unsigned __int128;

// gcd of two nonzero words, binary (Stein) algorithm — no divisions beyond
// shifts, no allocation.
std::uint64_t word_gcd(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  do {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace

void BigInt::set_word(int sign, std::uint64_t magnitude) noexcept {
  limbs_.clear();
  small_ = magnitude;
  sign_ = magnitude == 0 ? 0 : sign;
}

void BigInt::adopt_limbs(int sign, LimbVector&& limbs) noexcept {
  trim(limbs);
  if (limbs.size() <= 2) {
    std::uint64_t magnitude = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2) magnitude |= static_cast<std::uint64_t>(limbs[1]) << 32;
    set_word(sign, magnitude);
    return;
  }
  limbs_ = std::move(limbs);
  small_ = 0;
  sign_ = sign;
}

LimbVector BigInt::magnitude_limbs() const {
  if (!limbs_.empty()) return limbs_;
  LimbVector limbs;
  if (small_ != 0) {
    limbs.push_back(static_cast<std::uint32_t>(small_ & 0xffffffffu));
    if (small_ >> 32 != 0) limbs.push_back(static_cast<std::uint32_t>(small_ >> 32));
  }
  return limbs;
}

BigInt::BigInt(std::int64_t value) {
  if (value == 0) return;
  // Avoid UB negating INT64_MIN by working in unsigned space.
  const std::uint64_t magnitude =
      value < 0 ? ~static_cast<std::uint64_t>(value) + 1 : static_cast<std::uint64_t>(value);
  set_word(value < 0 ? -1 : 1, magnitude);
}

BigInt::BigInt(std::uint64_t value) { set_word(1, value); }

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt::from_string: empty input");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) throw std::invalid_argument("BigInt::from_string: sign only");
  BigInt result;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9') throw std::invalid_argument("BigInt::from_string: non-digit");
    result *= BigInt{10};
    result += BigInt{c - '0'};
  }
  if (negative && !result.is_zero()) result.sign_ = -1;
  return result;
}

BigInt BigInt::from_integral_double(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("BigInt::from_integral_double: non-finite");
  if (std::trunc(value) != value) {
    throw std::invalid_argument("BigInt::from_integral_double: non-integral");
  }
  bool negative = std::signbit(value);
  double magnitude = std::fabs(value);
  BigInt result;
  // Peel 32 bits at a time from the bottom, placing each chunk at its weight.
  std::size_t shift = 0;
  while (magnitude >= 1.0) {
    double chunk = std::floor(magnitude / 4294967296.0);
    auto low = static_cast<std::uint32_t>(magnitude - chunk * 4294967296.0);
    result += BigInt{static_cast<std::uint64_t>(low)} << shift;
    shift += 32;
    magnitude = chunk;
  }
  if (negative && !result.is_zero()) result.sign_ = -1;
  return result;
}

std::size_t BigInt::bit_length() const noexcept {
  if (limbs_.empty()) {
    return small_ == 0 ? 0 : 64 - static_cast<std::size_t>(std::countl_zero(small_));
  }
  const std::uint32_t top = limbs_.back();
  return (limbs_.size() - 1) * 32 + (32 - static_cast<std::size_t>(std::countl_zero(top)));
}

BigInt BigInt::abs() const {
  BigInt result = *this;
  if (result.sign_ < 0) result.sign_ = 1;
  return result;
}

BigInt BigInt::negated() const {
  BigInt result = *this;
  result.sign_ = -result.sign_;
  return result;
}

void BigInt::trim(LimbVector& limbs) noexcept {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
}

int BigInt::compare_magnitude(std::span<const std::uint32_t> a,
                              std::span<const std::uint32_t> b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::compare_magnitude(const BigInt& a, const BigInt& b) noexcept {
  const bool a_small = a.limbs_.empty();
  const bool b_small = b.limbs_.empty();
  if (a_small && b_small) {
    if (a.small_ != b.small_) return a.small_ < b.small_ ? -1 : 1;
    return 0;
  }
  // Canonical large magnitudes have >= 3 limbs, i.e. >= 2^64 > any word.
  if (a_small != b_small) return a_small ? -1 : 1;
  return compare_magnitude(a.limbs_, b.limbs_);
}

LimbVector BigInt::add_magnitude(const LimbVector& a, const LimbVector& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  LimbVector result;
  result.reserve(longer.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    std::uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0u);
    result.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) result.push_back(static_cast<std::uint32_t>(carry));
  return result;
}

LimbVector BigInt::sub_magnitude(const LimbVector& a, const LimbVector& b) {
  LimbVector result;
  result.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<std::uint32_t>(diff));
  }
  trim(result);
  return result;
}

namespace {

// Schoolbook product (O(n*m)) into zeroed storage of a.size() + b.size()
// limbs; the base case of the Karatsuba recursion.
void schoolbook_mul_into(std::uint32_t* result, std::span<const std::uint32_t> a,
                         std::span<const std::uint32_t> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = result[i + j] + static_cast<std::uint64_t>(a[i]) * b[j] + carry;
      result[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    result[i + b.size()] = static_cast<std::uint32_t>(carry);  // no earlier row reached it
  }
}

LimbVector schoolbook_mul(const LimbVector& a, const LimbVector& b) {
  LimbVector result(a.size() + b.size(), 0);
  schoolbook_mul_into(result.data(), a, b);
  return result;
}

// result[offset..] += add (in place, carrying as far as needed).
void add_at(LimbVector& result, const LimbVector& add, std::size_t offset) {
  std::uint64_t carry = 0;
  std::size_t i = 0;
  for (; i < add.size(); ++i) {
    std::uint64_t cur = result[offset + i] + std::uint64_t{add[i]} + carry;
    result[offset + i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  while (carry != 0) {
    std::uint64_t cur = result[offset + i] + carry;
    result[offset + i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
    ++i;
  }
}

// result[offset..] -= sub; requires the slice to stay nonnegative (it does:
// Karatsuba's middle term never underflows).
void sub_at(LimbVector& result, const LimbVector& sub, std::size_t offset) {
  std::int64_t borrow = 0;
  std::size_t i = 0;
  for (; i < sub.size(); ++i) {
    std::int64_t cur = static_cast<std::int64_t>(result[offset + i]) - borrow -
                       static_cast<std::int64_t>(sub[i]);
    if (cur < 0) {
      cur += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    result[offset + i] = static_cast<std::uint32_t>(cur);
  }
  while (borrow != 0) {
    std::int64_t cur = static_cast<std::int64_t>(result[offset + i]) - borrow;
    if (cur < 0) {
      cur += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    result[offset + i] = static_cast<std::uint32_t>(cur);
    ++i;
  }
}

// Raw limb addition returning a fresh vector (used for (a_lo + a_hi)).
LimbVector add_limbs(const LimbVector& a, const LimbVector& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  LimbVector result(longer.size() + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    std::uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0u);
    result[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  result[longer.size()] = static_cast<std::uint32_t>(carry);
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

constexpr std::size_t kKaratsubaThreshold = 32;  // limbs

// Karatsuba: (hi1*S + lo1)(hi2*S + lo2) = z2*S^2 + (z1 - z2 - z0)*S + z0
// with z0 = lo1*lo2, z2 = hi1*hi2, z1 = (lo1+hi1)(lo2+hi2).
LimbVector karatsuba_mul(const LimbVector& a, const LimbVector& b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) return schoolbook_mul(a, b);

  const std::size_t split = std::min(a.size(), b.size()) / 2;
  const LimbVector a_lo(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(split));
  const LimbVector a_hi(a.begin() + static_cast<std::ptrdiff_t>(split), a.end());
  const LimbVector b_lo(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(split));
  const LimbVector b_hi(b.begin() + static_cast<std::ptrdiff_t>(split), b.end());

  const auto z0 = karatsuba_mul(a_lo, b_lo);
  const auto z2 = karatsuba_mul(a_hi, b_hi);
  const auto z1 = karatsuba_mul(add_limbs(a_lo, a_hi), add_limbs(b_lo, b_hi));

  LimbVector result(a.size() + b.size() + 1, 0);
  add_at(result, z0, 0);
  add_at(result, z1, split);
  sub_at(result, z0, split);
  sub_at(result, z2, split);
  add_at(result, z2, 2 * split);
  return result;
}

}  // namespace

LimbVector BigInt::mul_magnitude(const LimbVector& a, const LimbVector& b) {
  LimbVector result = karatsuba_mul(a, b);
  trim(result);
  return result;
}

BigInt& BigInt::add_signed(const BigInt& rhs, int rhs_sign) {
  if (rhs_sign == 0) return *this;
  if (sign_ == 0) {
    if (limbs_.empty() && rhs.limbs_.empty()) {
      set_word(rhs_sign, rhs.small_);
    } else {
      *this = rhs;
      sign_ = rhs_sign;
    }
    return *this;
  }
  if (limbs_.empty() && rhs.limbs_.empty()) {
    // Word fast path: no allocation unless the sum carries past 2^64.
    if (sign_ == rhs_sign) {
      std::uint64_t sum = 0;
      if (!__builtin_add_overflow(small_, rhs.small_, &sum)) {
        small_ = sum;
        return *this;
      }
      // Exactly one carry bit: magnitude = 2^64 + (wrapped sum).
      LimbVector limbs{static_cast<std::uint32_t>(sum & 0xffffffffu),
                                       static_cast<std::uint32_t>(sum >> 32), 1u};
      adopt_limbs(sign_, std::move(limbs));
      return *this;
    }
    // Opposite signs: |difference| always fits a word.
    if (small_ >= rhs.small_) {
      set_word(sign_, small_ - rhs.small_);
    } else {
      set_word(rhs_sign, rhs.small_ - small_);
    }
    return *this;
  }

  // Limb slow path.
  if (sign_ == rhs_sign) {
    adopt_limbs(sign_, add_magnitude(magnitude_limbs(), rhs.magnitude_limbs()));
  } else {
    const int cmp = compare_magnitude(*this, rhs);
    if (cmp == 0) {
      set_word(0, 0);
    } else if (cmp > 0) {
      adopt_limbs(sign_, sub_magnitude(magnitude_limbs(), rhs.magnitude_limbs()));
    } else {
      adopt_limbs(rhs_sign, sub_magnitude(rhs.magnitude_limbs(), magnitude_limbs()));
    }
  }
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) { return add_signed(rhs, rhs.sign_); }

BigInt& BigInt::operator-=(const BigInt& rhs) { return add_signed(rhs, -rhs.sign_); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (sign_ == 0 || rhs.sign_ == 0) {
    set_word(0, 0);
    return *this;
  }
  const int result_sign = sign_ == rhs.sign_ ? 1 : -1;
  if (limbs_.empty() && rhs.limbs_.empty()) {
    // Word fast path: the full 128-bit product is computed directly; only a
    // product that overflows 64 bits materializes limbs.
    const uint128 product = static_cast<uint128>(small_) * rhs.small_;
    const auto hi = static_cast<std::uint64_t>(product >> 64);
    const auto lo = static_cast<std::uint64_t>(product);
    if (hi == 0) {
      set_word(result_sign, lo);
      return *this;
    }
    LimbVector limbs{
        static_cast<std::uint32_t>(lo & 0xffffffffu), static_cast<std::uint32_t>(lo >> 32),
        static_cast<std::uint32_t>(hi & 0xffffffffu), static_cast<std::uint32_t>(hi >> 32)};
    adopt_limbs(result_sign, std::move(limbs));
    return *this;
  }
  adopt_limbs(result_sign, mul_magnitude(magnitude_limbs(), rhs.magnitude_limbs()));
  return *this;
}

BigIntDivMod div_mod(const BigInt& dividend, const BigInt& divisor) {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  BigIntDivMod out;
  if (dividend.is_zero()) return out;

  const int quotient_sign = dividend.sign_ == divisor.sign_ ? 1 : -1;

  if (dividend.limbs_.empty() && divisor.limbs_.empty()) {
    // Word fast path: one hardware divmod.
    out.quotient.set_word(quotient_sign, dividend.small_ / divisor.small_);
    out.remainder.set_word(dividend.sign_, dividend.small_ % divisor.small_);
    return out;
  }

  const int magnitude_cmp = BigInt::compare_magnitude(dividend, divisor);
  if (magnitude_cmp < 0) {
    out.remainder = dividend;
    return out;
  }

  const LimbVector dividend_limbs = dividend.magnitude_limbs();
  const LimbVector divisor_limbs = divisor.magnitude_limbs();
  LimbVector quotient;
  LimbVector remainder;

  if (divisor_limbs.size() == 1) {
    // Short division by a single limb.
    const std::uint64_t d = divisor_limbs[0];
    quotient.assign(dividend_limbs.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = dividend_limbs.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | dividend_limbs[i];
      quotient[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    if (rem != 0) remainder.push_back(static_cast<std::uint32_t>(rem));
  } else {
    // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) in base 2^32.
    const std::size_t n = divisor_limbs.size();
    const std::size_t m = dividend_limbs.size() - n;
    const auto shift =
        static_cast<unsigned>(std::countl_zero(divisor_limbs.back()));

    // Normalized copies: v has its top bit set; u gets an extra high limb.
    LimbVector v(n);
    for (std::size_t i = n; i-- > 0;) {
      std::uint64_t hi = static_cast<std::uint64_t>(divisor_limbs[i]) << shift;
      std::uint64_t lo = (shift != 0 && i > 0)
                             ? divisor_limbs[i - 1] >> (32 - shift)
                             : 0;
      v[i] = static_cast<std::uint32_t>(hi | lo);
    }
    LimbVector u(dividend_limbs.size() + 1, 0);
    if (shift == 0) {
      std::copy(dividend_limbs.begin(), dividend_limbs.end(), u.begin());
    } else {
      u[dividend_limbs.size()] =
          dividend_limbs.back() >> (32 - shift);
      for (std::size_t i = dividend_limbs.size(); i-- > 0;) {
        std::uint64_t hi = static_cast<std::uint64_t>(dividend_limbs[i]) << shift;
        std::uint64_t lo = i > 0 ? dividend_limbs[i - 1] >> (32 - shift) : 0;
        u[i] = static_cast<std::uint32_t>((hi | lo) & 0xffffffffu);
      }
    }

    quotient.assign(m + 1, 0);
    const std::uint64_t v_top = v[n - 1];
    const std::uint64_t v_second = v[n - 2];
    for (std::size_t j = m + 1; j-- > 0;) {
      std::uint64_t numerator = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
      std::uint64_t q_hat = numerator / v_top;
      std::uint64_t r_hat = numerator % v_top;
      while (q_hat >= kBase ||
             q_hat * v_second > ((r_hat << 32) | u[j + n - 2])) {
        --q_hat;
        r_hat += v_top;
        if (r_hat >= kBase) break;
      }
      // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
      std::int64_t borrow = 0;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t product = q_hat * v[i] + carry;
        carry = product >> 32;
        std::int64_t diff = static_cast<std::int64_t>(u[i + j]) - borrow -
                            static_cast<std::int64_t>(product & 0xffffffffu);
        if (diff < 0) {
          diff += static_cast<std::int64_t>(kBase);
          borrow = 1;
        } else {
          borrow = 0;
        }
        u[i + j] = static_cast<std::uint32_t>(diff);
      }
      std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) - borrow -
                              static_cast<std::int64_t>(carry);
      if (top_diff < 0) {
        // q_hat was one too large (rare): add v back and decrement.
        top_diff += static_cast<std::int64_t>(kBase);
        --q_hat;
        std::uint64_t add_carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
          u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffu);
          add_carry = sum >> 32;
        }
        top_diff += static_cast<std::int64_t>(add_carry);
        top_diff &= static_cast<std::int64_t>(0xffffffffu);
      }
      u[j + n] = static_cast<std::uint32_t>(top_diff);
      quotient[j] = static_cast<std::uint32_t>(q_hat);
    }

    // Denormalize the remainder.
    remainder.assign(n, 0);
    if (shift == 0) {
      std::copy(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n), remainder.begin());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t lo = u[i] >> shift;
        std::uint64_t hi = (i + 1 < n + 1) ? (static_cast<std::uint64_t>(u[i + 1])
                                              << (32 - shift))
                                           : 0;
        remainder[i] = static_cast<std::uint32_t>((lo | hi) & 0xffffffffu);
      }
    }
  }

  out.quotient.adopt_limbs(quotient_sign, std::move(quotient));
  out.remainder.adopt_limbs(dividend.sign_, std::move(remainder));
  return out;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).quotient;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).remainder;
  return *this;
}

std::span<const std::uint32_t> BigInt::magnitude_view(std::uint32_t (&spill)[2]) const noexcept {
  if (!limbs_.empty()) return {limbs_.data(), limbs_.size()};
  spill[0] = static_cast<std::uint32_t>(small_);
  spill[1] = static_cast<std::uint32_t>(small_ >> 32);
  return {spill, small_ == 0 ? 0u : (spill[1] != 0 ? 2u : 1u)};
}

ExactDivisor::ExactDivisor(const BigInt& divisor) {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  sign_ = divisor.sign_;
  BigInt odd = divisor.abs();
  LimbVector limbs = odd.magnitude_limbs();
  while (limbs[twos_ / 32] == 0) twos_ += 32;
  twos_ += static_cast<std::size_t>(std::countr_zero(limbs[twos_ / 32]));
  odd >>= twos_;
  odd_ = odd.magnitude_limbs();
  // Newton iteration for the inverse mod 2^32: d * d == 1 (mod 8) gives 3
  // correct bits, and each step doubles them.
  const std::uint32_t d0 = odd_[0];
  inverse_ = d0;
  for (int step = 0; step < 4; ++step) inverse_ *= 2u - d0 * inverse_;
}

namespace {

// out = a * b (schoolbook: tableau entries are a few dozen limbs, well
// under the Karatsuba threshold).
void mul_into(std::vector<std::uint32_t>& out, std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b) {
  out.assign(a.size() + b.size(), 0);
  schoolbook_mul_into(out.data(), a, b);
  while (!out.empty() && out.back() == 0) out.pop_back();
}

// acc += add (magnitudes).
void add_into(std::vector<std::uint32_t>& acc, const std::vector<std::uint32_t>& add) {
  if (acc.size() < add.size()) acc.resize(add.size(), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < acc.size() && (i < add.size() || carry != 0); ++i) {
    const std::uint64_t sum = std::uint64_t{acc[i]} + (i < add.size() ? add[i] : 0u) + carry;
    acc[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) acc.push_back(static_cast<std::uint32_t>(carry));
}

// big -= small (magnitudes, big >= small).
void sub_into(std::vector<std::uint32_t>& big, const std::vector<std::uint32_t>& small) {
  std::uint32_t borrow = 0;
  for (std::size_t i = 0; i < big.size() && (i < small.size() || borrow != 0); ++i) {
    const std::uint64_t sub = std::uint64_t{i < small.size() ? small[i] : 0u} + borrow;
    borrow = std::uint64_t{big[i]} < sub ? 1u : 0u;
    big[i] = static_cast<std::uint32_t>(std::uint64_t{big[i]} - sub);
  }
  while (!big.empty() && big.back() == 0) big.pop_back();
}

// work >>= bits in place (trimmed).
void shift_right_into(std::vector<std::uint32_t>& work, std::size_t bits) {
  const std::size_t limbs = bits / 32;
  const unsigned rest = static_cast<unsigned>(bits % 32);
  if (limbs >= work.size()) {
    work.clear();
    return;
  }
  const std::size_t size = work.size() - limbs;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint64_t value = work[i + limbs] >> rest;
    if (rest != 0 && i + limbs + 1 < work.size()) {
      value |= std::uint64_t{work[i + limbs + 1]} << (32 - rest);
    }
    work[i] = static_cast<std::uint32_t>(value);
  }
  work.resize(size);
  while (!work.empty() && work.back() == 0) work.pop_back();
}

}  // namespace

BigInt& BigInt::assign_cross_quotient(const BigInt& a, const BigInt& b, const BigInt& c,
                                      const BigInt& e, const ExactDivisor& d) {
  // Scratch survives across calls (plain heap vectors: never arena memory,
  // which a later reset would pull out from under them).
  thread_local std::vector<std::uint32_t> left;
  thread_local std::vector<std::uint32_t> right;
  std::uint32_t spill[4][2];
  const int left_sign = a.sign_ * b.sign_;
  const int right_sign = -(c.sign_ * e.sign_);
  if (left_sign != 0) {
    mul_into(left, a.magnitude_view(spill[0]), b.magnitude_view(spill[1]));
  } else {
    left.clear();
  }
  if (right_sign != 0) {
    mul_into(right, c.magnitude_view(spill[2]), e.magnitude_view(spill[3]));
  } else {
    right.clear();
  }
  // left_sign * |left| + right_sign * |right|, accumulated in `left`.
  int sign = left_sign;
  if (left_sign == 0) {
    left.swap(right);
    sign = right_sign;
  } else if (right_sign == left_sign) {
    add_into(left, right);
  } else if (right_sign != 0) {
    const int cmp = compare_magnitude(left, right);
    if (cmp < 0) {
      left.swap(right);
      sign = right_sign;
    }
    sub_into(left, right);
  }
  shift_right_into(left, d.twos_);
  if (left.empty()) {
    set_word(0, 0);
    return *this;
  }
  // Jebelean's exact division by the odd part, from the low limb up.  Only
  // the quotient's width of the dividend matters; each quotient limb lands
  // where its dividend limb was just cancelled to zero.
  const std::span<const std::uint32_t> odd{d.odd_.data(), d.odd_.size()};
  if (left.size() < odd.size()) {  // only a zero dividend is that short
    set_word(0, 0);
    return *this;
  }
  const std::size_t width = left.size() - odd.size() + 1;
  for (std::size_t i = 0; i < width; ++i) {
    const std::uint32_t q = left[i] * d.inverse_;
    std::uint64_t carry = 0;
    const std::size_t reach = std::min(odd.size(), width - i);
    std::size_t k = 0;
    for (; k < reach; ++k) {
      const std::uint64_t product = std::uint64_t{q} * odd[k] + carry;
      const auto low = static_cast<std::uint32_t>(product);
      const std::uint32_t cell = left[i + k];
      left[i + k] = cell - low;
      carry = (product >> 32) + (cell < low ? 1u : 0u);
    }
    for (std::size_t at = i + k; carry != 0 && at < width; ++at) {
      const std::uint32_t cell = left[at];
      const auto low = static_cast<std::uint32_t>(carry);
      left[at] = cell - low;
      carry = (carry >> 32) + (cell < low ? 1u : 0u);
    }
    left[i] = q;
  }
  std::size_t size = width;
  while (size > 0 && left[size - 1] == 0) --size;
  sign *= d.sign_;
  if (size <= 2) {
    set_word(sign, size == 0 ? 0 : (std::uint64_t{size == 2 ? left[1] : 0u} << 32) | left[0]);
  } else {
    limbs_.assign(left.begin(), left.begin() + static_cast<std::ptrdiff_t>(size));
    small_ = 0;
    sign_ = sign;
  }
  return *this;
}

BigInt& BigInt::operator<<=(std::size_t bits) {
  if (sign_ == 0 || bits == 0) return *this;
  if (limbs_.empty() && bits < 64 && bit_length() + bits <= 64) {
    small_ <<= bits;
    return *this;
  }
  const std::size_t limb_shift = bits / 32;
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  const LimbVector source = magnitude_limbs();
  LimbVector result(source.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < source.size(); ++i) {
    std::uint64_t shifted = static_cast<std::uint64_t>(source[i]) << bit_shift;
    result[i + limb_shift] |= static_cast<std::uint32_t>(shifted & 0xffffffffu);
    result[i + limb_shift + 1] |= static_cast<std::uint32_t>(shifted >> 32);
  }
  adopt_limbs(sign_, std::move(result));
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  if (sign_ == 0 || bits == 0) return *this;
  if (limbs_.empty()) {
    set_word(sign_, bits >= 64 ? 0 : small_ >> bits);
    return *this;
  }
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) {
    set_word(0, 0);
    return *this;
  }
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  LimbVector result(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < result.size(); ++i) {
    std::uint64_t lo = limbs_[i + limb_shift] >> bit_shift;
    std::uint64_t hi = (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
                           ? static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
                                 << (32 - bit_shift)
                           : 0;
    result[i] = static_cast<std::uint32_t>((lo | hi) & 0xffffffffu);
  }
  adopt_limbs(sign_, std::move(result));
  return *this;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  if (a.limbs_.empty() && b.limbs_.empty()) {
    return BigInt{word_gcd(a.small_, b.small_)};
  }
  a.sign_ = a.is_zero() ? 0 : 1;
  b.sign_ = b.is_zero() ? 0 : 1;
  while (!b.is_zero()) {
    if (a.limbs_.empty() && b.limbs_.empty()) {
      return BigInt{word_gcd(a.small_, b.small_)};
    }
    BigInt r = div_mod(a, b).remainder;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::pow(const BigInt& base, std::uint64_t exponent) {
  BigInt result{1};
  BigInt acc = base;
  while (exponent != 0) {
    if ((exponent & 1u) != 0) result *= acc;
    exponent >>= 1;
    if (exponent != 0) acc *= acc;
  }
  return result;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept {
  if (lhs.sign_ != rhs.sign_) {
    return lhs.sign_ < rhs.sign_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  int cmp = BigInt::compare_magnitude(lhs, rhs);
  if (lhs.sign_ < 0) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  if (limbs_.empty()) {
    std::string digits = std::to_string(small_);
    return sign_ < 0 ? "-" + digits : digits;
  }
  // Repeatedly divide by 10^9 to extract decimal chunks.
  constexpr std::uint64_t kChunk = 1000000000;
  LimbVector work = limbs_;
  std::string digits;
  while (!work.empty()) {
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<std::uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    trim(work);
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const noexcept {
  if (is_zero()) return 0.0;
  double result;
  if (limbs_.empty()) {
    result = static_cast<double>(small_);
  } else {
    // Take the top 64 bits and scale.
    const std::size_t bits = bit_length();
    BigInt top = *this;
    top.sign_ = 1;
    const std::size_t drop = bits - 64;
    top >>= drop;
    result = std::ldexp(static_cast<double>(top.small_), static_cast<int>(drop));
  }
  return sign_ < 0 ? -result : result;
}

bool BigInt::fits_int64() const noexcept {
  if (!limbs_.empty()) return false;
  if (sign_ >= 0) return small_ <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return small_ <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1;
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64: out of range");
  if (is_zero()) return 0;
  if (sign_ > 0) return static_cast<std::int64_t>(small_);
  return static_cast<std::int64_t>(~small_ + 1);
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace hetero::numeric
