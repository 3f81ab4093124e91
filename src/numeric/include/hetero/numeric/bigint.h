#pragma once

// Arbitrary-precision signed integers.
//
// The symmetric-function predictor of Proposition 3 compares cross-products
// F_i(P1)*F_j(P2) vs F_i(P2)*F_j(P1) whose difference can be many orders of
// magnitude below the products themselves, so the comparison must be exact.
// Every IEEE-754 double is a dyadic rational, which lets us lift measured
// profiles into exact arithmetic without rounding.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hetero/numeric/arena.h"

namespace hetero::numeric {

struct BigIntDivMod;
class BigInt;

/// A nonzero divisor prepared for repeated exact division
/// (BigInt::assign_cross_quotient): its sign, its power of two, its odd part
/// and that odd part's inverse modulo 2^32.
class ExactDivisor {
 public:
  /// Throws std::domain_error on zero.
  explicit ExactDivisor(const BigInt& divisor);

 private:
  friend class BigInt;
  int sign_ = 1;
  std::size_t twos_ = 0;
  LimbVector odd_;
  std::uint32_t inverse_ = 1;
};

/// Signed arbitrary-precision integer with value semantics.
///
/// Representation: sign in {-1, 0, +1} plus the magnitude, stored in one of
/// two forms:
///   * small: a single inline 64-bit word (`small_`), no heap allocation —
///     every magnitude < 2^64 is canonically stored this way;
///   * large: a little-endian vector of 32-bit limbs with no trailing zero
///     limbs (canonically >= 3 limbs, since anything shorter fits the word).
///     Limb storage is arena-aware (numeric/arena.h): inside an ArenaScope
///     the buffers bump-allocate, so exact inner loops pay no malloc traffic.
/// Zero is canonically (sign == 0, small == 0, limbs empty).  The word form
/// carries hardware add/sub/mul/divmod fast paths; results are renormalized
/// to the canonical form after every operation, so equality is structural.
class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t value);   // NOLINT(google-explicit-constructor)
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)
  BigInt(int value) : BigInt(static_cast<std::int64_t>(value)) {}  // NOLINT

  /// Parses an optionally signed decimal string; throws std::invalid_argument
  /// on malformed input (empty string, non-digit characters).
  static BigInt from_string(std::string_view text);

  /// Exact value of a finite double times 2^exp2 when the double is scaled to
  /// an integer; throws std::invalid_argument for NaN/inf or non-integral
  /// input.  Use Rational::from_double for general doubles.
  static BigInt from_integral_double(double value);

  [[nodiscard]] bool is_zero() const noexcept { return sign_ == 0; }
  [[nodiscard]] bool is_negative() const noexcept { return sign_ < 0; }
  [[nodiscard]] bool is_one() const noexcept {
    return sign_ > 0 && limbs_.empty() && small_ == 1;
  }
  /// |*this| == 1 (so it divides everything: gcd against it is 1).
  [[nodiscard]] bool has_unit_magnitude() const noexcept {
    return limbs_.empty() && small_ == 1;
  }
  [[nodiscard]] int signum() const noexcept { return sign_; }

  /// Number of significant bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;
  /// Number of 32-bit limbs the magnitude occupies (0 for zero); counts the
  /// words of the inline representation too, so it tracks magnitude, not
  /// storage.
  [[nodiscard]] std::size_t limb_count() const noexcept {
    if (!limbs_.empty()) return limbs_.size();
    if (small_ == 0) return 0;
    return small_ >> 32 != 0 ? 2 : 1;
  }
  /// True when the magnitude is held in the inline word (no heap storage).
  [[nodiscard]] bool is_small() const noexcept { return limbs_.empty(); }

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  BigInt& operator/=(const BigInt& rhs);
  BigInt& operator%=(const BigInt& rhs);
  /// The fraction-free (Bareiss) elimination step: *this = (a*b - c*e) / d,
  /// where d is known to divide a*b - c*e (the result is unspecified
  /// otherwise).  Both products and the difference go to scratch limbs and
  /// the quotient comes from the low end (Jebelean's exact division): no
  /// remainder, no normalization, no trial-quotient correction, no gcd, and
  /// *this reuses its own storage.  Any argument may alias *this.
  BigInt& assign_cross_quotient(const BigInt& a, const BigInt& b, const BigInt& c,
                                const BigInt& e, const ExactDivisor& d);
  BigInt& operator<<=(std::size_t bits);
  BigInt& operator>>=(std::size_t bits);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  friend BigInt operator<<(BigInt lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigInt operator>>(BigInt lhs, std::size_t bits) { return lhs >>= bits; }
  BigInt operator-() const { return negated(); }

  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);
  [[nodiscard]] static BigInt pow(const BigInt& base, std::uint64_t exponent);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) noexcept = default;
  friend std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) noexcept;

  [[nodiscard]] std::string to_string() const;

  /// Best-effort conversion to double (correct sign and magnitude to within
  /// one ulp of the 64 most significant bits; +/-inf on overflow).
  [[nodiscard]] double to_double() const noexcept;

  /// Exact conversion to int64 if representable.
  [[nodiscard]] bool fits_int64() const noexcept;
  [[nodiscard]] std::int64_t to_int64() const;  ///< Throws std::overflow_error if not representable.

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

 private:
  static int compare_magnitude(std::span<const std::uint32_t> a,
                               std::span<const std::uint32_t> b) noexcept;
  static int compare_magnitude(const BigInt& a, const BigInt& b) noexcept;
  static LimbVector add_magnitude(const LimbVector& a, const LimbVector& b);
  // Requires |a| >= |b|.
  static LimbVector sub_magnitude(const LimbVector& a, const LimbVector& b);
  static LimbVector mul_magnitude(const LimbVector& a, const LimbVector& b);
  static void trim(LimbVector& limbs) noexcept;
  // The magnitude as limbs without copying; a word magnitude is spilled
  // into `spill`.
  [[nodiscard]] std::span<const std::uint32_t> magnitude_view(
      std::uint32_t (&spill)[2]) const noexcept;

  // Canonicalization: magnitudes < 2^64 live in small_, anything larger in
  // limbs_.  set_word installs a word magnitude; adopt_limbs installs a limb
  // vector, trimming and demoting to the word form when it fits.
  void set_word(int sign, std::uint64_t magnitude) noexcept;
  void adopt_limbs(int sign, LimbVector&& limbs) noexcept;
  // Materializes the magnitude as limbs (slow-path entry for small values).
  [[nodiscard]] LimbVector magnitude_limbs() const;
  // Signed addition core shared by += and -=: *this += rhs_sign * |rhs|.
  BigInt& add_signed(const BigInt& rhs, int rhs_sign);

  int sign_ = 0;
  std::uint64_t small_ = 0;           // magnitude when limbs_ is empty
  LimbVector limbs_;  // magnitude otherwise (>= 3 limbs)

  friend struct BigIntDivMod;
  friend class ExactDivisor;
  friend BigIntDivMod div_mod(const BigInt& dividend, const BigInt& divisor);
};

/// Quotient and remainder of a truncated division (remainder carries the
/// dividend's sign).
struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

/// One-pass quotient + remainder; throws std::domain_error on zero divisor.
[[nodiscard]] BigIntDivMod div_mod(const BigInt& dividend, const BigInt& divisor);

}  // namespace hetero::numeric
