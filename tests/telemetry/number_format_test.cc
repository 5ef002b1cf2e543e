// AppendJsonNumber must give exactly the characters printf("%.12g") gives
// (docs/telemetry.md promises %.12g for every exporter), with "0" for the
// non-finite values JSON cannot spell. The corpus is seeded and covers every
// double class, not only the values a bench happens to export.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/telemetry/export.h"
#include "src/util/rng.h"

namespace cxl::telemetry {
namespace {

std::string Formatted(double v) {
  std::string out;
  AppendJsonNumber(out, v);
  return out;
}

std::string Printf12g(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Counts mismatches and reports the first few, so a failure names its
// values without flooding the log.
class Parity {
 public:
  void Check(double v) {
    ++checked_;
    const std::string got = Formatted(v);
    const std::string want = Printf12g(v);
    if (got != want && ++mismatches_ <= 10) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got \"" << got << "\", %.12g gives \""
                    << want << "\"";
    }
  }
  // Both signs, and the neighbouring doubles on either side.
  void CheckAround(double v) {
    for (const double s : {v, -v}) {
      Check(s);
      Check(std::nextafter(s, std::numeric_limits<double>::infinity()));
      Check(std::nextafter(s, -std::numeric_limits<double>::infinity()));
    }
  }
  uint64_t checked() const { return checked_; }
  uint64_t mismatches() const { return mismatches_; }

 private:
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
};

TEST(NumberFormatTest, RandomBitPatternsMatchPrintf) {
  // Raw bit patterns reach subnormals, NaN payloads and infinities as well
  // as every exponent.
  Rng rng(0x5eed12ull);
  Parity parity;
  for (int i = 0; i < 1'000'000; ++i) {
    parity.Check(FromBits(rng.NextU64()));
  }
  // Every exponent field, with a random mantissa: the all-zero field is
  // zero/subnormal, the all-ones field inf/NaN.
  for (uint64_t exponent = 0; exponent < 2048; ++exponent) {
    for (int i = 0; i < 16; ++i) {
      const uint64_t mantissa = rng.NextU64() & ((uint64_t{1} << 52) - 1);
      parity.Check(FromBits((exponent << 52) | mantissa));
      parity.Check(FromBits((uint64_t{1} << 63) | (exponent << 52) | mantissa));
    }
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.checked();
}

TEST(NumberFormatTest, NonFiniteValuesBecomeZero) {
  EXPECT_EQ(Formatted(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(Formatted(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(Formatted(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(Formatted(-std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(Formatted(std::numeric_limits<double>::signaling_NaN()), "0");
  EXPECT_EQ(Formatted(FromBits(0x7ff0000000000001ull)), "0");  // NaN, low payload.
}

TEST(NumberFormatTest, SignedZeroKeepsItsSign) {
  EXPECT_EQ(Formatted(0.0), "0");
  EXPECT_EQ(Formatted(-0.0), "-0");
  EXPECT_EQ(Printf12g(-0.0), "-0");
}

TEST(NumberFormatTest, IntegersUpTo2Pow53MatchPrintf) {
  Parity parity;
  for (int64_t i = 0; i <= 100'000; ++i) {
    parity.Check(static_cast<double>(i));
    parity.Check(-static_cast<double>(i));
  }
  // Every power of two and its neighbours up to 2^53, where doubles stop
  // holding every integer.
  for (int k = 0; k <= 53; ++k) {
    const auto p = static_cast<int64_t>(uint64_t{1} << k);
    for (const int64_t i : {p - 1, p, p + 1}) {
      parity.Check(static_cast<double>(i));
      parity.Check(-static_cast<double>(i));
    }
  }
  Rng rng(53);
  for (int i = 0; i < 100'000; ++i) {
    parity.Check(static_cast<double>(rng.NextBounded((uint64_t{1} << 53) + 1)));
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.checked();
}

TEST(NumberFormatTest, EveryPowerOfTenMatchesPrintf) {
  Parity parity;
  for (int e = -300; e <= 300; ++e) {
    // strtod gives the double nearest 10^e; the neighbours straddle it.
    const std::string literal = "1e" + std::to_string(e);
    parity.CheckAround(std::strtod(literal.c_str(), nullptr));
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.checked();
}

TEST(NumberFormatTest, RoundingAtTwelveDigitsMatchesPrintf) {
  Parity parity;
  for (const double v : {999999999999.5, 0.1 + 0.2, 1e21, 999999999999.0, 1e12, 123456789012.5,
                         1234567890125.0, 9999999999995.0, 0.5, 2.5, 1e-4, 1e-5, 9.99999999999e-5,
                         0.000099999999999995, 1.0 / 3.0, 2.0 / 3.0, 5e-324,
                         std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::epsilon()}) {
    parity.CheckAround(v);
  }
  // Decimal literals whose 13th significant digit is a 5: the rounding
  // boundary of %.12g, across the exponent range.
  Rng rng(12);
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t digits = 100'000'000'000ull + rng.NextBounded(900'000'000'000ull);
    const int exponent = static_cast<int>(rng.NextBounded(601)) - 300;
    char literal[48];
    std::snprintf(literal, sizeof(literal), "%" PRIu64 "5e%d", digits, exponent);
    parity.CheckAround(std::strtod(literal, nullptr));
  }
  EXPECT_EQ(parity.mismatches(), 0u) << "of " << parity.checked();
  EXPECT_EQ(Formatted(999999999999.5), "1e+12");
  EXPECT_EQ(Formatted(0.1 + 0.2), "0.3");
  EXPECT_EQ(Formatted(1e21), "1e+21");
}

TEST(NumberFormatTest, AppendsWithoutTouchingThePrefix) {
  std::string out = "[";
  AppendJsonNumber(out, 1.5);
  out += ',';
  AppendJsonNumber(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "[1.5,0");
}

}  // namespace
}  // namespace cxl::telemetry
