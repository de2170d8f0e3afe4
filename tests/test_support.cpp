#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/digest.hpp"
#include "pathrouting/support/mixed_radix.hpp"
#include "pathrouting/support/prng.hpp"
#include "pathrouting/support/rational.hpp"
#include "pathrouting/support/table.hpp"

namespace {

namespace support = pathrouting::support;

using pathrouting::support::digit_at;
using pathrouting::support::from_digits;
using pathrouting::support::PowTable;
using pathrouting::support::Rational;
using pathrouting::support::Table;
using pathrouting::support::to_digits;
using pathrouting::support::with_digit;
using pathrouting::support::Xoshiro256;

TEST(Rational, NormalizesToLowestTerms) {
  const Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
  const Rational s(-6, -4);
  EXPECT_EQ(s.num(), 3);
  EXPECT_EQ(s.den(), 2);
  const Rational t(6, -4);
  EXPECT_EQ(t.num(), -3);
  EXPECT_EQ(t.den(), 2);
}

TEST(Rational, ZeroHasCanonicalForm) {
  const Rational z(0, -17);
  EXPECT_EQ(z.num(), 0);
  EXPECT_EQ(z.den(), 1);
  EXPECT_TRUE(z.is_zero());
}

TEST(Rational, Arithmetic) {
  const Rational half(1, 2), third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_GT(Rational(7, 3), Rational(2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, CompoundAssignmentAndPredicates) {
  Rational x(3);
  x += Rational(1, 3);
  x *= Rational(3, 10);
  EXPECT_EQ(x, Rational(1));
  EXPECT_TRUE(x.is_one());
  EXPECT_TRUE(x.is_integer());
  EXPECT_FALSE(Rational(1, 2).is_integer());
  EXPECT_DOUBLE_EQ(Rational(3, 4).to_double(), 0.75);
}

TEST(Rational, Streaming) {
  std::ostringstream os;
  os << Rational(-7, 2) << " " << Rational(5);
  EXPECT_EQ(os.str(), "-7/2 5");
}

// The FNV-1a definition is load-bearing across the whole repository:
// the golden corpus stores hit-array digests computed with it, and the
// certificate store addresses content by it. These values pin the
// parameters and the little-endian word feed — if any of them change,
// every committed golden file and on-disk certificate is invalidated.
TEST(DigestTest, Fnv1aConstantsArePinned) {
  EXPECT_EQ(support::kFnv1aOffsetBasis, 14695981039346656037ull);
  EXPECT_EQ(support::kFnv1aPrime, 1099511628211ull);
  // Empty input returns the offset basis untouched.
  EXPECT_EQ(support::fnv1a_bytes(nullptr, 0), support::kFnv1aOffsetBasis);
  EXPECT_EQ(support::fnv1a_words({}), support::kFnv1aOffsetBasis);
  // Reference vectors of the standard 64-bit FNV-1a.
  EXPECT_EQ(support::fnv1a_text(""), 14695981039346656037ull);
  EXPECT_EQ(support::fnv1a_text("a"), 12638187200555641996ull);
  EXPECT_EQ(support::fnv1a_text("foobar"), 9625390261332436968ull);
}

TEST(DigestTest, WordsFeedAsLittleEndianBytes) {
  // One u64 word digests exactly like its 8 LE bytes.
  const std::uint64_t word = 0x0807060504030201ull;
  const unsigned char bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint64_t> words = {word};
  EXPECT_EQ(support::fnv1a_words(words),
            support::fnv1a_bytes(bytes, sizeof(bytes)));
  // Chaining through `state` equals digesting the concatenation.
  const std::vector<std::uint64_t> two = {word, ~word};
  EXPECT_EQ(support::fnv1a_words(two),
            support::fnv1a_words({&two[1], 1},
                                 support::fnv1a_words({&two[0], 1})));
}

/// The byte-serial reference: `count` copies of `word`, little-endian,
/// through fnv1a_bytes from `state`.
std::uint64_t repeat_bytewise(std::uint64_t word, std::uint64_t count,
                              std::uint64_t state) {
  std::vector<unsigned char> bytes;
  for (std::uint64_t i = 0; i < count; ++i) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<unsigned char>(word >> (8 * b)));
    }
  }
  return support::fnv1a_bytes(bytes.data(), bytes.size(), state);
}

TEST(DigestTest, RepeatEqualsTheByteSerialFeed) {
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}, 1, 0xff,
                                      std::uint64_t{0x5a} << 24,
                                      std::uint64_t{0x80} << 56,
                                      0x0100000000000001ull};
  Xoshiro256 rng(26);
  for (int i = 0; i < 24; ++i) {
    std::uint64_t w = rng();
    if (i % 2 == 1) {
      // Sparse: zero bytes between nonzero ones fold into their
      // predecessor's multiplier.
      const std::uint64_t keep = rng();
      for (int b = 0; b < 8; ++b) {
        if (((keep >> b) & 1u) == 0) w &= ~(std::uint64_t{0xff} << (8 * b));
      }
    }
    words.push_back(w);
  }
  const std::uint64_t counts[] = {0, 1, 2, 3, 17, 1000};
  const std::uint64_t states[] = {support::kFnv1aOffsetBasis, 0, rng()};
  for (const std::uint64_t word : words) {
    for (const std::uint64_t count : counts) {
      for (const std::uint64_t state : states) {
        EXPECT_EQ(support::fnv1a_repeat(word, count, state),
                  repeat_bytewise(word, count, state))
            << "word " << word << " count " << count << " state " << state;
      }
    }
  }
  // Chained runs digest like their concatenation, and the default state
  // is the offset basis.
  const std::vector<std::uint64_t> runs = {7, 7, 7, 0, 0, words.back()};
  EXPECT_EQ(support::fnv1a_repeat(
                words.back(), 1,
                support::fnv1a_repeat(0, 2, support::fnv1a_repeat(7, 3))),
            support::fnv1a_words(runs));
}

TEST(PowTableTest, PowersAndDigits) {
  const PowTable p4(4, 6);
  EXPECT_EQ(p4(0), 1u);
  EXPECT_EQ(p4(3), 64u);
  EXPECT_EQ(p4(6), 4096u);
  // word = digits (3,0,2) base 4 -> 3*16 + 0*4 + 2 = 50.
  EXPECT_EQ(digit_at(p4, 50, 3, 0), 3u);
  EXPECT_EQ(digit_at(p4, 50, 3, 1), 0u);
  EXPECT_EQ(digit_at(p4, 50, 3, 2), 2u);
  EXPECT_EQ(with_digit(p4, 50, 3, 1, 3), 62u);
  EXPECT_EQ(from_digits(p4, to_digits(p4, 50, 3)), 50u);
}

TEST(PrngTest, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, BelowStaysInRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t x = rng.below(13);
    ASSERT_LT(x, 13u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 13u);  // all residues hit
}

TEST(PrngTest, RangeInclusive) {
  Xoshiro256 rng(99);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = rng.range(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string expected =
      "  name  value\n"
      "-------------\n"
      "     x      1\n"
      "longer     23\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(FormatTest, Counts) {
  EXPECT_EQ(pathrouting::support::fmt_count(0), "0");
  EXPECT_EQ(pathrouting::support::fmt_count(999), "999");
  EXPECT_EQ(pathrouting::support::fmt_count(1000), "1,000");
  EXPECT_EQ(pathrouting::support::fmt_count(1234567), "1,234,567");
}

TEST(FormatTest, FixedAndSci) {
  EXPECT_EQ(pathrouting::support::fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pathrouting::support::fmt_sci(1234567.0), "1.23e+06");
}

TEST(CliTest, DoubleFlagsParse) {
  const char* argv[] = {"prog", "--tolerance=2.5", "--floor", "-1e-3"};
  support::Cli cli(4, argv);
  EXPECT_EQ(cli.flag_double("tolerance", 1.0, ""), 2.5);
  EXPECT_EQ(cli.flag_double("floor", 0.0, ""), -1e-3);
  EXPECT_EQ(cli.flag_double("absent", 0.25, ""), 0.25);
  cli.finish("test");
}

// Bad command lines are usage errors: exit 2 with a diagnostic naming
// the offending argument, never an abort or a silently parsed prefix.
TEST(CliDeathTest, PositionalArgumentExitsTwo) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(support::Cli(2, argv), ::testing::ExitedWithCode(2),
              "prog: unexpected argument 'stray'");
}

TEST(CliDeathTest, MalformedIntExitsTwo) {
  for (const char* arg : {"--m=4x", "--m=abc", "--m="}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(
        {
          support::Cli cli(2, argv);
          (void)cli.flag_int("m", 0, "");
        },
        ::testing::ExitedWithCode(2), "--m expects an integer")
        << arg;
  }
}

TEST(CliDeathTest, MalformedDoubleExitsTwo) {
  for (const char* arg : {"--x=1.5s", "--x=abc", "--x=nan", "--x=inf"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(
        {
          support::Cli cli(2, argv);
          (void)cli.flag_double("x", 0.0, "");
        },
        ::testing::ExitedWithCode(2), "--x expects a number")
        << arg;
  }
}

TEST(CliDeathTest, SwitchWithAValueExitsTwo) {
  const char* argv[] = {"prog", "--verbose", "maybe"};
  EXPECT_EXIT(
      {
        support::Cli cli(3, argv);
        (void)cli.flag_bool("verbose", false, "");
      },
      ::testing::ExitedWithCode(2), "--verbose is a switch, got value 'maybe'");
}

}  // namespace
