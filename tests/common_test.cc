// Unit tests for src/common: status/result, string utilities, flags, bitset, PRNG.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/flags.h"
#include "src/common/prng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace cgraph {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "out_of_range");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "failed_precondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(StringsTest, SplitNonEmptyDropsEmptyPieces) {
  const auto pieces = SplitNonEmpty("  a\tb  c ", " \t");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringsTest, SplitEmptyInput) { EXPECT_TRUE(SplitNonEmpty("", " ").empty()); }

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, ParseUint64Valid) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(StringsTest, ParseUint64Invalid) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // Overflow.
}

TEST(StringsTest, ParseDouble) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", &d));
  EXPECT_DOUBLE_EQ(d, -1000.0);
  EXPECT_FALSE(ParseDouble("1.2.3", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(StringsTest, ParseDoubleRejectsNonFinite) {
  double d = 7.0;
  EXPECT_FALSE(ParseDouble("nan", &d));
  EXPECT_FALSE(ParseDouble("inf", &d));
  EXPECT_FALSE(ParseDouble("-inf", &d));
  EXPECT_FALSE(ParseDouble("1e400", &d));  // Overflows double.
  EXPECT_DOUBLE_EQ(d, 7.0);  // Rejected values leave *out untouched.
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(3ull << 20), "3.00 MiB");
}

// Parses `args` (without the program name) with `flags`.
Status ParseFlags(FlagSet& flags, std::vector<std::string> args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, IntegerBoundsAreInclusive) {
  uint32_t workers = 4;
  FlagSet flags("test");
  flags.Number("workers", "N", "worker threads", &workers, 1, 65535);
  EXPECT_TRUE(ParseFlags(flags, {"--workers=1"}).ok());
  EXPECT_EQ(workers, 1u);
  EXPECT_TRUE(ParseFlags(flags, {"--workers=65535"}).ok());
  EXPECT_EQ(workers, 65535u);
  for (const char* bad : {"--workers=0", "--workers=65536", "--workers=abc", "--workers=",
                          "--workers=-1", "--workers=18446744073709551616"}) {
    const Status status = ParseFlags(flags, {bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("--workers expects an integer in [1, 65535]"),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(workers, 65535u);  // Rejected values leave the field untouched.
  EXPECT_TRUE(flags.Seen("workers"));
}

TEST(FlagSetTest, UnboundedIntegerAcceptsTypeMaximum) {
  uint64_t seed = 42;
  FlagSet flags("test");
  flags.Number("seed", "N", "PRNG seed", &seed);
  EXPECT_TRUE(ParseFlags(flags, {"--seed=18446744073709551615"}).ok());
  EXPECT_EQ(seed, UINT64_MAX);
  const Status status = ParseFlags(flags, {"--seed=18446744073709551616"});
  EXPECT_NE(status.message().find("expects an integer >= 0"), std::string::npos);
}

TEST(FlagSetTest, SignedIntegers) {
  int shift = -2;
  FlagSet flags("test");
  flags.Number("scale-shift", "N", "dataset scaling", &shift, -10, 9);
  EXPECT_TRUE(ParseFlags(flags, {"--scale-shift=-10"}).ok());
  EXPECT_EQ(shift, -10);
  EXPECT_TRUE(ParseFlags(flags, {"--scale-shift=9"}).ok());
  EXPECT_EQ(shift, 9);
  for (const char* bad : {"--scale-shift=-11", "--scale-shift=10", "--scale-shift=--1",
                          "--scale-shift=-", "--scale-shift=-9223372036854775809"}) {
    EXPECT_FALSE(ParseFlags(flags, {bad}).ok()) << bad;
  }
  EXPECT_EQ(shift, 9);
}

TEST(FlagSetTest, DoublesRejectNonFiniteAndHonorOpenLowerBound) {
  double theta = 1.0;
  double aging = 0.5;
  FlagSet flags("test");
  flags.Number("theta", "X", "scale", &theta, 0.0, 1.0);
  flags.Number("aging", "X", "weight", &aging, 0.0, std::numeric_limits<double>::max(),
               /*lo_open=*/true);
  EXPECT_TRUE(ParseFlags(flags, {"--theta=0", "--aging=1e-9"}).ok());
  EXPECT_EQ(theta, 0.0);
  EXPECT_EQ(aging, 1e-9);
  for (const char* bad : {"--theta=nan", "--theta=inf", "--theta=1.5", "--theta=-0.1"}) {
    const Status status = ParseFlags(flags, {bad});
    EXPECT_NE(status.message().find("--theta expects a number in [0, 1]"),
              std::string::npos)
        << status.message();
  }
  for (const char* bad : {"--aging=0", "--aging=-1", "--aging=inf", "--aging=nan"}) {
    const Status status = ParseFlags(flags, {bad});
    EXPECT_NE(status.message().find("--aging expects a number > 0"),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(aging, 1e-9);
}

enum class Color { kRed, kBlue };
const char* ColorName(Color c) { return c == Color::kRed ? "red" : "blue"; }

TEST(FlagSetTest, EnumAcceptsOnlyListedNames) {
  Color color = Color::kRed;
  FlagSet flags("test");
  flags.Enum("color", "paint", &color, {Color::kRed, Color::kBlue}, ColorName);
  EXPECT_TRUE(ParseFlags(flags, {"--color=blue"}).ok());
  EXPECT_EQ(color, Color::kBlue);
  const Status status = ParseFlags(flags, {"--color=green"});
  EXPECT_EQ(status.message(), "--color expects one of red, blue, got 'green'");
  EXPECT_EQ(color, Color::kBlue);
}

TEST(FlagSetTest, ListsNeedOneElement) {
  std::vector<std::string> jobs = {"a"};
  FlagSet flags("test");
  flags.List<std::string>(
      "jobs", "a,b", "programs", &jobs,
      [](std::string_view piece, std::string* job) {
        *job = piece;
        return piece == "bad" ? Status::InvalidArgument("bad job") : Status::Ok();
      },
      [](const std::string& job) { return job; });
  EXPECT_TRUE(ParseFlags(flags, {"--jobs=x,,y"}).ok());
  EXPECT_EQ(jobs, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(ParseFlags(flags, {"--jobs=,"}).message(),
            "--jobs expects a non-empty list: --jobs=a,b");
  EXPECT_EQ(ParseFlags(flags, {"--jobs=z,bad"}).message(), "bad job");
  EXPECT_EQ(jobs, (std::vector<std::string>{"x", "y"}));
}

TEST(FlagSetTest, SwitchesTakeNoValueAndValuesAreRequired) {
  bool serve = false;
  std::string path;
  FlagSet flags("test");
  flags.Switch("serve", "daemon mode", &serve);
  flags.String("out", "PATH", "output", &path);
  EXPECT_EQ(ParseFlags(flags, {"--serve=1"}).message(), "--serve takes no value");
  EXPECT_FALSE(serve);
  EXPECT_EQ(ParseFlags(flags, {"--out"}).message(), "--out expects a value: --out=PATH");
  EXPECT_TRUE(ParseFlags(flags, {"--serve", "--out=a=b"}).ok());
  EXPECT_TRUE(serve);
  EXPECT_EQ(path, "a=b");
}

TEST(FlagSetTest, UnknownArgumentsAreRejected) {
  bool serve = false;
  FlagSet flags("test");
  flags.Switch("serve", "daemon mode", &serve);
  for (const char* bad : {"--csv=x", "serve", "-s", "--", "--serv"}) {
    EXPECT_EQ(ParseFlags(flags, {bad}).message(),
              "unknown argument '" + std::string(bad) + "' (try --help)");
  }
  EXPECT_FALSE(flags.Seen("serve"));
}

TEST(FlagSetTest, SectionRequirementsNameTheFirstSeenFlag) {
  uint64_t gap = 4;
  uint64_t seed = 42;
  FlagSet flags("test");
  flags.Number("seed", "N", "seed", &seed);
  flags.Section("daemon", "--serve");
  flags.Number("gap", "N", "gap", &gap);
  ASSERT_TRUE(ParseFlags(flags, {"--seed=1"}).ok());
  EXPECT_TRUE(flags.CheckRequirement("--serve", false).ok());
  ASSERT_TRUE(ParseFlags(flags, {"--gap=4"}).ok());  // The default value still counts.
  EXPECT_EQ(flags.CheckRequirement("--serve", false).message(), "--gap requires --serve");
  EXPECT_TRUE(flags.CheckRequirement("--serve", true).ok());
}

TEST(FlagSetTest, HelpListsEveryRowWithItsCurrentDefault) {
  uint32_t workers = 4;
  bool serve = false;
  Color color = Color::kRed;
  std::string path;
  FlagSet flags("usage: test");
  flags.Number("workers", "N", "worker threads", &workers, 1, 65535);
  flags.Enum("color", "paint", &color, {Color::kRed, Color::kBlue}, ColorName);
  flags.String("out", "PATH", "output", &path);
  flags.Section("daemon", "--cgraph");
  flags.Switch("serve", "daemon mode", &serve);
  ASSERT_TRUE(ParseFlags(flags, {"--help"}).ok());
  EXPECT_TRUE(flags.help_requested());
  std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: test\n", 0), 0u);
  for (const char* row : {"--workers=N", "\ndaemon:\n", "--serve", "--color=NAME",
                          "--out=PATH", "-h, --help", "(default 4)", "(default red)",
                          "(default off; requires --cgraph)", "(default none)"}) {
    EXPECT_NE(usage.find(row), std::string::npos) << row << " missing from\n" << usage;
  }
  workers = 12;
  color = Color::kBlue;
  path = "x.json";
  usage = flags.Usage();
  for (const char* row : {"(default 12)", "(default blue)", "(default x.json)"}) {
    EXPECT_NE(usage.find(row), std::string::npos) << row << " missing from\n" << usage;
  }
}

TEST(BitsetTest, SetTestClear) {
  DynamicBitset b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, SetAllRespectsSize) {
  DynamicBitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  b.ClearAll();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_FALSE(b.Any());
}

TEST(BitsetTest, UnionAndIntersect) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_EQ(a.IntersectCount(b), 1u);
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitsetTest, AssignToggles) {
  DynamicBitset b(8);
  b.Assign(3, true);
  EXPECT_TRUE(b.Test(3));
  b.Assign(3, false);
  EXPECT_FALSE(b.Test(3));
}

// Reference: the bits a naive Test(i) loop finds, in ascending order.
std::vector<size_t> NaiveSetBits(const DynamicBitset& b) {
  std::vector<size_t> bits;
  for (size_t i = 0; i < b.size(); ++i) {
    if (b.Test(i)) {
      bits.push_back(i);
    }
  }
  return bits;
}

std::vector<size_t> ScanSetBits(const DynamicBitset& b) {
  std::vector<size_t> bits;
  b.ForEachSetBit([&bits](size_t i) { bits.push_back(i); });
  return bits;
}

std::vector<size_t> NextSetBits(const DynamicBitset& b) {
  std::vector<size_t> bits;
  for (size_t i = b.NextSetBit(0); i != DynamicBitset::kNpos; i = b.NextSetBit(i + 1)) {
    bits.push_back(i);
  }
  return bits;
}

TEST(BitsetScanTest, WordScansMatchNaiveOnRandomPatterns) {
  // Sizes straddle word boundaries: empty tail, full tail, one-word, sub-word.
  for (const size_t size : {1ul, 63ul, 64ul, 65ul, 127ul, 128ul, 300ul, 1024ul, 1031ul}) {
    SplitMix64 rng(size * 7919);
    DynamicBitset b(size);
    for (size_t i = 0; i < size; ++i) {
      if (rng.Next() % 3 == 0) {
        b.Set(i);
      }
    }
    const std::vector<size_t> expected = NaiveSetBits(b);
    EXPECT_EQ(ScanSetBits(b), expected) << "ForEachSetBit size=" << size;
    EXPECT_EQ(NextSetBits(b), expected) << "NextSetBit size=" << size;
    EXPECT_EQ(b.Count(), expected.size()) << "size=" << size;
  }
}

TEST(BitsetScanTest, EmptyAndFullPatterns) {
  for (const size_t size : {1ul, 64ul, 70ul, 192ul}) {
    DynamicBitset b(size);
    EXPECT_TRUE(ScanSetBits(b).empty()) << size;
    EXPECT_EQ(b.NextSetBit(0), DynamicBitset::kNpos) << size;
    // SetAll must trim the tail word: the scan must never visit a bit >= size.
    b.SetAll();
    const std::vector<size_t> expected = NaiveSetBits(b);
    EXPECT_EQ(expected.size(), size);
    EXPECT_EQ(ScanSetBits(b), expected) << size;
    EXPECT_EQ(NextSetBits(b), expected) << size;
  }
}

TEST(BitsetScanTest, TailWordBitIsFound) {
  DynamicBitset b(130);
  b.Set(129);  // Last representable bit lives in a 2-bit tail word.
  EXPECT_EQ(b.NextSetBit(0), 129u);
  EXPECT_EQ(b.NextSetBit(129), 129u);
  EXPECT_EQ(b.NextSetBit(130), DynamicBitset::kNpos);
  EXPECT_EQ(ScanSetBits(b), (std::vector<size_t>{129}));
}

TEST(BitsetScanTest, NextSetBitSkipsBelowFrom) {
  DynamicBitset b(256);
  b.Set(3);
  b.Set(64);
  b.Set(200);
  EXPECT_EQ(b.NextSetBit(0), 3u);
  EXPECT_EQ(b.NextSetBit(4), 64u);
  EXPECT_EQ(b.NextSetBit(64), 64u);
  EXPECT_EQ(b.NextSetBit(65), 200u);
  EXPECT_EQ(b.NextSetBit(201), DynamicBitset::kNpos);
}

TEST(BitsetScanTest, WordRangeRestrictsScan) {
  DynamicBitset b(256);
  for (size_t i = 0; i < 256; i += 5) {
    b.Set(i);
  }
  // Word range [1, 3) covers bit positions [64, 192).
  std::vector<size_t> got;
  b.ForEachSetBitInWords(1, 3, [&got](size_t i) { got.push_back(i); });
  std::vector<size_t> expected;
  for (size_t i = 0; i < 256; i += 5) {
    if (i >= 64 && i < 192) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(got, expected);

  // The words() view agrees with Test() word by word.
  const auto words = b.words();
  ASSERT_EQ(words.size(), b.num_words());
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ((words[i >> 6] >> (i & 63)) & 1u, b.Test(i) ? 1u : 0u) << i;
  }
}

TEST(PrngTest, SplitMixDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(PrngTest, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 a(1);
  Xoshiro256 b(1);
  Xoshiro256 c(2);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const uint64_t av = a.Next();
    EXPECT_EQ(av, b.Next());
    if (av != c.Next()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(PrngTest, NextBoundedStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, NextBoundedCoversValues) {
  Xoshiro256 rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextBounded(10));
  }
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace cgraph
