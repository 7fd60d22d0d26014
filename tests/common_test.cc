// Unit tests for src/common: status/result, string utilities, bitset, PRNG.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/common/bitset.h"
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
