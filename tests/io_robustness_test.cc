// Failure-injection tests for the file loaders: malformed, truncated, and adversarial
// inputs must produce Status errors, never crashes or silent misparses.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/prng.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "tests/testing/temp_files.h"

namespace cgraph {
namespace {

using test_support::ScopedFile;
using test_support::TempPath;

TEST(IoRobustnessTest, NegativeEndpointRejected) {
  ScopedFile f("neg.el", "0 1\n-3 4\n");
  EXPECT_FALSE(LoadEdgeListText(f.path()).ok());
}

TEST(IoRobustnessTest, FloatEndpointRejected) {
  ScopedFile f("float.el", "0.5 1\n");
  EXPECT_FALSE(LoadEdgeListText(f.path()).ok());
}

TEST(IoRobustnessTest, HugeVertexIdRejected) {
  ScopedFile f("huge.el", "0 99999999999999\n");
  auto result = LoadEdgeListText(f.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(IoRobustnessTest, GarbageWeightRejected) {
  ScopedFile f("badw.el", "0 1 heavy\n");
  EXPECT_FALSE(LoadEdgeListText(f.path()).ok());
}

TEST(IoRobustnessTest, NonFiniteWeightRejected) {
  // nan/inf never parse; 1e300 is a finite double but overflows the float Weight.
  for (const char* weight : {"nan", "inf", "1e300"}) {
    ScopedFile f("nonfinite.el", std::string("0 1 1\n0 2 ") + weight + "\n");
    auto result = LoadEdgeListText(f.path());
    ASSERT_FALSE(result.ok()) << weight;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << weight;
    EXPECT_NE(result.status().message().find(":2:"), std::string::npos) << weight;
  }
}

TEST(IoRobustnessTest, WeightOnlySomeLinesAccepted) {
  ScopedFile f("mixed.el", "0 1 2.5\n1 2\n");
  auto result = LoadEdgeListText(f.path());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
  EXPECT_FLOAT_EQ(result->edges()[1].weight, 1.0f);
}

TEST(IoRobustnessTest, ErrorMessageCarriesLineNumber) {
  ScopedFile f("lineno.el", "0 1\n1 2\nbroken line here extra\n");
  auto result = LoadEdgeListText(f.path());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":3:"), std::string::npos);
}

TEST(IoRobustnessTest, EmptyFileYieldsEmptyGraph) {
  ScopedFile f("empty.el", "");
  auto result = LoadEdgeListText(f.path());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 0u);
  EXPECT_EQ(result->num_vertices(), 0u);
}

TEST(IoRobustnessTest, BinaryTruncatedHeader) {
  ScopedFile f("trunc.bel", std::string("\x45\x47", 2), /*binary=*/true);
  EXPECT_FALSE(LoadEdgeListBinary(f.path()).ok());
}

TEST(IoRobustnessTest, BinaryTruncatedPayload) {
  // Valid header claiming more edges than the payload holds.
  const EdgeList graph = GenerateRing(16);
  const std::string path = TempPath("trunc_payload.bel");
  ASSERT_TRUE(SaveEdgeListBinary(graph, path).ok());
  // Chop the file.
  std::error_code ec;
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8, ec);
  ASSERT_FALSE(ec);
  EXPECT_FALSE(LoadEdgeListBinary(path).ok());
  std::remove(path.c_str());
}

TEST(IoRobustnessTest, RandomBytesNeverCrashTheBinaryLoader) {
  Xoshiro256 rng(2024);
  for (int round = 0; round < 20; ++round) {
    std::string bytes(16 + rng.NextBounded(256), '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.Next() & 0xFF);
    }
    ScopedFile f("fuzz.bel", bytes, /*binary=*/true);
    auto result = LoadEdgeListBinary(f.path());
    // Either a clean parse failure or (vanishingly unlikely) a valid tiny file; both are
    // acceptable — the property under test is "no crash, no CHECK".
    if (result.ok()) {
      EXPECT_LE(result->num_edges(), bytes.size());
    }
  }
}

TEST(IoRobustnessTest, TextRandomLinesNeverCrash) {
  Xoshiro256 rng(77);
  static constexpr char kAlphabet[] = "0123456789 .-abc#\t";
  for (int round = 0; round < 20; ++round) {
    std::string contents;
    for (int line = 0; line < 20; ++line) {
      const size_t len = rng.NextBounded(30);
      for (size_t i = 0; i < len; ++i) {
        contents += kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
      }
      contents += '\n';
    }
    ScopedFile f("fuzz.el", contents);
    (void)LoadEdgeListText(f.path());  // Must not crash; status is free to be an error.
  }
}

}  // namespace
}  // namespace cgraph
