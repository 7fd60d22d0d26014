#include "tests/testing/test_helpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

namespace cgraph {
namespace test_support {

EngineOptions TestEngineOptions(uint64_t cache_kib) {
  EngineOptions options;
  options.num_workers = 4;
  options.hierarchy.cache_capacity_bytes = cache_kib << 10;
  options.hierarchy.cache_segment_bytes = 4ull << 10;
  options.hierarchy.memory_capacity_bytes = 64ull << 20;
  return options;
}

void ExpectNearValues(const std::vector<double>& actual,
                      const std::vector<double>& expected, double tolerance,
                      const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t v = 0; v < actual.size(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(actual[v])) << what << " vertex " << v;
    } else {
      EXPECT_NEAR(actual[v], expected[v], tolerance) << what << " vertex " << v;
    }
  }
}

std::string StripWallColumn(const std::string& csv) {
  std::ostringstream out;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    const size_t comma = line.rfind(',');
    out << line.substr(0, comma) << '\n';
  }
  return out.str();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

}  // namespace test_support
}  // namespace cgraph
