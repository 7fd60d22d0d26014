// Assertion, configuration, and golden-file helpers shared by the engine, baseline,
// partitioner, and integration suites.

#ifndef TESTS_TESTING_TEST_HELPERS_H_
#define TESTS_TESTING_TEST_HELPERS_H_

#include <string>
#include <vector>

#include "src/core/engine_options.h"

namespace cgraph {
namespace test_support {

// EngineOptions sized so that test-graph working sets contend for cache:
// `cache_kib` KiB of cache in 4 KiB segments over 64 MiB of memory, 4 workers.
EngineOptions TestEngineOptions(uint64_t cache_kib = 64);

// Element-wise parity check used by every engine-vs-reference suite.
// Infinities must match exactly (unreached vertices); finite values must agree
// within `tolerance`. `what` prefixes every failure message.
void ExpectNearValues(const std::vector<double>& actual,
                      const std::vector<double>& expected, double tolerance,
                      const std::string& what);

// Wall time is the one machine-dependent CSV column; drops it (and the trailing comma)
// from every row of a RunReportToCsv document so that comparisons cover only the
// modeled, deterministic columns 1-13.
std::string StripWallColumn(const std::string& csv);

// The whole file at `path`; a missing file fails the calling test and returns "".
std::string ReadFileOrDie(const std::string& path);

}  // namespace test_support
}  // namespace cgraph

#endif  // TESTS_TESTING_TEST_HELPERS_H_
