// Death tests: programmer errors must fail fast with a diagnostic, not corrupt state.

#include <gtest/gtest.h>

#include <memory>

#include "src/algorithms/wcc.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"

namespace cgraph {
namespace {

TEST(CheckDeathTest, CheckAbortsWithExpression) {
  EXPECT_DEATH(CGRAPH_CHECK(1 == 2), "CHECK failed");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH(CGRAPH_CHECK_EQ(1, 2), "CHECK failed");
  EXPECT_DEATH(CGRAPH_CHECK_LT(3, 2), "CHECK failed");
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_DEATH((void)result.value(), "CHECK failed");
}

TEST(EngineDeathTest, AddJobAfterRunAborts) {
  const EdgeList edges = GenerateRing(8);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EngineOptions options;
  options.num_workers = 1;
  LtpEngine engine(&pg, options);
  engine.AddJob(std::make_unique<WccProgram>());
  engine.Run();
  EXPECT_DEATH(engine.AddJob(std::make_unique<WccProgram>()), "CHECK failed");
}

TEST(EngineDeathTest, SecondRunAborts) {
  const EdgeList edges = GenerateRing(8);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EngineOptions options;
  options.num_workers = 1;
  LtpEngine engine(&pg, options);
  engine.AddJob(std::make_unique<WccProgram>());
  engine.Run();
  EXPECT_DEATH(engine.Run(), "CHECK failed");
}

TEST(EngineDeathTest, TooManyJobsAborts) {
  const EdgeList edges = GenerateRing(8);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EngineOptions options;
  options.num_workers = 1;
  options.max_jobs = 1;
  LtpEngine engine(&pg, options);
  engine.AddJob(std::make_unique<WccProgram>());
  EXPECT_DEATH(engine.AddJob(std::make_unique<WccProgram>()), "CHECK failed");
}

TEST(ServiceDeathTest, RetryScheduleThatCouldWrapAborts) {
  const EdgeList edges = GenerateRing(8);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EngineOptions options;
  options.num_workers = 1;
  LtpEngine engine(&pg, options);
  ServiceOptions sopts;
  sopts.retry_limit = kMaxRetryLimit;
  sopts.retry_backoff = kMaxRetryBackoff;
  ServiceDriver accepted(&engine, sopts);  // The largest schedule that cannot wrap.
  sopts.retry_limit = kMaxRetryLimit + 1;
  EXPECT_DEATH(ServiceDriver(&engine, sopts), "CHECK failed");
  sopts.retry_limit = 1;
  sopts.retry_backoff = kMaxRetryBackoff + 1;
  EXPECT_DEATH(ServiceDriver(&engine, sopts), "CHECK failed");
}

}  // namespace
}  // namespace cgraph
