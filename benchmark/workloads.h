// The benchmark's workloads and the round runners that drive them through the engine's
// public API.
//
// Every arrival is clocked in scheduling steps, so a workload is an open loop in step
// time: a job is "due" once the engine has executed its arrival step, whether or not a
// slot is free for it. A round builds a fresh engine over the workload's one built
// graph, runs every job (or replays the whole service trace) to completion, and reads
// the wall clock only at round start and end and at arrival and completion events.

#ifndef BENCHMARK_WORKLOADS_H_
#define BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/spans.h"
#include "src/core/engine_options.h"
#include "src/graph/edge_list.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"

namespace cgraph_bench {

// One engine job of a job workload.
struct JobSpec {
  std::string program;
  cgraph::VertexId source = 0;
  uint64_t arrival_step = 0;  // 0 = submitted at round start with Submit().
};

struct Workload {
  std::string name;
  cgraph::RmatOptions rmat;
  cgraph::PartitionOptions partition;
  cgraph::EngineOptions engine;
  // Job workloads: the jobs of one round. Empty for the service workload.
  std::vector<JobSpec> jobs;
  // Service workload: the request trace one round replays.
  bool service = false;
  std::vector<cgraph::ServiceRequest> trace;
  cgraph::ServiceOptions service_options;
};

// Workload `name` (batch_mix, staggered_admission, service_bursty or async_monotonic)
// without its jobs or trace; false for an unknown name. `seed` drives the R-MAT graph
// and the service trace.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Fills in the jobs or the trace of `w`, which root at vertices picked from `edges`.
void AddJobs(const cgraph::EdgeList& edges, Workload* w);

// Converged values of each (program, source) of a workload from the single-threaded
// Reference* functions, computed once each.
class References {
 public:
  // Builds the whole-graph CSR and every reference `w` needs.
  References(const cgraph::EdgeList& edges, const Workload& w);

  // Whether `values`/`aux` of a completed job match the reference, with the tolerances
  // of the repo's reference-equivalence tests.
  bool Matches(const std::string& program, cgraph::VertexId source,
               const std::vector<double>& values, const std::vector<double>& aux) const;

 private:
  using Key = std::pair<std::string, cgraph::VertexId>;
  static Key KeyOf(const std::string& program, cgraph::VertexId source);

  std::map<Key, std::vector<double>> expected_;
};

// Values that must be identical across rounds, worker counts and traced/untraced runs.
struct Exact {
  uint64_t steps = 0;
  uint64_t compute_units = 0;
  uint64_t wait_steps = 0;
  double modeled_makespan = 0.0;
  double latency_p50_steps = 0.0;  // Service workload only.
  double latency_p99_steps = 0.0;  // Service workload only.
  uint64_t values_digest = 0;      // Over every completed job's values, in job-id order.

  bool operator==(const Exact&) const = default;
};

struct RoundResult {
  double wall_s = 0.0;
  std::vector<double> latency_s;  // Due to done, one per completed request.
  uint64_t attempted = 0;         // Jobs (job workloads) or requests (service).
  uint64_t failed = 0;            // Failed, shed, cancelled or wrong-result.
  Exact exact;
  cgraph::RunReport report;
  cgraph::ServiceReport service;  // Service workload only (outcomes dropped).
  int64_t span = kNone;           // The round's span on a traced round.
};

// Runs one round of `w` with `workers` pool threads, checking every completed job
// against `refs`. `tracer` is null on untraced rounds.
RoundResult RunRound(const Workload& w, const cgraph::PartitionedGraph& graph,
                     uint32_t workers, const References& refs, Tracer* tracer);

}  // namespace cgraph_bench

#endif  // BENCHMARK_WORKLOADS_H_
