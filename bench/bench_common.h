// Shared harness for the paper-reproduction benchmarks.
//
// paper_figures regenerates the paper's tables and figures as stdout rows; the ablation
// binaries each answer one design question. The harness fixes the comparison protocol:
// the five scaled stand-in datasets, a simulated hierarchy whose capacities scale with
// the datasets (so the in-memory / out-of-core regimes of the paper are preserved), and
// the four-job benchmark mix (PageRank, SSSP, SCC, BFS, submitted simultaneously,
// section 4).
//
// Every binary accepts the flags of BenchEnv::FromArgs; --help lists them.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/flags.h"
#include "src/common/strings.h"
#include "src/core/ltp_engine.h"
#include "src/graph/datasets.h"
#include "src/metrics/table_printer.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph::bench {

struct BenchEnv {
  int scale_shift = -2;
  uint32_t workers = 4;
  uint32_t jobs = 4;
  size_t max_datasets = 5;

  // Parses the bench flags; exits 2 on a usage error and 0 after --help.
  static BenchEnv FromArgs(int argc, char** argv) {
    BenchEnv env;
    FlagSet flags(std::string(argv[0]) + " — a CGraph paper-figure reproduction\n");
    // Every dataset's R-MAT scale plus the shift must stay in [4, 26] (PaperDatasets).
    flags.Number("scale-shift", "N",
                 "uniform dataset scaling; -2 is sixteen times smaller than the reference "
                 "scales and keeps the full suite under minutes",
                 &env.scale_shift, -10, 9);
    flags.Number("workers", "N", "worker threads", &env.workers, 1, 65535);
    flags.Number("jobs", "N", "job-mix size where applicable", &env.jobs, 1, 64);
    flags.Number("datasets", "N", "limit to the first N datasets", &env.max_datasets, 1, 5);
    const Status status = flags.Parse(argc, argv);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      std::exit(2);
    }
    if (flags.help_requested()) {
      std::fputs(flags.Usage().c_str(), stdout);
      std::exit(0);
    }
    return env;
  }

  // Hierarchy capacities scale with 2^shift so cache:data and memory:data ratios stay in
  // the paper's regime: the three smaller datasets fit the memory tier with the 4-job
  // mix, uk-union and hyperlink14 do not (Fig. 13's crossover).
  HierarchyOptions Hierarchy() const {
    const double scale = std::pow(2.0, scale_shift);
    HierarchyOptions h;
    h.cache_capacity_bytes = std::max<uint64_t>(64ull << 10, static_cast<uint64_t>((4ull << 20) * scale));
    h.cache_segment_bytes = std::max<uint64_t>(2ull << 10, h.cache_capacity_bytes / 128);
    // 36 MiB at reference scale: the three smaller datasets (structure + 4 jobs' states)
    // fit, uk-union is marginal, hyperlink14 exceeds it ~2.7x — the paper's regime, where
    // uk-union (68 GB) and hyperlink14 (480 GB) exceed the testbed's 64 GB.
    h.memory_capacity_bytes =
        std::max<uint64_t>(1ull << 20, static_cast<uint64_t>((36ull << 20) * scale));
    return h;
  }

  EngineOptions Engine() const {
    EngineOptions options;
    options.num_workers = workers;
    options.hierarchy = Hierarchy();
    return options;
  }

  CostModel Cost() const { return CostModel{}; }
};

struct PreparedDataset {
  DatasetSpec spec;
  EdgeList edges;
  PartitionedGraph graph;       // Core-subgraph partitioning (CGraph layout).
  PartitionedGraph graph_flat;  // Plain vertex-cut (baselines / CGraph-without).
  VertexId source = 0;
};

inline uint32_t PartitionCountFor(const EdgeList& edges, const BenchEnv& env) {
  // The partitioned structure stores both CSR directions plus replicated vertex records:
  // about 2.2x the flat edge-list estimate.
  const uint64_t structure =
      static_cast<uint64_t>(2.2 * static_cast<double>(EstimateStructureBytes(edges)));
  // Private state per structure byte: ~32 bytes per (replicated) vertex per job over
  // ~16 bytes per edge.
  const double state_ratio =
      edges.num_edges() == 0
          ? 0.25
          : std::min(1.0, 2.5 * static_cast<double>(edges.num_vertices()) /
                              static_cast<double>(edges.num_edges()));
  const HierarchyOptions h = env.Hierarchy();
  return SuitablePartitionCount(structure, h.cache_capacity_bytes, env.jobs, state_ratio,
                                h.cache_capacity_bytes / 8);
}

inline PreparedDataset Prepare(const DatasetSpec& spec, const BenchEnv& env) {
  PreparedDataset ds;
  ds.spec = spec;
  ds.edges = GenerateDataset(spec);
  const uint32_t parts = PartitionCountFor(ds.edges, env);
  PartitionOptions core_opts;
  core_opts.num_partitions = parts;
  core_opts.core_subgraph = true;
  ds.graph = PartitionedGraphBuilder::Build(ds.edges, core_opts);
  PartitionOptions flat_opts;
  flat_opts.num_partitions = parts;
  flat_opts.core_subgraph = false;
  ds.graph_flat = PartitionedGraphBuilder::Build(ds.edges, flat_opts);
  ds.source = PickSourceVertex(ds.edges);
  return ds;
}

inline std::vector<DatasetSpec> BenchDatasets(const BenchEnv& env) {
  auto specs = PaperDatasets(env.scale_shift);
  if (specs.size() > env.max_datasets) {
    specs.resize(env.max_datasets);
  }
  return specs;
}

template <typename ExecutorT>
void AddMixJobs(ExecutorT& executor, const PreparedDataset& ds, size_t count) {
  for (const std::string& name : BenchmarkJobNames(count)) {
    executor.AddJob(MakeProgram(name, ds.source));
  }
}

// Runs the CGraph LTP engine on the dataset with the 4-job mix.
inline RunReport RunCgraph(const PreparedDataset& ds, const BenchEnv& env, size_t jobs,
                           bool use_scheduler = true) {
  EngineOptions options = env.Engine();
  options.use_scheduler = use_scheduler;
  const PartitionedGraph& graph = use_scheduler ? ds.graph : ds.graph_flat;
  LtpEngine engine(&graph, options);
  AddMixJobs(engine, ds, jobs);
  RunReport report = engine.Run();
  report.executor_name = use_scheduler ? "CGraph" : "CGraph-without";
  return report;
}

inline std::string Pct(double fraction) { return FormatDouble(fraction * 100.0, 1); }

inline std::string Norm(double value, double base) {
  return base <= 0.0 ? std::string("-") : FormatDouble(value / base, 3);
}

}  // namespace cgraph::bench

#endif  // BENCH_BENCH_COMMON_H_
