// cgraph_cli — run concurrent iterative graph jobs from the command line.
//
// Usage:
//   cgraph_cli [--graph=FILE | --rmat=SCALE,EDGE_FACTOR[,SEED]]
//              [--jobs=NAME[,NAME...]] [--system=cgraph|cgraph-without|sequential|
//               seraph|seraph-vt|nxgraph|clip]
//              [--partitions=N] [--partitioner=even_edge|hash_source|greedy|degree]
//              [--workers=N] [--source=V] [--report-json=PATH]
//              [--theta-scale=X] [--no-straggler] [--chunk-grain=N]
//              [--sweep-threshold=N] [--arrivals=NAME@STEP[,NAME@STEP...]]
//              [--admission=fifo|overlap] [--aging=X] [--max-jobs=N]
//              [--execution=bsp|async] [--staleness=N] [--defer-divisor=N]
//              [--trigger-threshold=N]
//              [--serve] [--trace-jobs=N] [--trace-pattern=uniform|bursty|diurnal]
//              [--trace-seed=N] [--trace-gap=N] [--trace-burst=N] [--trace-sources=N]
//              [--trace-file=PATH] [--trace-out=PATH] [--queue-bound=N]
//              [--deadline-steps=N] [--no-coalesce]
//              [--inject-fault=KIND@STEP[:JOB],...] [--fault-seed=N]
//              [--checkpoint-every=N] [--job-step-budget=N]
//              [--retry-limit=N] [--retry-backoff=N] [--values-out=PATH]
//
// Job names: pagerank, sssp, scc, bfs, wcc, kcore, ppr, khop.
// Default: --rmat=12,8 --jobs=pagerank,sssp,scc,bfs --system=cgraph.
// --arrivals submits extra jobs online, each after STEP partition-scheduling steps
// (cgraph systems only — the baselines have no runtime-admission path).
// --admission selects the job-level admission policy consulted whenever a concurrency
// slot (bounded by --max-jobs) frees up; see docs/scheduling.md.
// --execution selects the iteration model (cgraph systems only): bsp (default,
// deterministic oracle) or async (bounded-staleness execution for monotonic programs —
// every requested job must be monotonic); see docs/execution_modes.md.
// --serve switches to graph-service daemon mode (cgraph systems only): generates or
// replays an arrival trace of --trace-jobs requests over the --jobs program mix and
// drives it through the ServiceDriver with query fan-in, a bounded queue, and optional
// queue-wait deadlines; see docs/service.md.
// --inject-fault arms the deterministic fault-injection harness, --checkpoint-every
// enables iteration-boundary checkpoints, and --retry-limit turns on the daemon's
// retry-with-backoff policy; see docs/robustness.md.
//
// Prints a human-readable per-job report table; --report-json additionally writes the
// run's one machine-readable record (see WriteReportIfRequested below).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/core/admission_policy.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/metrics/csv_writer.h"
#include "src/metrics/json_writer.h"
#include "src/metrics/table_printer.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"

namespace {

using namespace cgraph;

struct ArrivalSpec {
  std::string job;
  uint64_t step = 0;
};

struct CliOptions {
  std::string graph_path;
  uint32_t rmat_scale = 12;
  uint32_t rmat_edge_factor = 8;
  uint64_t rmat_seed = 1;
  std::vector<std::string> jobs = {"pagerank", "sssp", "scc", "bfs"};
  std::vector<ArrivalSpec> arrivals;
  std::string system = "cgraph";
  uint32_t partitions = 16;
  PartitionerKind partitioner = PartitionerKind::kEvenEdge;
  uint32_t workers = 4;
  VertexId source = kInvalidVertex;  // Default: highest out-degree vertex.
  double theta_scale = 1.0;
  bool straggler_split = true;
  uint32_t chunk_grain = 0;       // 0 = engine default.
  int64_t sweep_threshold = -1;   // < 0 = engine default.
  AdmissionPolicyKind admission = AdmissionPolicyKind::kFifo;
  ExecutionMode execution = ExecutionMode::kBsp;
  int64_t staleness = -1;         // < 0 = engine default.
  int64_t defer_divisor = -1;     // < 0 = engine default.
  double aging = -1.0;            // < 0 = engine default.
  uint32_t max_jobs = 0;          // 0 = engine default.
  int64_t trigger_threshold = -1; // < 0 = engine default.
  std::string report_json;
  bool help = false;
  // Service-daemon mode (--serve): replay an arrival trace through the ServiceDriver
  // instead of a one-shot batch; see docs/service.md.
  bool serve = false;
  uint64_t trace_jobs = 1000;
  ArrivalPattern trace_pattern = ArrivalPattern::kUniform;
  uint64_t trace_seed = 42;
  uint64_t trace_gap = 4;
  uint64_t trace_burst = 16;
  uint64_t trace_sources = 8;
  std::string trace_file;  // Replay this trace file instead of generating.
  std::string trace_out;   // Save the generated trace here.
  uint64_t queue_bound = 64;     // 0 = unbounded.
  uint64_t deadline_steps = 0;   // 0 = no deadlines.
  bool coalesce = true;
  // Robustness knobs (docs/robustness.md).
  std::vector<FaultSpec> fault_specs;  // --inject-fault, cgraph systems only.
  uint64_t fault_seed = 42;
  uint64_t checkpoint_every = 0;   // 0 = checkpointing off.
  uint64_t job_step_budget = 0;    // 0 = no execution budgets.
  uint64_t retry_limit = 0;        // --serve only; 0 = no retries.
  uint64_t retry_backoff = 8;      // --serve only; doubled per attempt.
  bool retry_backoff_set = false;  // For the "--retry-backoff without --serve" check.
  std::string values_out;          // Final converged values of completed jobs.
};

constexpr const char* kKnownSystems[] = {"cgraph", "cgraph-without", "sequential",
                                         "seraph", "seraph-vt",      "nxgraph",
                                         "clip"};

bool IsKnownSystem(const std::string& name) {
  for (const char* known : kKnownSystems) {
    if (name == known) {
      return true;
    }
  }
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    auto match = [&arg, &value](std::string_view prefix) {
      if (!arg.starts_with(prefix)) {
        return false;
      }
      value = arg.data() + prefix.size();
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (match("--graph=")) {
      options->graph_path = value;
    } else if (match("--rmat=")) {
      const auto fields = SplitNonEmpty(value, ",");
      if (fields.empty() || fields.size() > 3) {
        std::fprintf(stderr, "error: --rmat expects SCALE,EDGE_FACTOR[,SEED]\n");
        return false;
      }
      uint64_t scale = 0;
      uint64_t ef = 8;
      uint64_t seed = 1;
      if (!ParseUint64(fields[0], &scale) ||
          (fields.size() > 1 && !ParseUint64(fields[1], &ef)) ||
          (fields.size() > 2 && !ParseUint64(fields[2], &seed))) {
        std::fprintf(stderr, "error: --rmat fields must be integers\n");
        return false;
      }
      // VertexId is 32-bit, so 2^SCALE vertices must fit below kInvalidVertex.
      if (scale > 31) {
        std::fprintf(stderr, "error: --rmat SCALE must be at most 31\n");
        return false;
      }
      if (ef > 0xFFFFFFFFull) {
        std::fprintf(stderr, "error: --rmat EDGE_FACTOR must be below 2^32\n");
        return false;
      }
      options->rmat_scale = static_cast<uint32_t>(scale);
      options->rmat_edge_factor = static_cast<uint32_t>(ef);
      options->rmat_seed = seed;
    } else if (match("--jobs=")) {
      options->jobs.clear();
      for (const auto piece : SplitNonEmpty(value, ",")) {
        options->jobs.emplace_back(piece);
      }
    } else if (match("--system=")) {
      options->system = value;
      if (!IsKnownSystem(options->system)) {
        std::fprintf(stderr,
                     "error: --system expects cgraph, cgraph-without, sequential, "
                     "seraph, seraph-vt, nxgraph, or clip\n");
        return false;
      }
    } else if (match("--partitions=")) {
      uint64_t partitions = 0;
      if (!ParseUint64(value, &partitions) || partitions == 0 || partitions > 0xFFFFu) {
        std::fprintf(stderr, "error: --partitions expects a count in [1, 65535]\n");
        return false;
      }
      options->partitions = static_cast<uint32_t>(partitions);
    } else if (match("--partitioner=")) {
      if (!ParsePartitionerName(value, &options->partitioner)) {
        std::fprintf(stderr,
                     "error: --partitioner expects even_edge, hash_source, greedy, "
                     "or degree\n");
        return false;
      }
    } else if (match("--workers=")) {
      uint64_t workers = 0;
      if (!ParseUint64(value, &workers) || workers == 0 || workers > 0xFFFFu) {
        std::fprintf(stderr, "error: --workers expects a count in [1, 65535]\n");
        return false;
      }
      options->workers = static_cast<uint32_t>(workers);
    } else if (match("--source=")) {
      uint64_t source = 0;
      if (!ParseUint64(value, &source) || source >= kInvalidVertex) {
        std::fprintf(stderr, "error: --source expects a vertex id\n");
        return false;
      }
      options->source = static_cast<VertexId>(source);
    } else if (match("--theta-scale=")) {
      if (!ParseDouble(value, &options->theta_scale) || options->theta_scale < 0.0 ||
          options->theta_scale > 1.0) {
        std::fprintf(stderr, "error: --theta-scale expects a number in [0, 1]\n");
        return false;
      }
    } else if (arg == "--no-straggler") {
      options->straggler_split = false;
    } else if (match("--sweep-threshold=")) {
      uint64_t threshold = 0;
      if (!ParseUint64(value, &threshold) || threshold > 0xFFFFFFFFull) {
        std::fprintf(stderr, "error: --sweep-threshold expects a vertex count\n");
        return false;
      }
      options->sweep_threshold = static_cast<int64_t>(threshold);
    } else if (match("--chunk-grain=")) {
      uint64_t grain = 0;
      if (!ParseUint64(value, &grain) || grain == 0 || grain > 0xFFFFFFFFull) {
        std::fprintf(stderr, "error: --chunk-grain expects a positive vertex count\n");
        return false;
      }
      options->chunk_grain = static_cast<uint32_t>(grain);
    } else if (match("--admission=")) {
      if (!ParseAdmissionPolicyName(value, &options->admission)) {
        std::fprintf(stderr, "error: --admission expects fifo or overlap\n");
        return false;
      }
    } else if (match("--execution=")) {
      if (!ParseExecutionModeName(value, &options->execution)) {
        std::fprintf(stderr, "error: --execution expects bsp or async\n");
        return false;
      }
    } else if (match("--staleness=")) {
      uint64_t staleness = 0;
      if (!ParseUint64(value, &staleness) || staleness > 0xFFFFu) {
        std::fprintf(stderr,
                     "error: --staleness expects an iteration count in [0, 65535] "
                     "(0 = degenerate to bsp)\n");
        return false;
      }
      options->staleness = static_cast<int64_t>(staleness);
    } else if (match("--defer-divisor=")) {
      uint64_t divisor = 0;
      if (!ParseUint64(value, &divisor) || divisor > 0xFFFFu) {
        std::fprintf(stderr,
                     "error: --defer-divisor expects a divisor in [0, 65535] "
                     "(0 = always defer up to the staleness bound)\n");
        return false;
      }
      options->defer_divisor = static_cast<int64_t>(divisor);
    } else if (match("--aging=")) {
      if (!ParseDouble(value, &options->aging) || options->aging <= 0.0) {
        std::fprintf(stderr, "error: --aging expects a positive score-per-step weight\n");
        return false;
      }
    } else if (match("--max-jobs=")) {
      uint64_t max_jobs = 0;
      if (!ParseUint64(value, &max_jobs) || max_jobs == 0 || max_jobs > 0xFFFFu) {
        std::fprintf(stderr, "error: --max-jobs expects a count in [1, 65535]\n");
        return false;
      }
      options->max_jobs = static_cast<uint32_t>(max_jobs);
    } else if (match("--arrivals=")) {
      for (const auto piece : SplitNonEmpty(value, ",")) {
        const size_t at = piece.find('@');
        uint64_t step = 0;
        if (at == std::string_view::npos || at == 0 ||
            !ParseUint64(piece.substr(at + 1), &step)) {
          std::fprintf(stderr, "error: --arrivals expects NAME@STEP[,NAME@STEP...]\n");
          return false;
        }
        options->arrivals.push_back(ArrivalSpec{std::string(piece.substr(0, at)), step});
      }
    } else if (match("--trigger-threshold=")) {
      uint64_t threshold = 0;
      if (!ParseUint64(value, &threshold) || threshold > 0xFFFFFFFFull) {
        std::fprintf(stderr, "error: --trigger-threshold expects a vertex count\n");
        return false;
      }
      options->trigger_threshold = static_cast<int64_t>(threshold);
    } else if (arg == "--serve") {
      options->serve = true;
    } else if (match("--trace-jobs=")) {
      if (!ParseUint64(value, &options->trace_jobs) || options->trace_jobs == 0) {
        std::fprintf(stderr, "error: --trace-jobs expects a positive count\n");
        return false;
      }
    } else if (match("--trace-pattern=")) {
      if (!ParseArrivalPattern(value, &options->trace_pattern)) {
        std::fprintf(stderr,
                     "error: --trace-pattern expects uniform, bursty, or diurnal\n");
        return false;
      }
    } else if (match("--trace-seed=")) {
      if (!ParseUint64(value, &options->trace_seed)) {
        std::fprintf(stderr, "error: --trace-seed expects an integer\n");
        return false;
      }
    } else if (match("--trace-gap=")) {
      if (!ParseUint64(value, &options->trace_gap)) {
        std::fprintf(stderr, "error: --trace-gap expects a step count\n");
        return false;
      }
    } else if (match("--trace-burst=")) {
      if (!ParseUint64(value, &options->trace_burst) || options->trace_burst == 0) {
        std::fprintf(stderr, "error: --trace-burst expects a positive count\n");
        return false;
      }
    } else if (match("--trace-sources=")) {
      if (!ParseUint64(value, &options->trace_sources) || options->trace_sources == 0) {
        std::fprintf(stderr, "error: --trace-sources expects a positive count\n");
        return false;
      }
    } else if (match("--trace-file=")) {
      options->trace_file = value;
    } else if (match("--trace-out=")) {
      options->trace_out = value;
    } else if (match("--queue-bound=")) {
      if (!ParseUint64(value, &options->queue_bound)) {
        std::fprintf(stderr, "error: --queue-bound expects a count (0 = unbounded)\n");
        return false;
      }
    } else if (match("--deadline-steps=")) {
      if (!ParseUint64(value, &options->deadline_steps)) {
        std::fprintf(stderr, "error: --deadline-steps expects a step count (0 = off)\n");
        return false;
      }
    } else if (arg == "--no-coalesce") {
      options->coalesce = false;
    } else if (match("--inject-fault=")) {
      for (const auto piece : SplitNonEmpty(value, ",")) {
        FaultSpec spec;
        if (!ParseFaultSpec(piece, &spec)) {
          std::fprintf(stderr,
                       "error: --inject-fault expects KIND@STEP[:JOB] with KIND one of "
                       "load, trigger, push, corrupt, cancel\n");
          return false;
        }
        options->fault_specs.push_back(spec);
      }
    } else if (match("--fault-seed=")) {
      if (!ParseUint64(value, &options->fault_seed)) {
        std::fprintf(stderr, "error: --fault-seed expects an integer\n");
        return false;
      }
    } else if (match("--checkpoint-every=")) {
      if (!ParseUint64(value, &options->checkpoint_every)) {
        std::fprintf(stderr,
                     "error: --checkpoint-every expects an iteration count (0 = off)\n");
        return false;
      }
    } else if (match("--job-step-budget=")) {
      if (!ParseUint64(value, &options->job_step_budget)) {
        std::fprintf(stderr,
                     "error: --job-step-budget expects a step count (0 = no budgets)\n");
        return false;
      }
    } else if (match("--retry-limit=")) {
      if (!ParseUint64(value, &options->retry_limit) || options->retry_limit > 0xFFFFu) {
        std::fprintf(stderr,
                     "error: --retry-limit expects a count in [0, 65535] (0 = off)\n");
        return false;
      }
    } else if (match("--retry-backoff=")) {
      if (!ParseUint64(value, &options->retry_backoff) || options->retry_backoff == 0) {
        std::fprintf(stderr, "error: --retry-backoff expects a positive step count\n");
        return false;
      }
      options->retry_backoff_set = true;
    } else if (match("--values-out=")) {
      options->values_out = value;
    } else if (match("--report-json=")) {
      options->report_json = value;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s' (try --help)\n", argv[i]);
      return false;
    }
  }
  return true;
}

constexpr const char* kKnownJobs[] = {"pagerank", "sssp", "scc", "bfs",
                                      "wcc",      "kcore", "ppr", "khop"};

bool IsKnownJob(const std::string& name) {
  for (const char* known : kKnownJobs) {
    if (name == known) {
      return true;
    }
  }
  return false;
}

// One row of the report: the RunReportToCsv columns of `job`.
void WriteJobRow(JsonWriter& w, const std::string& executor, const JobStats& job,
                 const CostModel& cost, uint32_t workers) {
  w.BeginObject().Field("executor", executor).Field("job", job.job_name);
  w.Field("iterations", job.iterations).Field("vertex_computes", job.vertex_computes);
  w.Field("edge_traversals", job.edge_traversals).Field("push_updates", job.push_updates);
  w.Field("compute_units", job.compute_units).Field("hit_bytes", job.charge.hit_bytes);
  w.Field("mem_bytes", job.charge.mem_bytes).Field("disk_bytes", job.charge.disk_bytes);
  w.Field("modeled_compute", job.ModeledComputeTime(cost, workers));
  w.Field("modeled_access", job.ModeledAccessTime(cost, workers));
  w.Field("modeled_time", job.ModeledTime(cost, workers));
  w.Field("wall_seconds", job.wall_seconds).EndObject();
}

// Per-job wait steps are scheduling steps between becoming runnable and admission,
// deterministic for a fixed workload and policy. The overlap mean aggregates only
// *scored* admissions (contended decisions under a footprint-aware policy): unscored
// jobs report admit_overlap = 0 without ever having been scored.
void WriteAdmission(JsonWriter& w, const RunReport& report, AdmissionPolicyKind policy) {
  uint64_t total_wait = 0;
  uint64_t max_wait = 0;
  size_t waited = 0;
  size_t scored = 0;
  double scored_overlap = 0.0;
  for (const auto& job : report.jobs) {
    total_wait += job.wait_steps;
    max_wait = std::max(max_wait, job.wait_steps);
    waited += job.wait_steps > 0 ? 1 : 0;
    if (job.admit_scored) {
      ++scored;
      scored_overlap += job.admit_overlap;
    }
  }
  const double jobs = static_cast<double>(report.jobs.size());
  w.Key("admission").BeginObject().Field("policy", AdmissionPolicyKindName(policy));
  w.Field("mean_wait_steps", jobs == 0 ? 0.0 : static_cast<double>(total_wait) / jobs);
  w.Field("max_wait_steps", max_wait).Field("waited_jobs", waited);
  w.Field("scored_jobs", scored)
      .Field("mean_admit_overlap",
             scored == 0 ? 0.0 : scored_overlap / static_cast<double>(scored))
      .EndObject();
}

// Which iteration model actually applied (docs/execution_modes.md): async_jobs counts
// jobs that ran under the relaxed model.
void WriteExecution(JsonWriter& w, const RunReport& report, const EngineOptions& options) {
  size_t async_jobs = 0;
  uint64_t redrain = 0;
  uint64_t deferred = 0;
  for (const auto& job : report.jobs) {
    async_jobs += job.async_execution ? 1 : 0;
    redrain += job.redrain_computes;
    deferred += job.deferred_pushes;
  }
  w.Key("execution").BeginObject().Field("mode", ExecutionModeName(options.execution_mode));
  w.Field("staleness", options.staleness).Field("async_jobs", async_jobs);
  w.Field("redrain_computes", redrain).Field("deferred_pushes", deferred).EndObject();
}

// See docs/robustness.md. Checkpoints add no hierarchy charge, so their modeled overhead
// is derived analytically: checkpoint_bytes at the cost model's memory-byte rate over the
// run's bandwidth channels, as a fraction of the run's modeled makespan.
void WriteRobustness(JsonWriter& w, size_t faults_fired, const RunReport& report,
                     const CostModel& cost) {
  size_t failed = 0;
  size_t cancelled = 0;
  uint64_t recoveries = 0;
  uint64_t checkpoints = 0;
  AccessCharge snapshot_charge;
  for (const auto& job : report.jobs) {
    failed += job.failed ? 1 : 0;
    cancelled += job.cancelled ? 1 : 0;
    recoveries += job.recoveries;
    checkpoints += job.checkpoints_taken;
    snapshot_charge.mem_bytes += job.checkpoint_bytes;
  }
  const uint32_t channels =
      std::max<uint32_t>(1, std::min(report.workers, cost.bandwidth_channels));
  const double overhead = cost.AccessCost(snapshot_charge) / channels;
  const double makespan = report.ModeledMakespan(cost);
  w.Key("robustness").BeginObject().Field("injected", faults_fired);
  w.Field("failed", failed).Field("cancelled", cancelled).Field("recoveries", recoveries);
  w.Field("unrecovered", failed + cancelled).Field("checkpoints", checkpoints);
  w.Field("checkpoint_bytes", snapshot_charge.mem_bytes);
  w.Field("checkpoint_overhead_ratio", makespan > 0.0 ? overhead / makespan : 0.0);
  w.EndObject();
}

// Latency percentiles are scheduling-step figures, identical across runs and worker
// counts; wall_seconds and sustained_jobs_per_second are the hardware-dependent outputs.
void WriteService(JsonWriter& w, const ServiceReport& s, const char* pattern) {
  w.Key("service").BeginObject().Field("pattern", pattern);
  w.Field("requests", s.total_requests).Field("completed", s.completed_requests);
  w.Field("shed", s.shed_requests).Field("coalesced", s.coalesced_requests);
  w.Field("failed", s.failed_requests).Field("submitted_jobs", s.submitted_jobs);
  w.Field("executed_jobs", s.executed_jobs).Field("shed_jobs", s.shed_jobs);
  w.Field("cancelled_jobs", s.cancelled_jobs).Field("failed_jobs", s.failed_jobs);
  w.Field("retried", s.retried_jobs).Field("recovered", s.recovered_jobs);
  w.Field("dedup_ratio", s.dedup_ratio).Field("p50_latency_steps", s.p50_latency_steps);
  w.Field("p95_latency_steps", s.p95_latency_steps);
  w.Field("p99_latency_steps", s.p99_latency_steps);
  w.Field("mean_latency_steps", s.mean_latency_steps);
  w.Field("max_latency_steps", s.max_latency_steps).Field("final_step", s.final_step);
  w.Field("wall_seconds", s.wall_seconds);
  w.Field("sustained_jobs_per_second", s.sustained_jobs_per_second).EndObject();
}

// Writes the --report-json document, if one was requested, and returns the exit code
// (1 when the file cannot be written). The document holds the graph and its layout
// quality (docs/partitioning.md), one row per job plus their total, and the summaries
// that apply to the run: admission (cgraph batch runs), execution (cgraph systems),
// robustness (fault injection or checkpointing) and service (--serve, where `service`
// is non-null). Every number is the value the engine computed, at full precision;
// sections that do not apply are absent rather than null.
int WriteReportIfRequested(const CliOptions& options, const EdgeList& edges,
                           const PartitionedGraph& graph, const RunReport& report,
                           const EngineOptions& engine_options, size_t faults_fired,
                           VertexId source, const ServiceReport* service) {
  if (options.report_json.empty()) {
    return 0;
  }
  const CostModel cost;
  const PartitionQuality& q = graph.quality();
  JsonWriter w;
  w.BeginObject().Field("system", options.system).Field("executor", report.executor_name);
  w.Field("workers", report.workers);
  if (service == nullptr) {
    w.Field("source", source);
  }
  w.Key("graph").BeginObject().Field("vertices", edges.num_vertices());
  w.Field("edges", edges.num_edges()).Field("partitions", graph.num_partitions()).EndObject();
  w.Key("partition").BeginObject().Field("partitioner", PartitionerKindName(q.partitioner));
  w.Field("edge_cut_fraction", q.edge_cut_fraction);
  w.Field("replication_factor", q.replication_factor).Field("mirror_count", q.mirror_count);
  w.Field("edge_balance", q.edge_balance).Field("vertex_balance", q.vertex_balance);
  w.EndObject().Key("jobs").BeginArray();
  for (const auto& job : report.jobs) {
    WriteJobRow(w, report.executor_name, job, cost, report.workers);
  }
  w.EndArray().Key("total");
  WriteJobRow(w, report.executor_name, report.Total(), cost, report.workers);
  if (options.system == "cgraph" || options.system == "cgraph-without") {
    if (service != nullptr) {
      WriteService(w, *service,
                   options.trace_file.empty() ? ArrivalPatternName(options.trace_pattern)
                                              : "file");
    } else {
      WriteAdmission(w, report, options.admission);
    }
    WriteExecution(w, report, engine_options);
    if (!engine_options.fault_specs.empty() || engine_options.checkpoint_every > 0) {
      WriteRobustness(w, faults_fired, report, cost);
    }
  }
  w.EndObject();
  const Status status = WriteTextFile(options.report_json, w.str() + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", options.report_json.c_str());
  return 0;
}

// One line per (completed job, vertex): "job,vertex,value" with full double precision —
// the byte-comparable artifact the recovery-equivalence SMOKE gate diffs against a
// fault-free run. Jobs without valid readback (shed/cancelled/failed) are skipped.
bool WriteFinalValues(const LtpEngine& engine, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (JobId id = 0; id < engine.num_jobs(); ++id) {
    const Result<std::vector<double>> values = engine.TryFinalValues(id);
    if (!values.ok()) {
      continue;
    }
    const std::vector<double>& v = values.value();
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%u,%zu,%.17g\n", id, i, v[i]);
    }
  }
  std::fclose(f);
  return true;
}

void PrintUsage() {
  std::printf(
      "cgraph_cli — concurrent iterative graph processing (CGraph reproduction)\n\n"
      "  --graph=FILE          edge list: 'src dst [weight]' per line, # comments\n"
      "  --rmat=S,EF[,SEED]    synthetic power-law graph (default 12,8)\n"
      "  --jobs=a,b,c          pagerank sssp scc bfs wcc kcore ppr khop\n"
      "  --system=NAME         cgraph (default), cgraph-without, sequential, seraph,\n"
      "                        seraph-vt, nxgraph, clip\n"
      "  --partitions=N        graph partitions (default 16)\n"
      "  --partitioner=NAME    edge-placement strategy (docs/partitioning.md):\n"
      "                        even_edge (default; the paper's sorted equal-edge\n"
      "                        chunks, byte-identical to the historical layout),\n"
      "                        hash_source (hash each edge by its source vertex),\n"
      "                        greedy (streaming replication-minimizing placement,\n"
      "                        capacity-bounded), degree (edges follow their lower-\n"
      "                        degree endpoint; only hubs replicate)\n"
      "  --workers=N           worker threads (default 4)\n"
      "  --source=V            traversal source (default: lowest positive out-degree —\n"
      "                        a localized footprint; pass a hub id to fan out wide)\n"
      "  --theta-scale=X       scale Eq. 1's theta in [0,1] (default 1; 0 = pure N(P))\n"
      "  --no-straggler        disable straggler splitting (one task per job)\n"
      "  --chunk-grain=N       vertices per stolen work chunk (default 256)\n"
      "  --sweep-threshold=N   min partition vertices before bookkeeping sweeps use the\n"
      "                        thread pool (default 8192; 0 always parallel)\n"
      "  --arrivals=J@S,...    submit job J online after S scheduling steps\n"
      "                        (cgraph systems only)\n"
      "  --admission=NAME      job-level admission policy (cgraph systems only):\n"
      "                        fifo (default), overlap (admit the due waiter sharing\n"
      "                        most initially-active partitions with the running set)\n"
      "  --aging=X             overlap score bonus per waited step (default\n"
      "                        1/256; only jobs arriving within 1/X steps of a due\n"
      "                        waiter can overtake it)\n"
      "  --max-jobs=N          concurrency slots before admission queues (default 64)\n"
      "  --execution=NAME      iteration model (cgraph systems only): bsp (default;\n"
      "                        deterministic correctness oracle) or async (bounded-\n"
      "                        staleness for monotonic programs: intra-iteration re-\n"
      "                        drain of partition-interior updates + mirror sync lagging\n"
      "                        masters by at most --staleness iterations; identical\n"
      "                        converged values, fewer iterations). Every requested job\n"
      "                        must be monotonic: sssp bfs wcc kcore khop\n"
      "  --staleness=N         async mirror-sync lag bound in iterations (default 1;\n"
      "                        0 degenerates to bsp; ignored under --execution=bsp)\n"
      "  --defer-divisor=N     async adaptive-deferral heat threshold: a boundary only\n"
      "                        defers while fresh master records >= replicated/N\n"
      "                        (default 1; 0 = always defer up to the staleness bound)\n"
      "  --trigger-threshold=N min active vertices in a trigger batch before it\n"
      "                        dispatches through the thread pool (default 4096;\n"
      "                        0 always dispatches)\n"
      "  --report-json=PATH    also write the run's machine-readable JSON report\n"
      "\nservice daemon (docs/service.md):\n"
      "  --serve               replay an arrival trace as a long-running service\n"
      "                        (cgraph systems only; --jobs becomes the program mix)\n"
      "  --trace-jobs=N        requests in the generated trace (default 1000)\n"
      "  --trace-pattern=NAME  uniform (default), bursty, diurnal\n"
      "  --trace-seed=N        trace PRNG seed (default 42)\n"
      "  --trace-gap=N         mean inter-arrival gap in scheduling steps (default 4)\n"
      "  --trace-burst=N       requests per clump under bursty (default 16)\n"
      "  --trace-sources=N     traversal-source pool size; smaller pools repeat\n"
      "                        sources more, so more requests coalesce (default 8)\n"
      "  --trace-file=PATH     replay this trace file instead of generating\n"
      "  --trace-out=PATH      save the generated trace for exact replay\n"
      "  --queue-bound=N       waiting-queue bound before arrivals shed at the door\n"
      "                        (default 64; 0 = unbounded)\n"
      "  --deadline-steps=N    shed jobs still waiting N steps past arrival\n"
      "                        (default 0 = no deadlines)\n"
      "  --no-coalesce         disable query fan-in (every request runs its own job)\n"
      "\nrobustness (docs/robustness.md; cgraph systems only):\n"
      "  --inject-fault=SPECS  deterministic fault injection: KIND@STEP[:JOB],... with\n"
      "                        KIND one of load, trigger, push (per-job stage errors),\n"
      "                        corrupt (NaN-scribble state then fail the job), cancel\n"
      "                        (simulated mid-run deadline expiry); each spec fires\n"
      "                        once, at the first matching poll at or after STEP\n"
      "  --fault-seed=N        corruption-target PRNG seed (default 42)\n"
      "  --checkpoint-every=N  snapshot each job's state every N completed iterations\n"
      "                        (default 0 = off); failed/cancelled jobs restart from\n"
      "                        their last checkpoint (batch mode recovers in-process;\n"
      "                        --serve recovers through the retry policy)\n"
      "  --job-step-budget=N   cancel a running job N scheduling steps after its\n"
      "                        admission (default 0 = no budgets; complements\n"
      "                        --deadline-steps, which bounds queue wait only)\n"
      "  --retry-limit=N       --serve only: retry failed/cancelled/deadline-shed jobs\n"
      "                        up to N times (default 0 = off); checkpointed jobs\n"
      "                        resume, others resubmit fresh\n"
      "  --retry-backoff=N     --serve only: base retry spacing in scheduling steps,\n"
      "                        doubled per attempt (default 8)\n"
      "  --values-out=PATH     write 'job,vertex,value' lines for every completed job\n"
      "                        (the recovery-equivalence comparison artifact)\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  for (const auto& job : options.jobs) {
    if (!IsKnownJob(job)) {
      std::fprintf(stderr, "error: unknown job '%s'\n", job.c_str());
      return 2;
    }
  }
  const bool is_cgraph_system =
      options.system == "cgraph" || options.system == "cgraph-without";
  for (const auto& arrival : options.arrivals) {
    if (!IsKnownJob(arrival.job)) {
      std::fprintf(stderr, "error: unknown arrival job '%s'\n", arrival.job.c_str());
      return 2;
    }
    if (!is_cgraph_system) {
      std::fprintf(stderr, "error: --arrivals requires --system=cgraph|cgraph-without\n");
      return 2;
    }
  }
  if (options.admission != AdmissionPolicyKind::kFifo && !is_cgraph_system) {
    std::fprintf(stderr, "error: --admission requires --system=cgraph|cgraph-without\n");
    return 2;
  }
  if (options.serve && !is_cgraph_system) {
    std::fprintf(stderr, "error: --serve requires --system=cgraph|cgraph-without\n");
    return 2;
  }
  if (options.serve && !options.arrivals.empty()) {
    std::fprintf(stderr, "error: --serve and --arrivals are mutually exclusive\n");
    return 2;
  }
  if (!is_cgraph_system &&
      (!options.fault_specs.empty() || options.checkpoint_every > 0 ||
       options.job_step_budget > 0 || !options.values_out.empty())) {
    std::fprintf(stderr,
                 "error: --inject-fault/--checkpoint-every/--job-step-budget/"
                 "--values-out require --system=cgraph|cgraph-without (the baselines "
                 "have no fault-tolerance path)\n");
    return 2;
  }
  if (!options.serve && (options.retry_limit > 0 || options.retry_backoff_set)) {
    std::fprintf(stderr,
                 "error: --retry-limit/--retry-backoff require --serve (retries are a "
                 "service-daemon policy; batch runs recover explicitly via "
                 "--checkpoint-every)\n");
    return 2;
  }
  if (options.execution == ExecutionMode::kAsync) {
    if (!is_cgraph_system) {
      std::fprintf(stderr,
                   "error: --execution=async requires --system=cgraph|cgraph-without "
                   "(the baselines have no bounded-staleness path)\n");
      return 2;
    }
    // Job names are validated above, so the factory probe cannot trip on an unknown
    // name. Source 0 is arbitrary — monotonic() is a program-type property.
    auto reject_non_monotonic = [](const std::string& name) {
      if (MakeProgram(name, 0)->monotonic()) {
        return false;
      }
      std::fprintf(stderr,
                   "error: job '%s' is not monotonic and cannot run under "
                   "--execution=async; monotonic jobs: sssp, bfs, wcc, kcore, khop "
                   "(drop it or use --execution=bsp)\n",
                   name.c_str());
      return true;
    };
    for (const auto& job : options.jobs) {
      if (reject_non_monotonic(job)) {
        return 2;
      }
    }
    for (const auto& arrival : options.arrivals) {
      if (reject_non_monotonic(arrival.job)) {
        return 2;
      }
    }
  }

  EdgeList edges;
  if (!options.graph_path.empty()) {
    auto loaded = LoadEdgeListText(options.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    edges = std::move(loaded).value();
  } else {
    RmatOptions rmat;
    rmat.scale = options.rmat_scale;
    rmat.edge_factor = options.rmat_edge_factor;
    rmat.seed = options.rmat_seed;
    edges = GenerateRmat(rmat);
  }
  if (options.source != kInvalidVertex && options.source >= edges.num_vertices()) {
    std::fprintf(stderr, "error: --source=%u is out of range: the graph has %u vertices\n",
                 options.source, edges.num_vertices());
    return 2;
  }
  const VertexId source =
      options.source == kInvalidVertex ? PickSourceVertex(edges) : options.source;

  PartitionOptions popts;
  popts.num_partitions = options.partitions;
  popts.partitioner = options.partitioner;
  popts.core_subgraph = options.system != "cgraph-without";
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);

  EngineOptions engine_options;
  engine_options.num_workers = options.workers;
  engine_options.theta_scale = options.theta_scale;
  engine_options.straggler_split = options.straggler_split;
  if (options.chunk_grain > 0) {
    engine_options.chunk_grain = options.chunk_grain;
  }
  if (options.sweep_threshold >= 0) {
    engine_options.parallel_sweep_threshold = static_cast<uint32_t>(options.sweep_threshold);
  }
  engine_options.partitioner = options.partitioner;
  engine_options.admission_policy = options.admission;
  engine_options.execution_mode = options.execution;
  if (options.staleness >= 0) {
    engine_options.staleness = static_cast<uint32_t>(options.staleness);
  }
  if (options.defer_divisor >= 0) {
    engine_options.async_defer_divisor = static_cast<uint32_t>(options.defer_divisor);
  }
  if (options.aging > 0.0) {
    engine_options.admission_aging = options.aging;
  }
  if (options.max_jobs > 0) {
    engine_options.max_jobs = options.max_jobs;
  }
  if (options.trigger_threshold >= 0) {
    engine_options.parallel_trigger_threshold =
        static_cast<uint32_t>(options.trigger_threshold);
  }
  engine_options.fault_specs = options.fault_specs;
  engine_options.fault_seed = options.fault_seed;
  engine_options.checkpoint_every = options.checkpoint_every;
  engine_options.job_step_budget = options.job_step_budget;

  if (options.serve) {
    engine_options.use_scheduler = options.system == "cgraph";

    std::vector<ServiceRequest> trace;
    if (!options.trace_file.empty()) {
      if (!LoadTrace(options.trace_file, &trace)) {
        std::fprintf(stderr, "error: cannot load trace from '%s'\n",
                     options.trace_file.c_str());
        return 1;
      }
    } else {
      TraceGenOptions tgen;
      tgen.num_requests = options.trace_jobs;
      tgen.pattern = options.trace_pattern;
      tgen.seed = options.trace_seed;
      tgen.mean_gap = options.trace_gap;
      tgen.burst_size = options.trace_burst;
      tgen.programs = options.jobs;
      tgen.sources = PickSourcePool(edges, options.trace_sources);
      trace = GenerateArrivalTrace(tgen);
    }
    if (!options.trace_out.empty() && !SaveTrace(trace, options.trace_out)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   options.trace_out.c_str());
      return 1;
    }

    LtpEngine engine(&graph, engine_options);
    ServiceOptions sopts;
    sopts.queue_bound = static_cast<size_t>(options.queue_bound);
    sopts.deadline_steps = options.deadline_steps;
    sopts.coalesce = options.coalesce;
    sopts.retry_limit = static_cast<uint32_t>(options.retry_limit);
    sopts.retry_backoff = options.retry_backoff;
    ServiceDriver driver(&engine, sopts);
    const ServiceReport sreport = driver.Run(trace);

    std::printf("graph: %u vertices, %zu edges, %u partitions (replication %.2f)\n",
                edges.num_vertices(), edges.num_edges(), graph.num_partitions(),
                graph.replication_factor());
    std::printf("system: %s daemon, %u workers, %s trace\n\n", options.system.c_str(),
                options.workers,
                options.trace_file.empty() ? ArrivalPatternName(options.trace_pattern)
                                           : options.trace_file.c_str());
    std::printf("requests     %llu (%llu completed, %llu shed, %llu coalesced, "
                "%llu failed)\n",
                static_cast<unsigned long long>(sreport.total_requests),
                static_cast<unsigned long long>(sreport.completed_requests),
                static_cast<unsigned long long>(sreport.shed_requests),
                static_cast<unsigned long long>(sreport.coalesced_requests),
                static_cast<unsigned long long>(sreport.failed_requests));
    std::printf("jobs         %llu submitted, %llu executed, %llu shed while queued\n",
                static_cast<unsigned long long>(sreport.submitted_jobs),
                static_cast<unsigned long long>(sreport.executed_jobs),
                static_cast<unsigned long long>(sreport.shed_jobs));
    if (options.retry_limit > 0 || sreport.failed_jobs > 0 || sreport.cancelled_jobs > 0) {
      std::printf("retries      %llu failed, %llu cancelled mid-run; %llu resubmitted, "
                  "%llu resumed from checkpoints\n",
                  static_cast<unsigned long long>(sreport.failed_jobs),
                  static_cast<unsigned long long>(sreport.cancelled_jobs),
                  static_cast<unsigned long long>(sreport.retried_jobs),
                  static_cast<unsigned long long>(sreport.recovered_jobs));
    }
    std::printf("latency      p50 %.0f, p95 %.0f, p99 %.0f, mean %.1f, max %.0f steps\n",
                sreport.p50_latency_steps, sreport.p95_latency_steps,
                sreport.p99_latency_steps, sreport.mean_latency_steps,
                sreport.max_latency_steps);
    std::printf("throughput   %.2f completed requests/s over %.2fs wall (%llu steps)\n\n",
                sreport.sustained_jobs_per_second, sreport.wall_seconds,
                static_cast<unsigned long long>(sreport.final_step));
    const RunReport engine_report = engine.Report();
    if (!options.values_out.empty() && !WriteFinalValues(engine, options.values_out)) {
      std::fprintf(stderr, "error: cannot write values to '%s'\n",
                   options.values_out.c_str());
      return 1;
    }
    return WriteReportIfRequested(options, edges, graph, engine_report, engine_options,
                                  engine.faults_fired(), source, &sreport);
  }

  RunReport report;
  size_t faults_fired = 0;
  if (is_cgraph_system) {
    engine_options.use_scheduler = options.system == "cgraph";
    LtpEngine engine(&graph, engine_options);
    // Service API, not the legacy AddJob: up-front jobs beyond --max-jobs queue for
    // admission instead of tripping the batch wrapper's capacity CHECK.
    for (const auto& name : options.jobs) {
      engine.Submit(MakeProgram(name, source));
    }
    // Online submissions ride the service API: each arrival becomes runnable after its
    // scheduling step and queues behind max_jobs if the engine is saturated.
    for (const auto& arrival : options.arrivals) {
      engine.SubmitAt(MakeProgram(arrival.job, source), arrival.step);
    }
    engine.RunUntilIdle();
    if (engine_options.checkpoint_every > 0) {
      // Batch-mode recovery: restart every faulted job that left a checkpoint and drive
      // the engine idle again, until nothing recoverable remains. Each fault spec fires
      // once, so a restarted job does not re-trip the fault that killed it; the round
      // guard only bounds pathological spec lists that keep killing restarted jobs.
      for (int round = 0; round < 16; ++round) {
        bool restarted = false;
        for (JobId id = 0; id < static_cast<JobId>(engine.num_jobs()); ++id) {
          const JobStats& stats = engine.job(id).stats();
          if ((stats.failed || stats.cancelled) && engine.HasCheckpoint(id) &&
              engine.RestartFromCheckpoint(id, engine.current_step()).ok()) {
            restarted = true;
          }
        }
        if (!restarted) {
          break;
        }
        engine.RunUntilIdle();
      }
    }
    report = engine.Report();
    faults_fired = engine.faults_fired();
    if (!options.values_out.empty() && !WriteFinalValues(engine, options.values_out)) {
      std::fprintf(stderr, "error: cannot write values to '%s'\n",
                   options.values_out.c_str());
      return 1;
    }
  } else {
    BaselineOptions bopts;
    bopts.engine = engine_options;
    if (options.system == "sequential") {
      bopts.system = BaselineSystem::kSequential;
    } else if (options.system == "seraph") {
      bopts.system = BaselineSystem::kSeraph;
    } else if (options.system == "seraph-vt") {
      bopts.system = BaselineSystem::kSeraphVt;
    } else if (options.system == "nxgraph") {
      bopts.system = BaselineSystem::kNxgraph;
    } else if (options.system == "clip") {
      bopts.system = BaselineSystem::kClip;
    } else {
      std::fprintf(stderr, "error: unknown system '%s'\n", options.system.c_str());
      return 2;
    }
    BaselineExecutor executor(&graph, bopts);
    for (const auto& name : options.jobs) {
      executor.AddJob(MakeProgram(name, source));
    }
    report = executor.Run();
  }

  std::printf("graph: %u vertices, %zu edges, %u partitions (replication %.2f)\n",
              edges.num_vertices(), edges.num_edges(), graph.num_partitions(),
              graph.replication_factor());
  std::printf("system: %s, %u workers, source %u\n\n", report.executor_name.c_str(),
              report.workers, source);

  const CostModel cost;
  TablePrinter table({"Job", "Iterations", "Vertex computes", "Edge traversals",
                      "Modeled time", "Access share"});
  for (const auto& job : report.jobs) {
    const double compute = job.ModeledComputeTime(cost, report.workers);
    const double access = job.ModeledAccessTime(cost, report.workers);
    table.AddRow({job.job_name, std::to_string(job.iterations),
                  std::to_string(job.vertex_computes), std::to_string(job.edge_traversals),
                  FormatDouble(compute + access, 0),
                  FormatDouble(compute + access > 0 ? access / (compute + access) * 100 : 0, 1) +
                      "%"});
  }
  table.Print();
  std::printf("\nLLC miss rate %.1f%%, volume into cache %s, disk I/O %s, wall %.2fs\n",
              report.cache.miss_rate() * 100, HumanBytes(report.cache.miss_bytes).c_str(),
              HumanBytes(report.memory.disk_bytes).c_str(), report.wall_seconds);
  return WriteReportIfRequested(options, edges, graph, report, engine_options, faults_fired,
                                source, nullptr);
}
