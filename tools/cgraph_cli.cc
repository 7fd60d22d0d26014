// cgraph_cli — run concurrent iterative graph jobs from the command line.
//
// Every flag is one row of the FlagSet built by RegisterFlags below; `cgraph_cli --help`
// lists them with their defaults. The run prints a human-readable per-job report table;
// --report-json additionally writes the run's one machine-readable record (see
// WriteReportIfRequested below).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/fault_injection.h"
#include "src/common/flags.h"
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

// The option structs the flags bind to, holding the CLI's defaults, plus the settings
// that have no home in them. `trace.programs` is the --jobs list in every mode.
struct CliOptions {
  std::string graph_path;
  RmatOptions rmat{.scale = 12, .edge_factor = 8, .seed = 1};
  PartitionOptions partition{.num_partitions = 16};
  EngineOptions engine;
  ServiceOptions service;
  TraceGenOptions trace{.programs = {"pagerank", "sssp", "scc", "bfs"}, .sources = {}};
  std::vector<ServiceRequest> arrivals;  // --arrivals; `source` is unused.
  std::string system = "cgraph";
  VertexId source = kInvalidVertex;  // kInvalidVertex: PickSourceVertex decides.
  bool serve = false;
  uint64_t trace_sources = 8;
  std::string trace_file;
  std::string trace_out;
  std::string values_out;
  std::string report_json;

  bool cgraph() const { return system == "cgraph" || system == "cgraph-without"; }
};

// Row requirements (FlagSet::CheckRequirement).
constexpr const char* kCgraphOnly = "--system=cgraph|cgraph-without";
constexpr const char* kServeOnly = "--serve";

constexpr std::string_view kJobs[] = {"pagerank", "sssp", "scc", "bfs",
                                      "wcc",      "kcore", "ppr", "khop"};

Status CheckJobName(std::string_view flag, std::string_view name) {
  if (std::find(std::begin(kJobs), std::end(kJobs), name) != std::end(kJobs)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(std::string(flag) + ": unknown job '" + std::string(name) +
                                 "' (jobs: pagerank sssp scc bfs wcc kcore ppr khop)");
}

// Every cgraph_cli flag, bound to its field in `o`.
void RegisterFlags(FlagSet& flags, CliOptions& o) {
  EngineOptions& e = o.engine;
  flags.String("graph", "FILE", "edge list: 'src dst [weight]' per line, # comments",
               &o.graph_path);
  flags.Custom(
      "rmat", "S,EF[,SEED]", "synthetic power-law graph: 2^S vertices, EF edges per vertex",
      [&o](std::string_view text) {
        const auto fields = SplitNonEmpty(text, ",");
        if (fields.empty() || fields.size() > 3) {
          return Status::InvalidArgument("--rmat expects SCALE,EDGE_FACTOR[,SEED]");
        }
        uint64_t v[3] = {0, o.rmat.edge_factor, o.rmat.seed};  // Scale, edge factor, seed.
        for (size_t i = 0; i < fields.size(); ++i) {
          if (!ParseUint64(fields[i], &v[i])) {
            return Status::InvalidArgument("--rmat fields must be integers");
          }
        }
        // VertexId is 32-bit, so 2^SCALE vertices must fit below kInvalidVertex.
        if (v[0] > 31) {
          return Status::InvalidArgument("--rmat SCALE must be at most 31");
        }
        if (v[1] > 0xFFFFFFFFull) {
          return Status::InvalidArgument("--rmat EDGE_FACTOR must be below 2^32");
        }
        o.rmat.scale = static_cast<uint32_t>(v[0]);
        o.rmat.edge_factor = static_cast<uint32_t>(v[1]);
        o.rmat.seed = v[2];
        return Status::Ok();
      },
      [&o] {
        return std::to_string(o.rmat.scale) + "," + std::to_string(o.rmat.edge_factor) +
               "," + std::to_string(o.rmat.seed);
      });
  flags.List<std::string>(
      "jobs", "a,b,c",
      "programs to run (the trace's program mix under --serve): pagerank sssp scc bfs wcc "
      "kcore ppr khop",
      &o.trace.programs,
      [](std::string_view piece, std::string* job) {
        *job = piece;
        return CheckJobName("--jobs", piece);
      },
      [](const std::string& job) { return job; });
  flags.Custom(
      "source", "V",
      "traversal source for sssp, bfs, ppr and khop; the default keeps footprints "
      "localized, a hub id fans out wide",
      [&o](std::string_view text) {
        uint64_t source = 0;
        if (!ParseUint64(text, &source) || source >= kInvalidVertex) {
          return Status::InvalidArgument("--source expects a vertex id");
        }
        o.source = static_cast<VertexId>(source);
        return Status::Ok();
      },
      [&o] {
        return o.source == kInvalidVertex ? "lowest positive out-degree"
                                          : std::to_string(o.source);
      });
  flags.Enum("system",
             "executor: cgraph (the LTP engine), cgraph-without (no Eq. 1 priority), or a "
             "baseline: sequential, seraph, seraph-vt, nxgraph, clip",
             &o.system,
             std::vector<std::string>{"cgraph", "cgraph-without", "sequential", "seraph",
                                      "seraph-vt", "nxgraph", "clip"},
             [](const std::string& s) { return s; });
  flags.Number("partitions", "N", "graph partitions", &o.partition.num_partitions, 1,
               65535);
  flags.Enum("partitioner",
             "edge-placement strategy (docs/partitioning.md): even_edge (the paper's "
             "sorted equal-edge chunks), hash_source (hash each edge by its source "
             "vertex), greedy (streaming replication-minimizing placement), degree (edges "
             "follow their lower-degree endpoint; only hubs replicate)",
             &o.partition.partitioner,
             {PartitionerKind::kEvenEdge, PartitionerKind::kHashSource,
              PartitionerKind::kGreedy, PartitionerKind::kDegree},
             PartitionerKindName);
  flags.Number("workers", "N", "worker threads", &e.num_workers, 1, 65535);
  flags.Number("theta-scale", "X", "scale Eq. 1's theta (0 = pure N(P) ordering)",
               &e.theta_scale, 0.0, 1.0);
  flags.Switch("no-straggler", "disable straggler splitting (one task per job)",
               &e.straggler_split, false);
  flags.Number("chunk-grain", "N", "vertices per stolen work chunk", &e.chunk_grain, 1);
  flags.Number("sweep-threshold", "N",
               "min partition vertices before bookkeeping sweeps use the thread pool (0 "
               "always parallel)",
               &e.parallel_sweep_threshold);
  flags.Number("trigger-threshold", "N",
               "min active vertices in a trigger batch before it dispatches through the "
               "thread pool (0 always dispatches)",
               &e.parallel_trigger_threshold);
  flags.Number("aging", "X",
               "overlap-admission score bonus per waited step; only jobs arriving within "
               "1/X steps of a due waiter can overtake it",
               &e.admission_aging, 0.0, std::numeric_limits<double>::max(), true);
  flags.Number("max-jobs", "N", "concurrency slots before admission queues", &e.max_jobs, 1,
               65535);
  flags.Number("staleness", "N",
               "async mirror-sync lag bound in iterations (0 degenerates to bsp)",
               &e.staleness, 0, 65535);
  flags.Number("defer-divisor", "N",
               "async deferral heat threshold: a boundary defers only while fresh master "
               "records >= replicated/N (0 = always defer up to the staleness bound)",
               &e.async_defer_divisor, 0, 65535);
  flags.Number("fault-seed", "N", "corruption-target PRNG seed (docs/robustness.md)",
               &e.fault_seed);
  flags.String("report-json", "PATH", "also write the run's machine-readable JSON report",
               &o.report_json);

  flags.Section("LTP engine only (docs/scheduling.md, docs/robustness.md)", kCgraphOnly);
  flags.List<ServiceRequest>(
      "arrivals", "J@S,...", "submit job J online after S partition-scheduling steps",
      &o.arrivals,
      [](std::string_view piece, ServiceRequest* arrival) {
        const size_t at = piece.find('@');
        if (at == std::string_view::npos ||
            !ParseUint64(piece.substr(at + 1), &arrival->arrival_step)) {
          return Status::InvalidArgument("--arrivals expects NAME@STEP[,NAME@STEP...]");
        }
        arrival->program = piece.substr(0, at);
        return CheckJobName("--arrivals", arrival->program);
      },
      [](const ServiceRequest& arrival) {
        return arrival.program + "@" + std::to_string(arrival.arrival_step);
      });
  flags.Enum("admission",
             "job-level admission policy: fifo, or overlap (admit the due waiter sharing "
             "most initially-active partitions with the running set)",
             &e.admission_policy,
             {AdmissionPolicyKind::kFifo, AdmissionPolicyKind::kOverlap},
             AdmissionPolicyKindName);
  flags.Enum("execution",
             "iteration model: bsp (the deterministic correctness oracle) or async "
             "(bounded-staleness re-drain and mirror sync for monotonic programs; "
             "identical converged values, fewer iterations). Under async every job must "
             "be monotonic: sssp bfs wcc kcore khop",
             &e.execution_mode, {ExecutionMode::kBsp, ExecutionMode::kAsync},
             ExecutionModeName);
  flags.Switch("serve", "replay an arrival trace as a long-running service", &o.serve);
  flags.List<FaultSpec>(
      "inject-fault", "SPECS",
      "deterministic fault injection: KIND@STEP[:JOB],... with KIND one of load, trigger, "
      "push (per-job stage errors), corrupt (NaN-scribble state then fail the job), cancel "
      "(simulated mid-run deadline expiry); each spec fires once, at the first matching "
      "poll at or after STEP",
      &e.fault_specs,
      [](std::string_view piece, FaultSpec* spec) {
        return ParseFaultSpec(piece, spec)
                   ? Status::Ok()
                   : Status::InvalidArgument(
                         "--inject-fault expects KIND@STEP[:JOB] with KIND one of load, "
                         "trigger, push, corrupt, cancel");
      },
      [](const FaultSpec& f) {
        return std::string(FaultKindName(f.kind)) + "@" + std::to_string(f.step) +
               (f.job == kInvalidJob ? "" : ":" + std::to_string(f.job));
      });
  flags.Number("checkpoint-every", "N",
               "snapshot each job's state every N completed iterations (0 = off); "
               "failed/cancelled jobs restart from their last checkpoint (in-process in "
               "batch mode, through the retry policy under --serve)",
               &e.checkpoint_every);
  flags.Number("job-step-budget", "N",
               "cancel a running job N scheduling steps after its admission (0 = no "
               "budgets; --deadline-steps bounds queue wait only)",
               &e.job_step_budget);
  flags.String("values-out", "PATH",
               "write 'job,vertex,value' lines for every completed job (the "
               "recovery-equivalence comparison artifact)",
               &o.values_out);

  flags.Section("service daemon (docs/service.md)", kServeOnly);
  // 2^20 caps the up-front trace allocation; the largest committed trace has 2000.
  flags.Number("trace-jobs", "N", "requests in the generated trace", &o.trace.num_requests,
               1, size_t{1} << 20);
  flags.Enum("trace-pattern", "arrival pattern: uniform, bursty, diurnal", &o.trace.pattern,
             {ArrivalPattern::kUniform, ArrivalPattern::kBursty, ArrivalPattern::kDiurnal},
             ArrivalPatternName);
  flags.Number("trace-seed", "N", "trace PRNG seed", &o.trace.seed);
  // Gap and burst stay at most 2^20 so arrival steps cannot wrap.
  flags.Number("trace-gap", "N", "mean inter-arrival gap in scheduling steps",
               &o.trace.mean_gap, 0, uint64_t{1} << 20);
  flags.Number("trace-burst", "N", "requests per clump under bursty", &o.trace.burst_size,
               1, uint64_t{1} << 20);
  flags.Number("trace-sources", "N",
               "traversal-source pool size; smaller pools repeat sources more, so more "
               "requests coalesce",
               &o.trace_sources, 1);
  flags.String("trace-file", "PATH", "replay this trace file instead of generating",
               &o.trace_file);
  flags.String("trace-out", "PATH", "save the generated trace for exact replay",
               &o.trace_out);
  flags.Number("queue-bound", "N",
               "waiting-queue bound before arrivals shed at the door (0 = unbounded)",
               &o.service.queue_bound);
  flags.Number("deadline-steps", "N",
               "shed jobs still waiting N steps past arrival (0 = no deadlines)",
               &o.service.deadline_steps);
  flags.Switch("no-coalesce", "disable query fan-in (every request runs its own job)",
               &o.service.coalesce, false);
  flags.Number("retry-limit", "N",
               "retry failed/cancelled/deadline-shed jobs up to N times (0 = off); "
               "checkpointed jobs resume, others resubmit fresh (docs/robustness.md)",
               &o.service.retry_limit, 0, kMaxRetryLimit);
  flags.Number("retry-backoff", "N",
               "base retry spacing in scheduling steps, doubled per attempt",
               &o.service.retry_backoff, 1, kMaxRetryBackoff);
}

// Usage errors that depend on several flags' values.
Status CheckCombinations(const CliOptions& o, const FlagSet& flags) {
  for (const Status& status : {flags.CheckRequirement(kCgraphOnly, o.cgraph()),
                               flags.CheckRequirement(kServeOnly, o.serve)}) {
    if (!status.ok()) {
      return status;
    }
  }
  if (o.serve && !o.arrivals.empty()) {
    return Status::InvalidArgument("--serve and --arrivals are mutually exclusive");
  }
  if (o.engine.execution_mode == ExecutionMode::kAsync) {
    // Job names are validated at parse time, so the factory probe cannot trip on an
    // unknown name. Source 0 is arbitrary: monotonic() is a program-type property.
    std::vector<std::string> names = o.trace.programs;
    for (const ServiceRequest& arrival : o.arrivals) {
      names.push_back(arrival.program);
    }
    for (const std::string& name : names) {
      if (!MakeProgram(name, 0)->monotonic()) {
        return Status::InvalidArgument(
            "job '" + name +
            "' is not monotonic and cannot run under --execution=async; monotonic jobs: "
            "sssp, bfs, wcc, kcore, khop (drop it or use --execution=bsp)");
      }
    }
  }
  return Status::Ok();
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
                           size_t faults_fired, VertexId source,
                           const ServiceReport* service) {
  const EngineOptions& engine_options = options.engine;
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
  if (options.cgraph()) {
    if (service != nullptr) {
      WriteService(w, *service,
                   options.trace_file.empty() ? ArrivalPatternName(options.trace.pattern)
                                              : "file");
    } else {
      WriteAdmission(w, report, engine_options.admission_policy);
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

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  FlagSet flags(
      "cgraph_cli — concurrent iterative graph processing (CGraph reproduction)\n");
  RegisterFlags(flags, options);
  const Status parsed = flags.Parse(argc, argv);
  if (parsed.ok() && flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  const Status status = parsed.ok() ? CheckCombinations(options, flags) : parsed;
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 2;
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
    edges = GenerateRmat(options.rmat);
  }
  if (options.source != kInvalidVertex && options.source >= edges.num_vertices()) {
    std::fprintf(stderr, "error: --source=%u is out of range: the graph has %u vertices\n",
                 options.source, edges.num_vertices());
    return 2;
  }
  const VertexId source =
      options.source == kInvalidVertex ? PickSourceVertex(edges) : options.source;

  options.partition.core_subgraph = options.system != "cgraph-without";
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, options.partition);
  std::printf("graph: %u vertices, %zu edges, %u partitions (replication %.2f)\n",
              edges.num_vertices(), edges.num_edges(), graph.num_partitions(),
              graph.replication_factor());

  EngineOptions& engine_options = options.engine;
  engine_options.partitioner = options.partition.partitioner;
  engine_options.use_scheduler = options.system != "cgraph-without";

  if (options.serve) {
    std::vector<ServiceRequest> trace;
    if (!options.trace_file.empty()) {
      if (!LoadTrace(options.trace_file, &trace)) {
        std::fprintf(stderr, "error: cannot load trace from '%s'\n",
                     options.trace_file.c_str());
        return 1;
      }
    } else {
      options.trace.sources = PickSourcePool(edges, options.trace_sources);
      trace = GenerateArrivalTrace(options.trace);
    }
    if (!options.trace_out.empty() && !SaveTrace(trace, options.trace_out)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   options.trace_out.c_str());
      return 1;
    }

    LtpEngine engine(&graph, engine_options);
    ServiceDriver driver(&engine, options.service);
    const ServiceReport sreport = driver.Run(trace);
    std::printf("system: %s daemon, %u workers, %s trace\n\n", options.system.c_str(),
                engine_options.num_workers,
                options.trace_file.empty() ? ArrivalPatternName(options.trace.pattern)
                                           : options.trace_file.c_str());
    std::printf("requests     %" PRIu64 " (%" PRIu64 " completed, %" PRIu64
                " shed, %" PRIu64 " coalesced, %" PRIu64 " failed)\n",
                sreport.total_requests, sreport.completed_requests, sreport.shed_requests,
                sreport.coalesced_requests, sreport.failed_requests);
    std::printf("jobs         %" PRIu64 " submitted, %" PRIu64 " executed, %" PRIu64
                " shed while queued\n",
                sreport.submitted_jobs, sreport.executed_jobs, sreport.shed_jobs);
    if (options.service.retry_limit > 0 || sreport.failed_jobs > 0 ||
        sreport.cancelled_jobs > 0) {
      std::printf("retries      %" PRIu64 " failed, %" PRIu64 " cancelled mid-run; %" PRIu64
                  " resubmitted, %" PRIu64 " resumed from checkpoints\n",
                  sreport.failed_jobs, sreport.cancelled_jobs, sreport.retried_jobs,
                  sreport.recovered_jobs);
    }
    std::printf("latency      p50 %.0f, p95 %.0f, p99 %.0f, mean %.1f, max %.0f steps\n",
                sreport.p50_latency_steps, sreport.p95_latency_steps,
                sreport.p99_latency_steps, sreport.mean_latency_steps,
                sreport.max_latency_steps);
    std::printf("throughput   %.2f completed requests/s over %.2fs wall (%" PRIu64
                " steps)\n\n",
                sreport.sustained_jobs_per_second, sreport.wall_seconds,
                sreport.final_step);
    const RunReport engine_report = engine.Report();
    if (!options.values_out.empty() && !WriteFinalValues(engine, options.values_out)) {
      std::fprintf(stderr, "error: cannot write values to '%s'\n",
                   options.values_out.c_str());
      return 1;
    }
    return WriteReportIfRequested(options, edges, graph, engine_report,
                                  engine.faults_fired(), source, &sreport);
  }

  RunReport report;
  size_t faults_fired = 0;
  if (options.cgraph()) {
    LtpEngine engine(&graph, engine_options);
    // Service API, not the legacy AddJob: up-front jobs beyond --max-jobs queue for
    // admission instead of tripping the batch wrapper's capacity CHECK.
    for (const auto& name : options.trace.programs) {
      engine.Submit(MakeProgram(name, source));
    }
    // Online submissions ride the service API: each arrival becomes runnable after its
    // scheduling step and queues behind max_jobs if the engine is saturated.
    for (const auto& arrival : options.arrivals) {
      engine.SubmitAt(MakeProgram(arrival.program, source), arrival.arrival_step);
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
    const std::string& s = options.system;
    bopts.system = s == "sequential" ? BaselineSystem::kSequential
                   : s == "seraph"   ? BaselineSystem::kSeraph
                   : s == "seraph-vt" ? BaselineSystem::kSeraphVt
                   : s == "nxgraph"  ? BaselineSystem::kNxgraph
                                     : BaselineSystem::kClip;
    BaselineExecutor executor(&graph, bopts);
    for (const auto& name : options.trace.programs) {
      executor.AddJob(MakeProgram(name, source));
    }
    report = executor.Run();
  }

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
  return WriteReportIfRequested(options, edges, graph, report, faults_fired, source,
                                nullptr);
}
