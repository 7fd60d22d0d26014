// The repo benchmark: runs one workload of benchmark/workloads.h end to end and reports
// its metrics (see benchmark/README.md).
//
//   cgraph_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// This is the form the benchmark harness calls, with --seconds set to BENCHMARK.json's
// run_seconds. A run covers kInputs inputs of the workload, each an R-MAT graph (and, on
// the service workload, a trace) of its own seed derived from --seed, one after the
// other. It sets each input up several times (setup_s is the median over all of them),
// runs one untimed warm-up round on the first, then timed rounds on fresh engines until
// each input's share of --seconds of round wall time has been measured. A round metric
// is the mean over the inputs of the input's median over its rounds, so it does not rest
// on the shape of one graph.
// With --trace 1, traced rounds alternate with the untraced ones, one extra traced round
// runs at the other worker count on the first input, and the spans are written as a
// Chrome trace under .bench_build/traces/.
//
// Output: one `workload metric value unit` line per metric, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metrics are the
// end-to-end set (untraced run) or the per-layer set (--trace). The same record, with
// every metric, lands under .bench_build/results/. Exit status: 0 when every output and
// determinism check passed, 1 when one failed, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/spans.h"
#include "benchmark/workloads.h"
#include "src/common/timer.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/metrics/latency_reservoir.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph_bench {
namespace {

constexpr const char* kOutDir = ".bench_build";

// Inputs per run. Input k of seed s is seeded kInputs * s + k, so the inputs of two seeds
// never overlap.
constexpr uint64_t kInputs = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseUint(const std::string& s, uint64_t* out) {
  const char* end = s.data() + s.size();
  return !s.empty() && std::from_chars(s.data(), end, *out).ptr == end;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args->smoke = true;
      continue;
    }
    const std::string value = i + 1 < argc ? argv[++i] : "";
    uint64_t n = 0;
    if (key == "--workload" && !value.empty()) {
      args->workload = value;
    } else if (key == "--seed" && ParseUint(value, &n)) {
      args->seed = n;
    } else if (key == "--seconds" && ParseUint(value, &n) && n > 0) {
      args->seconds = static_cast<double>(n);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else {
      std::fprintf(stderr, "error: bad argument '%s %s'\n", key.c_str(), value.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// The service daemon's nearest-rank percentile, exact because the reservoir holds every
// sample.
double Percentile(const std::vector<double>& v, double p) {
  cgraph::LatencyReservoir reservoir(std::max<size_t>(1, v.size()));
  for (const double x : v) {
    reservoir.Add(x);
  }
  return reservoir.Percentile(p);
}

// The cost of recording one span, timed over a burst of them. The burst runs hot in
// cache, so this is a lower bound.
double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  Tracer probe;
  cgraph::WallTimer clock;
  for (int i = 0; i < kSpans; ++i) {
    probe.Close(probe.Open("bench.probe", kNone));
  }
  return clock.ElapsedSeconds() / kSpans;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string Number(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), std::isfinite(x) ? x : 0.0);
  return std::string(buf, res.ptr);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += (out.size() > 1 ? ", \"" : "\"") + std::string(m.name) + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

// Names and values of the fields where `got` differs from `want`.
std::string ExactDiff(const Exact& got, const Exact& want) {
  std::string out;
  auto field = [&](const char* name, double g, double w) {
    if (g != w) {
      out += std::string(" ") + name + " " + Number(g) + " (first round " + Number(w) + ")";
    }
  };
  field("steps", static_cast<double>(got.steps), static_cast<double>(want.steps));
  field("compute_units", static_cast<double>(got.compute_units),
        static_cast<double>(want.compute_units));
  field("wait_steps", static_cast<double>(got.wait_steps), static_cast<double>(want.wait_steps));
  field("modeled_makespan", got.modeled_makespan, want.modeled_makespan);
  field("latency_p50_steps", got.latency_p50_steps, want.latency_p50_steps);
  field("latency_p99_steps", got.latency_p99_steps, want.latency_p99_steps);
  if (got.values_digest != want.values_digest) {
    out += " values_digest";
  }
  return out;
}

// One input's graph, built several times over for the set-up time.
struct Setup {
  std::optional<cgraph::EdgeList> edges;
  std::optional<cgraph::PartitionedGraph> graph;
  std::vector<double> seconds;  // One per repeat.
};

// Generates, partitions and constructs an engine at least twice and for at least a
// quarter second, so that a run of kInputs inputs sets up at least 8 times and for at
// least a second, and small graphs get enough repeats for a steady median.
Setup SetUp(const Workload& w, bool smoke, Tracer* tracer) {
  Setup s;
  double total_s = 0.0;
  const int64_t span = tracer != nullptr ? tracer->Open("bench.setup", kNone) : kNone;
  while (s.seconds.empty() ||
         (!smoke && (s.seconds.size() < 2 || total_s < 0.25) && s.seconds.size() < 12)) {
    s.graph.reset();
    s.edges.reset();
    cgraph::WallTimer clock;
    s.edges.emplace(Traced(tracer, "graph.generate", span, kNone,
                           [&] { return cgraph::GenerateRmat(w.rmat); }));
    s.graph.emplace(Traced(tracer, "partition.build", span, kNone, [&] {
      return cgraph::PartitionedGraphBuilder::Build(*s.edges, w.partition);
    }));
    Traced(tracer, "core.engine_init", span, kNone,
           [&] { cgraph::LtpEngine engine(&*s.graph, w.engine); });
    s.seconds.push_back(clock.ElapsedSeconds());
    total_s += s.seconds.back();
  }
  if (tracer != nullptr) {
    tracer->Close(span);
  }
  return s;
}

struct Rounds {
  std::optional<RoundResult> warm_up;
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::optional<RoundResult> other_workers;  // Traced, at the other worker count.
  double measured_s = 0.0;                   // Wall time of the timed rounds.
};

// Runs one input's timed rounds, at least one of each kind, until `budget_s` of round
// wall time is measured. The first input runs the run's warm-up round before them and,
// on the traced run, the round at the other worker count after them. Later inputs need
// no warm-up: their first rounds measured no slower than the rest.
Rounds RunRounds(const Workload& w, const cgraph::PartitionedGraph& graph,
                 const References& refs, bool smoke, bool first_input, double budget_s,
                 Tracer* tracer) {
  const uint32_t workers = w.engine.num_workers;
  Rounds rounds;
  if (!smoke && first_input) {
    rounds.warm_up = RunRound(w, graph, workers, refs, nullptr);
  }
  while (rounds.untraced.empty() || (tracer != nullptr && rounds.traced.empty()) ||
         (!smoke && rounds.measured_s < budget_s)) {
    const bool traced = tracer != nullptr && rounds.traced.size() < rounds.untraced.size();
    std::vector<RoundResult>& into = traced ? rounds.traced : rounds.untraced;
    into.push_back(RunRound(w, graph, workers, refs, traced ? tracer : nullptr));
    rounds.measured_s += into.back().wall_s;
  }
  if (tracer != nullptr && first_input) {
    rounds.other_workers = RunRound(w, graph, workers == 1 ? 3 : 1, refs, tracer);
  }
  return rounds;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
};

// Adds the attempts and failures of every round of one input to `t`. A round that does
// not reproduce the input's first timed round's exact values counts all its requests as
// failed.
void Check(const Workload& w, const Rounds& rounds, Tally* t) {
  std::vector<const RoundResult*> all;
  for (const auto* r : {&rounds.warm_up, &rounds.other_workers}) {
    if (r->has_value()) {
      all.push_back(&**r);
    }
  }
  for (const auto* v : {&rounds.untraced, &rounds.traced}) {
    for (const RoundResult& r : *v) {
      all.push_back(&r);
    }
  }
  const Exact& want = rounds.untraced.front().exact;
  for (const RoundResult* r : all) {
    t->attempted += r->attempted;
    if (r->exact == want) {
      t->failed += r->failed;
      continue;
    }
    t->failed += r->attempted;
    t->deterministic = false;
    std::fprintf(stderr, "error: %s (seed %llu): a round's exact values differ:%s\n",
                 w.name.c_str(), static_cast<unsigned long long>(w.rmat.seed),
                 ExactDiff(r->exact, want).c_str());
  }
}

// One input's end-to-end metrics but setup_s and peak_rss_mib, from its untraced rounds:
// per-round values, then their median. A latency percentile is taken within each round
// first, so that it never lands on the edge between two jobs whose latencies differ by
// much more than the round-to-round noise. The entries after the first three are printed
// but not gated.
std::vector<Metric> RoundMetrics(const Workload& w, const Rounds& rounds) {
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (const RoundResult& r : rounds.untraced) {
    walls.push_back(r.wall_s);
    rates.push_back(static_cast<double>(r.latency_s.size()) / r.wall_s);
    p50s.push_back(Percentile(r.latency_s, 50));
    p90s.push_back(Percentile(r.latency_s, 90));
  }
  const Exact& exact = rounds.untraced.front().exact;
  std::vector<Metric> out = {
      {"requests_per_s", Median(rates), "1/s"},
      {"latency_p50_ms", 1e3 * Median(p50s), "ms"},
      {"latency_p90_ms", 1e3 * Median(p90s), "ms"},
      {"modeled_makespan", exact.modeled_makespan, "modeled_units"},
      {"round_wall_s", Median(walls), "s"},
  };
  if (w.service) {
    out.push_back({"request_latency_p50_steps", exact.latency_p50_steps, "steps"});
    out.push_back({"request_latency_p99_steps", exact.latency_p99_steps, "steps"});
  }
  return out;
}

// The mean over the inputs of each metric; every input lists the same metrics.
std::vector<Metric> MeanOverInputs(const std::vector<std::vector<Metric>>& per_input) {
  std::vector<Metric> mean = per_input.front();
  for (size_t i = 0; i < mean.size(); ++i) {
    double sum = 0.0;
    for (const std::vector<Metric>& input : per_input) {
      sum += input[i].value;
    }
    mean[i].value = sum / static_cast<double>(per_input.size());
  }
  return mean;
}

// How much faster the first input's rounds run at 3 workers than at 1: its traced rounds
// against its round at the other worker count.
double Speedup(const Workload& w, const Rounds& rounds) {
  std::vector<double> walls;
  for (const RoundResult& r : rounds.traced) {
    walls.push_back(r.wall_s);
  }
  const double other_wall_s = rounds.other_workers->wall_s;
  return w.engine.num_workers == 1 ? Median(walls) / other_wall_s
                                   : other_wall_s / Median(walls);
}

// One input's per-layer metrics, from its traced rounds, its graph and its first timed
// round's report.
std::vector<Metric> LayerMetrics(const Setup& setup, const Rounds& rounds, double reference_s,
                                 const Tracer& tracer) {
  std::vector<double> submit_s;
  std::vector<double> step_s;
  std::vector<double> harness_s;
  std::vector<double> replay_s;
  std::vector<double> step_us;
  std::vector<double> overhead;
  for (size_t i = 0; i < rounds.traced.size(); ++i) {
    const RoundResult& r = rounds.traced[i];
    submit_s.push_back(tracer.ChildSeconds(r.span, "core.submit"));
    step_s.push_back(tracer.ChildSeconds(r.span, "core.step"));
    replay_s.push_back(tracer.ChildSeconds(r.span, "service.run"));
    harness_s.push_back(tracer.SelfSeconds(r.span));
    for (const Span& s : tracer.spans()) {
      if (s.parent == r.span && std::strcmp(s.name, "core.step") == 0) {
        step_us.push_back(s.dur_s * 1e6);
      }
    }
    // Each traced round runs right after the untraced round it is paired with.
    overhead.push_back(r.wall_s / rounds.untraced[i].wall_s - 1.0);
  }
  const RoundResult& first = rounds.untraced.front();
  const cgraph::RunReport& report = first.report;
  uint64_t iterations = 0;
  uint64_t edge_traversals = 0;
  uint64_t push_updates = 0;
  uint64_t redrain = 0;
  uint64_t deferred = 0;
  uint64_t wait_max = 0;
  for (const cgraph::JobStats& s : report.jobs) {
    iterations += s.iterations;
    edge_traversals += s.edge_traversals;
    push_updates += s.push_updates;
    redrain += s.redrain_computes;
    deferred += s.deferred_pushes;
    wait_max = std::max(wait_max, s.wait_steps);
  }
  const cgraph::ServiceReport& service = first.service;
  return {
      {"partition.replication_factor", setup.graph->replication_factor(), "ratio"},
      {"core.submit_s", Median(submit_s), "s"},
      {"core.step_s", Median(step_s), "s"},
      {"core.steps", static_cast<double>(first.exact.steps), "count"},
      {"core.step_p50_us", Percentile(step_us, 50), "us"},
      {"core.step_p99_us", Percentile(step_us, 99), "us"},
      {"core.step_max_ms", Percentile(step_us, 100) / 1e3, "ms"},
      {"core.harness_s", Median(harness_s), "s"},
      {"core.iterations", static_cast<double>(iterations), "count"},
      {"core.compute_units", static_cast<double>(first.exact.compute_units), "count"},
      {"core.edge_traversals", static_cast<double>(edge_traversals), "count"},
      {"core.push_updates", static_cast<double>(push_updates), "count"},
      {"core.modeled_makespan", first.exact.modeled_makespan, "modeled_units"},
      {"core.admission.wait_steps_mean",
       static_cast<double>(first.exact.wait_steps) /
           static_cast<double>(std::max<size_t>(1, report.jobs.size())),
       "steps"},
      {"core.admission.wait_steps_max", static_cast<double>(wait_max), "steps"},
      {"core.async.redrain_computes", static_cast<double>(redrain), "count"},
      {"core.async.deferred_pushes", static_cast<double>(deferred), "count"},
      {"cache.miss_rate", report.cache.miss_rate(), "fraction"},
      {"cache.miss_bytes", static_cast<double>(report.cache.miss_bytes), "bytes"},
      {"cache.disk_bytes", static_cast<double>(report.memory.disk_bytes), "bytes"},
      {"cache.evictions", static_cast<double>(report.cache.evictions), "count"},
      {"service.replay_s", Median(replay_s), "s"},
      {"service.s_per_executed_job",
       Median(replay_s) / static_cast<double>(std::max<uint64_t>(1, service.executed_jobs)),
       "s"},
      {"service.executed_jobs", static_cast<double>(service.executed_jobs), "count"},
      {"service.dedup_ratio", service.dedup_ratio, "fraction"},
      {"service.final_step", static_cast<double>(service.final_step), "steps"},
      {"service.request_latency_p50_steps", first.exact.latency_p50_steps, "steps"},
      {"service.request_latency_p99_steps", first.exact.latency_p99_steps, "steps"},
      {"algorithms.reference_s", reference_s, "s"},
      {"bench.trace_overhead_frac", Median(overhead), "fraction"},
  };
}

int Run(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::optional<Tracer> tracer_storage;
  if (args.trace) {
    tracer_storage.emplace();
  }
  Tracer* tracer = args.trace ? &*tracer_storage : nullptr;

  // The inputs, one at a time, so that only one graph is held at once. Input k stops once
  // the run has measured k + 1 shares of --seconds, so that one input's last round
  // running over its share shortens the next input's.
  const uint64_t inputs = args.smoke ? 1 : kInputs;
  std::vector<double> setup_s;
  std::vector<std::vector<Metric>> round_metrics;
  std::vector<std::vector<Metric>> layer_metrics;
  std::vector<std::pair<int64_t, double>> traced_rounds;  // Span and wall of each.
  double speedup = 0.0;
  double measured_s = 0.0;
  size_t rounds_run = 0;
  size_t latency_samples = 0;
  Tally tally;
  for (uint64_t k = 0; k < inputs; ++k) {
    MakeWorkload(args.workload, kInputs * args.seed + k, &w);
    const Setup setup = SetUp(w, args.smoke, tracer);
    setup_s.insert(setup_s.end(), setup.seconds.begin(), setup.seconds.end());
    AddJobs(*setup.edges, &w);
    cgraph::WallTimer reference_clock;
    const References refs(*setup.edges, w);
    const double reference_s = reference_clock.ElapsedSeconds();
    const double budget_s =
        args.seconds * static_cast<double>(k + 1) / static_cast<double>(inputs) - measured_s;
    const Rounds rounds =
        RunRounds(w, *setup.graph, refs, args.smoke, k == 0, budget_s, tracer);
    measured_s += rounds.measured_s;
    Check(w, rounds, &tally);
    round_metrics.push_back(RoundMetrics(w, rounds));
    rounds_run += rounds.untraced.size();
    for (const RoundResult& r : rounds.untraced) {
      latency_samples += r.latency_s.size();
    }
    if (tracer != nullptr) {
      layer_metrics.push_back(LayerMetrics(setup, rounds, reference_s, *tracer));
      for (const RoundResult& r : rounds.traced) {
        traced_rounds.emplace_back(r.span, r.wall_s);
      }
      if (k == 0) {
        speedup = Speedup(w, rounds);
      }
    }
  }
  const double peak_rss_mib = PeakRssMib();
  const bool correct = tally.failed == 0 && tally.deterministic;

  // End-to-end metrics: setup_s over every set-up of every input, the round metrics as
  // the mean over the inputs.
  const std::vector<Metric> per_round = MeanOverInputs(round_metrics);
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"}, per_round[0], per_round[1], per_round[2],
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), per_round.begin() + 3, per_round.end());
  all.insert(all.end(), {
      {"failed_frac",
       static_cast<double>(tally.failed) / static_cast<double>(tally.attempted), "fraction"},
      {"latency_samples", static_cast<double>(latency_samples), "count"},
      {"rounds", static_cast<double>(rounds_run), "count"},
      {"inputs", static_cast<double>(inputs), "count"},
  });
  std::vector<Metric> per_layer;
  if (tracer != nullptr) {
    // A diagnostic for bench.trace_overhead_frac, whose round-to-round noise can exceed
    // the overhead itself: the spans of the traced rounds times the cost of one span.
    const double span_s = SpanCostSeconds();
    std::vector<double> span_cost;
    for (const auto& [span, wall_s] : traced_rounds) {
      const auto children = std::count_if(tracer->spans().begin(), tracer->spans().end(),
                                          [&](const Span& s) { return s.parent == span; });
      span_cost.push_back(static_cast<double>(children + 1) * span_s / wall_s);
    }
    all.push_back({"bench.span_cost_frac", Median(span_cost), "fraction"});
    per_layer = {
        {"graph.generate_s", Median(tracer->Durations("graph.generate")), "s"},
        {"partition.build_s", Median(tracer->Durations("partition.build")), "s"},
        {"core.engine_init_s", Median(tracer->Durations("core.engine_init")), "s"},
        {"runtime.speedup_w3_over_w1", speedup, "ratio"},
    };
    const std::vector<Metric> mean = MeanOverInputs(layer_metrics);
    per_layer.insert(per_layer.end(), mean.begin(), mean.end());
    all.insert(all.end(), per_layer.begin(), per_layer.end());
  }

  for (const Metric& m : all) {
    std::printf("%s %s %s %s\n", w.name.c_str(), m.name, Number(m.value).c_str(), m.unit);
  }
  const std::string summary = "{\"correct\": " + std::string(correct ? "true" : "false") +
                              ", \"attempted\": " + std::to_string(tally.attempted) +
                              ", \"failed\": " + std::to_string(tally.failed) +
                              ", \"metrics\": " +
                              MetricsJson(args.trace ? per_layer : end_to_end) + "}";

  // Files: the results record and, with --trace, the Chrome trace.
  namespace fs = std::filesystem;
  const std::string stem = w.name + "-seed" + std::to_string(args.seed);
  std::error_code ec;
  fs::create_directories(fs::path(kOutDir) / "results", ec);
  const fs::path results =
      fs::path(kOutDir) / "results" / (stem + (args.trace ? "-trace.json" : ".json"));
  bool files_ok = false;
  if (std::FILE* f = std::fopen(results.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, \"summary\": %s, "
                 "\"all_metrics\": %s}\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.smoke ? "true" : "false", summary.c_str(), MetricsJson(all).c_str());
    files_ok = std::fclose(f) == 0;
  }
  if (tracer != nullptr) {
    fs::create_directories(fs::path(kOutDir) / "traces", ec);
    files_ok = files_ok &&
               tracer->WriteChromeTrace((fs::path(kOutDir) / "traces" / (stem + ".json")).string());
  }
  if (!files_ok) {
    std::fprintf(stderr, "error: cannot write under %s\n", kOutDir);
  }
  std::printf("%s\n", summary.c_str());
  return correct && files_ok ? 0 : 1;
}

}  // namespace
}  // namespace cgraph_bench

int main(int argc, char** argv) {
  cgraph_bench::Args args;
  if (!cgraph_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cgraph_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke]\n");
    return 2;
  }
  return cgraph_bench::Run(args);
}
