// Ablation: straggler splitting (paper section 3.2.3, Fig. 6).
//
// With splitting on, a trigger's vertex ranges are consumed by whichever workers come
// free; with a chunk grain of at least the partition size, each (job, partition) trigger
// is one task and a skewed job becomes the straggler. Modeled time is identical by
// construction (same work), so this ablation reports *wall-clock* trigger time, where the
// imbalance is real.

#include <cstdint>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/timer.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  auto env = bench::BenchEnv::FromArgs(argc, argv);

  const auto specs = bench::BenchDatasets(env);
  const auto& spec = specs.back();
  const bench::PreparedDataset ds = bench::Prepare(spec, env);

  std::printf("== Ablation: straggler splitting on %s (%u workers, wall seconds) ==\n\n",
              spec.name.c_str(), env.workers);
  TablePrinter table({"Configuration", "Wall seconds", "Speedup"});
  double base = 0.0;
  for (const bool split : {false, true}) {
    EngineOptions options = env.Engine();
    if (!split) {
      options.chunk_grain = UINT32_MAX;  // One chunk, so one task, per (job, partition).
    }
    // Repeat to stabilize the wall measurement.
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      LtpEngine engine(&ds.graph, options);
      bench::AddMixJobs(engine, ds, env.jobs);
      WallTimer timer;
      engine.Run();
      best = std::min(best, timer.ElapsedSeconds());
    }
    if (base == 0.0) {
      base = best;
    }
    table.AddRow({split ? "dynamic chunks (paper)" : "one task per job",
                  FormatDouble(best, 3), bench::Norm(base, best) + "x"});
  }
  table.Print();
  return 0;
}
