// Per-job and per-run measurement containers produced by every executor.

#ifndef SRC_METRICS_RUN_REPORT_H_
#define SRC_METRICS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_sim.h"
#include "src/cache/memory_hierarchy.h"
#include "src/metrics/cost_model.h"
#include "src/partition/partition_quality.h"

namespace cgraph {

struct JobStats {
  std::string job_name;
  uint64_t iterations = 0;
  uint64_t vertex_computes = 0;   // Vertices processed (Compute calls).
  uint64_t edge_traversals = 0;   // Scatter operations issued.
  uint64_t push_updates = 0;      // Mirror->master + master->mirror sync records.
  uint64_t compute_units = 0;     // Edge traversals + vertex computes + sync records.
  AccessCharge charge;            // Byte flows attributed to this job.
  double wall_seconds = 0.0;
  // Admission diagnostics (not part of the CSV schema): scheduling steps between the job
  // becoming runnable and its admission, and the overlap score the admission policy
  // assigned at admit time. admit_scored separates "scored zero" from "never scored":
  // it is false under FIFO and for *uncontended* admissions (a lone due candidate is
  // admitted without scoring — footprints are computed lazily, only for decisions with
  // competitors), where admit_overlap's 0 carries no information and aggregations must
  // skip the job.
  uint64_t wait_steps = 0;
  double admit_overlap = 0.0;
  bool admit_scored = false;
  // Service-daemon diagnostics (not part of the CSV schema; see docs/service.md).
  // finish_step is the scheduling step at which the job completed (or was shed) —
  // completion_latency = finish_step - (arrival_step + wait is already folded in via the
  // caller's arrival). coalesced_callers counts *additional* requests multiplexed onto
  // this job by query fan-in (0 = sole caller). deadline_step is the absolute step after
  // which a still-waiting job may be shed (0 = no deadline). shed marks a job cancelled
  // while waiting: it never held a slot, never computed, and its zeros must not be
  // aggregated as real work.
  uint64_t finish_step = 0;
  uint32_t coalesced_callers = 0;
  uint64_t deadline_step = 0;
  bool shed = false;
  // Async-execution diagnostics (not part of the CSV schema; see
  // docs/execution_modes.md). async_execution marks jobs that actually ran under the
  // relaxed iteration model (mode async AND staleness > 0 AND program monotonic) — the
  // flag to check when asserting a job was, or was not, affected by --execution=async.
  // redrain_computes counts Compute calls issued by the trigger stage's intra-iteration
  // master re-drain (a subset of vertex_computes); deferred_pushes counts
  // master->mirror records withheld at deferred push boundaries by the staleness window
  // (each fresh master delta counts its mirror fan-out once, when it is folded into the
  // deferred window).
  bool async_execution = false;
  uint64_t redrain_computes = 0;
  uint64_t deferred_pushes = 0;
  // Robustness diagnostics (not part of the CSV schema; see docs/robustness.md).
  // failed marks a job retired through per-job failure isolation (stage error or injected
  // fault) — fail_message carries the Status that killed it; cancelled marks a mid-run
  // cancellation (Cancel(JobId) or a --job-step-budget expiry). Both are terminal the
  // same way shed is: the job holds no slot and FinalValues-readback is invalid for it.
  // recoveries counts checkpoint restarts this job has been through (a restored job's
  // other counters resume from the checkpoint snapshot, so a recovered run reports the
  // same compute totals as an undisturbed one). checkpoints_taken / checkpoint_bytes
  // account the snapshot work — checkpoints add no hierarchy charge (modeled CSVs stay
  // byte-identical with checkpointing on), so their modeled cost is derived from
  // checkpoint_bytes at the cost model's memory-byte rate instead.
  bool failed = false;
  bool cancelled = false;
  uint32_t recoveries = 0;
  std::string fail_message;
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;

  double ModeledComputeTime(const CostModel& model, uint32_t workers) const {
    return model.ComputeCost(compute_units) / std::max<uint32_t>(1, workers);
  }
  double ModeledAccessTime(const CostModel& model, uint32_t workers) const {
    const uint32_t channels =
        std::max<uint32_t>(1, std::min(workers, model.bandwidth_channels));
    return model.AccessCost(charge) / channels;
  }
  double ModeledTime(const CostModel& model, uint32_t workers) const {
    return ModeledComputeTime(model, workers) + ModeledAccessTime(model, workers);
  }
};

struct RunReport {
  std::string executor_name;
  uint32_t workers = 1;
  std::vector<JobStats> jobs;
  CacheStats cache;
  MemoryStats memory;
  double wall_seconds = 0.0;
  // Layout-quality record of the graph the run executed on (copied from
  // PartitionedGraph::quality() by Report(); not part of the CSV schema — surfaced in
  // the `partition` object of cgraph_cli --report-json and the bench record).
  PartitionQuality partition;

  // The report's "total" row: every per-job counter summed, with the run's wall clock.
  JobStats Total() const {
    JobStats total;
    total.job_name = "total";
    for (const JobStats& job : jobs) {
      total.iterations += job.iterations;
      total.vertex_computes += job.vertex_computes;
      total.edge_traversals += job.edge_traversals;
      total.push_updates += job.push_updates;
      total.compute_units += job.compute_units;
      total.charge += job.charge;
    }
    total.wall_seconds = wall_seconds;
    return total;
  }

  uint64_t TotalComputeUnits() const {
    uint64_t total = 0;
    for (const auto& j : jobs) {
      total += j.compute_units;
    }
    return total;
  }

  AccessCharge TotalCharge() const {
    AccessCharge total;
    for (const auto& j : jobs) {
      total += j.charge;
    }
    return total;
  }

  // Modeled makespan of the whole run. A single job cannot hide its own data-access
  // latency behind its own compute (dependencies), but concurrent jobs overlap: while one
  // stalls on memory/disk, others compute. With n jobs, only ~1/n of the smaller
  // component remains unhidden — this is the paper's observation that the sequential way
  // leaves the CPU underutilized while the concurrent way overlaps stalls with work.
  double ModeledMakespan(const CostModel& model) const {
    const uint32_t w = std::max<uint32_t>(1, workers);
    const uint32_t channels = std::max<uint32_t>(1, std::min(w, model.bandwidth_channels));
    const double compute = model.ComputeCost(TotalComputeUnits()) / w;
    const double access = model.AccessCost(TotalCharge()) / channels;
    const double n = static_cast<double>(std::max<size_t>(1, jobs.size()));
    return std::max(compute, access) + std::min(compute, access) / n;
  }

  // Fraction of the makespan the cores spend computing — the paper's "utilization ratio
  // of CPU" (Fig. 15): long unhidden data stalls leave cores idle.
  double CpuUtilization(const CostModel& model) const {
    const double compute = model.ComputeCost(TotalComputeUnits()) / std::max<uint32_t>(1, workers);
    const double total = ModeledMakespan(model);
    return total <= 0.0 ? 1.0 : compute / total;
  }

  // Total bytes moved below the LLC (memory + disk), the basis of Fig. 19's
  // "spared accesses" ratio.
  uint64_t BytesBelowCache() const {
    const AccessCharge total = TotalCharge();
    return total.mem_bytes + total.disk_bytes;
  }
};

}  // namespace cgraph

#endif  // SRC_METRICS_RUN_REPORT_H_
