// The graph-service daemon: a long-running driver that replays arrival traces through
// the LTP engine under production service policies.
//
// The engine's service API (Submit/SubmitAt/Step) executes whatever it is given; a
// *service* in front of it must also decide what NOT to execute. The ServiceDriver adds
// the three admission-control behaviors of a production daemon (ISSUE: daemon mode,
// docs/service.md):
//
//   backpressure — the waiting queue is bounded (queue_bound); a request arriving to a
//                  full queue is shed at the door instead of growing the queue without
//                  limit. Running jobs are never affected.
//   deadlines    — each admitted request carries a queue-wait deadline
//                  (arrival + deadline_steps); a job still waiting for a slot past its
//                  deadline is shed (JobManager::CancelWaiting). Deadlines bound queue
//                  wait, not execution: a job that starts always runs to convergence.
//   query fan-in — a request identical to an in-flight one (same coalesce key,
//                  src/service/request_table.h) attaches to the existing job instead of
//                  submitting a duplicate: one execution, N completions, converged values
//                  shared by every caller at readback. Attaching bypasses the queue
//                  bound — it adds no work.
//
// Latency is measured in the repo's determinism currency, *scheduling steps*: a request's
// completion latency is finish_step - arrival_step, identical across runs and worker
// counts, so p50/p95/p99 are reproducible numbers CI can gate on. Wall-clock enters only
// through the sustained-throughput figure (completed requests / wall second), which is
// the one hardware-dependent output.
//
// The driver is deliberately a pure consumer of the engine's public API plus the three
// service hooks (NumWaiting/CancelWaiting/MutableStats): with coalescing off, deadlines
// off, and the queue unbounded it degenerates to a SubmitAt replay whose modeled
// execution is byte-identical to driving the engine directly.

#ifndef SRC_SERVICE_DAEMON_H_
#define SRC_SERVICE_DAEMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_sim.h"
#include "src/common/thread_annotations.h"
#include "src/core/ltp_engine.h"
#include "src/metrics/latency_reservoir.h"
#include "src/service/request_table.h"
#include "src/service/trace_gen.h"

namespace cgraph {

// Retry bounds: with retry_limit <= kMaxRetryLimit and retry_backoff <= kMaxRetryBackoff
// the summed backoff, retry_backoff * (2^retry_limit - 1), stays below 2^63 steps, so no
// retry step can wrap.
inline constexpr uint32_t kMaxRetryLimit = 32;
inline constexpr uint64_t kMaxRetryBackoff = uint64_t{1} << 31;
// Deadline bound: a deadline is an arrival or retry step plus deadline_steps, so with
// deadline_steps <= kMaxDeadlineSteps it cannot wrap for any step the retry bounds
// allow. A wrapped deadline would land before its arrival and shed the job at once.
inline constexpr uint64_t kMaxDeadlineSteps = uint64_t{1} << 31;
// Arrival bound: the latest step a request reaches is its arrival plus the summed retry
// backoff (below 2^63 under the retry bounds) plus deadline_steps (at most 2^31). With
// arrivals at most kMaxArrivalStep that stays below 2^62 + 2^63 + 2^31 < 2^64, so
// neither the engine's step counter nor a deadline wraps.
inline constexpr uint64_t kMaxArrivalStep = uint64_t{1} << 62;

// Job-id bound: ids are 16-bit cache owners below kSharedOwner, and each request may run
// as a job that each retry may resubmit as a new one.
constexpr bool TraceFitsJobIds(uint64_t requests, uint32_t retry_limit) {
  return requests * (uint64_t{1} + retry_limit) <= kSharedOwner;
}

struct ServiceOptions {
  // Maximum jobs waiting for admission before arrivals shed at the door; 0 = unbounded.
  size_t queue_bound = 64;
  // Queue-wait deadline in scheduling steps (a job still *waiting* more than this many
  // steps past its arrival is shed); 0 = no deadlines, at most kMaxDeadlineSteps.
  uint64_t deadline_steps = 0;
  // Query fan-in on/off (off: every request submits its own job).
  bool coalesce = true;
  // Latency-reservoir shape (exact percentiles while a trace fits the capacity).
  size_t reservoir_capacity = 4096;
  uint64_t reservoir_seed = 42;
  // k for kcore/khop programs instantiated from trace requests.
  uint32_t k = 4;
  // Retry-with-backoff for jobs that terminate abnormally (docs/robustness.md): a
  // deadline-shed, failed, or mid-run-cancelled job is retried up to retry_limit times,
  // re-arriving retry_backoff << attempt steps after the abort (deterministic exponential
  // backoff in scheduling steps). A job with a checkpoint resumes from it
  // (RestartFromCheckpoint, same JobId); one without is resubmitted fresh from its
  // representative request. Door sheds stay final immediate rejections — backpressure
  // means the service is telling callers to go away *now*. 0 = no retries; at most
  // kMaxRetryLimit.
  uint32_t retry_limit = 0;
  // Base backoff in scheduling steps (doubled per attempt). Must be in
  // [1, kMaxRetryBackoff] when retry_limit > 0.
  uint64_t retry_backoff = 8;
};

// Per-request outcome, in trace order — the multiplexed "response" of the daemon.
// Coalesced callers share a JobId and finish_step; their converged values are read back
// through LtpEngine::FinalValues(job) by whoever holds the engine.
struct RequestOutcome {
  JobId job = kInvalidJob;  // kInvalidJob for door-shed requests (no job existed).
  uint64_t arrival_step = 0;
  uint64_t finish_step = 0;  // Completion, shed, or failure step; 0 for door sheds.
  bool shed = false;         // Door shed or terminal deadline shed — no result delivered.
  bool failed = false;       // Job terminally failed/cancelled mid-run, retries exhausted.
  bool coalesced = false;    // Attached to a pre-existing in-flight job.
};

struct ServiceReport {
  uint64_t total_requests = 0;
  uint64_t completed_requests = 0;  // Requests that received converged results.
  uint64_t shed_requests = 0;       // Door sheds + deadline sheds.
  uint64_t coalesced_requests = 0;  // Requests served by attaching to another job.
  uint64_t failed_requests = 0;     // Callers whose job failed/was cancelled, retries spent.
  uint64_t submitted_jobs = 0;      // Engine jobs created (incl. retry resubmissions).
  uint64_t executed_jobs = 0;       // Submitted jobs that ran to completion.
  // shed_jobs keeps its PR 6 meaning — jobs cancelled while *waiting* (queue-wait
  // deadline sheds, terminal only) — so dedup/shed ratios stay comparable across bench
  // records. Mid-run aborts are split out below and all sit at 0 in default configs.
  uint64_t shed_jobs = 0;           // Terminal queue-wait deadline sheds.
  uint64_t cancelled_jobs = 0;      // Mid-run cancellations observed (incl. later-retried).
  uint64_t failed_jobs = 0;         // Per-job failures observed (incl. later-retried).
  uint64_t retried_jobs = 0;        // Retry resubmissions (fresh job, no checkpoint).
  uint64_t recovered_jobs = 0;      // Checkpoint restarts (same job resumes mid-flight).
  // coalesced_requests / total_requests — the fan-in savings.
  double dedup_ratio = 0.0;
  // Queue-wait + execution latency percentiles, in scheduling steps (nearest-rank;
  // deterministic across runs and worker counts). Shed and failed requests are excluded.
  double p50_latency_steps = 0.0;
  double p95_latency_steps = 0.0;
  double p99_latency_steps = 0.0;
  double mean_latency_steps = 0.0;
  double max_latency_steps = 0.0;
  uint64_t final_step = 0;   // Engine step when the trace drained.
  double wall_seconds = 0.0; // Whole replay, wall clock.
  // completed_requests / wall_seconds — the hardware-dependent throughput figure.
  double sustained_jobs_per_second = 0.0;
  std::vector<RequestOutcome> outcomes;  // One per trace request, trace order.
};

class ServiceDriver {
 public:
  // `engine` is borrowed and must outlive the driver; the driver assumes exclusive use
  // of it for the duration of Run() (it owns the Step() loop).
  ServiceDriver(LtpEngine* engine, const ServiceOptions& options);

  // Replays `trace` to completion: every request either completes or is shed, and the
  // engine is idle on return. Callable once per driver.
  // Pre: TraceFitsJobIds(trace.size(), retry_limit); `trace` is sorted by arrival_step
  //      (GenerateArrivalTrace and LoadTrace guarantee it) and its last arrival is at
  //      most kMaxArrivalStep.
  ServiceReport Run(const std::vector<ServiceRequest>& trace);

 private:
  // One submitted engine job and the requests multiplexed onto it.
  struct PendingJob {
    JobId id = kInvalidJob;
    std::string key;
    uint64_t deadline_step = 0;          // 0 = none.
    std::vector<size_t> request_indices;  // Into the trace / outcomes array.
    uint32_t attempts = 0;                // Retries consumed so far.
    size_t rep_index = 0;                 // Representative request (retry resubmission).
  };

  // Routes one due request: coalesce-attach, door-shed, or submit. `index` is its trace
  // position.
  void AdmitRequest(const std::vector<ServiceRequest>& trace, size_t index,
                    ServiceReport* report) CGRAPH_REQUIRES_DRIVER;
  // Sheds pending jobs still waiting past their deadline at `now` (or retries them,
  // when retries remain).
  void ShedExpired(const std::vector<ServiceRequest>& trace, uint64_t now,
                   ServiceReport* report) CGRAPH_REQUIRES_DRIVER;
  // Moves finished pending jobs into outcomes / the latency reservoir; routes mid-run
  // failures/cancellations through the retry policy first.
  void ReapFinished(const std::vector<ServiceRequest>& trace, ServiceReport* report)
      CGRAPH_REQUIRES_DRIVER;
  // Schedules `p`'s next attempt at `abort_step` + the exponential backoff: checkpoint
  // restart when one exists, fresh resubmission of the representative request
  // otherwise. Updates the coalesce table, deadline, and outcome job ids. Pre: a retry
  // attempt remains.
  void Retry(const std::vector<ServiceRequest>& trace, PendingJob& p, uint64_t abort_step,
             ServiceReport* report) CGRAPH_REQUIRES_DRIVER;

  LtpEngine* engine_;
  ServiceOptions options_;
  RequestTable table_ CGRAPH_GUARDED_BY_DRIVER;
  LatencyReservoir reservoir_ CGRAPH_GUARDED_BY_DRIVER;
  std::vector<PendingJob> pending_ CGRAPH_GUARDED_BY_DRIVER;
  bool ran_ = false;
};

}  // namespace cgraph

#endif  // SRC_SERVICE_DAEMON_H_
