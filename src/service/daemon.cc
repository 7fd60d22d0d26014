#include "src/service/daemon.h"

#include <algorithm>
#include <utility>

#include "src/algorithms/factory.h"
#include "src/common/check.h"
#include "src/common/timer.h"

namespace cgraph {

ServiceDriver::ServiceDriver(LtpEngine* engine, const ServiceOptions& options)
    : engine_(engine),
      options_(options),
      reservoir_(options.reservoir_capacity, options.reservoir_seed) {
  CGRAPH_CHECK(engine != nullptr);
  // A zero backoff would re-arrive the retry at the abort step itself; require real
  // spacing so retried work never races the abort that triggered it. The upper bounds
  // keep `retry_backoff << attempts` and the retry steps it sums to from wrapping.
  CGRAPH_CHECK(options.retry_limit == 0 ||
               (options.retry_limit <= kMaxRetryLimit && options.retry_backoff > 0 &&
                options.retry_backoff <= kMaxRetryBackoff));
  CGRAPH_CHECK(options.deadline_steps <= kMaxDeadlineSteps);
}

void ServiceDriver::AdmitRequest(const std::vector<ServiceRequest>& trace, size_t index,
                                 ServiceReport* report) {
  const ServiceRequest& req = trace[index];
  RequestOutcome& outcome = report->outcomes[index];
  outcome.arrival_step = req.arrival_step;

  const std::string key = CoalesceKey(req.program, req.source);
  if (options_.coalesce) {
    const JobId hit = table_.Find(key);
    if (hit != kInvalidJob) {
      // Fan-in: an identical computation is already queued or running — multiplex this
      // caller onto it. No queue growth, no new work, so the queue bound does not apply.
      for (PendingJob& p : pending_) {
        if (p.id == hit) {
          p.request_indices.push_back(index);
          break;
        }
      }
      engine_->MutableStats(hit).coalesced_callers += 1;
      outcome.job = hit;
      outcome.coalesced = true;
      report->coalesced_requests += 1;
      return;
    }
  }

  if (options_.queue_bound > 0 && engine_->NumWaiting() >= options_.queue_bound) {
    // Backpressure: the waiting queue is at its bound — shed at the door rather than
    // queue without limit. The request never becomes an engine job.
    outcome.shed = true;
    outcome.finish_step = req.arrival_step;
    report->shed_requests += 1;
    return;
  }

  LtpEngine::JobHandle handle =
      engine_->SubmitAt(MakeProgram(req.program, req.source, options_.k),
                        req.arrival_step);
  PendingJob pending;
  pending.id = handle.id();
  pending.key = key;
  pending.rep_index = index;
  pending.request_indices.push_back(index);
  if (options_.deadline_steps > 0) {
    pending.deadline_step = req.arrival_step + options_.deadline_steps;
    engine_->MutableStats(pending.id).deadline_step = pending.deadline_step;
  }
  pending_.push_back(std::move(pending));
  if (options_.coalesce) {
    table_.Register(key, handle.id());
  }
  outcome.job = handle.id();
  report->submitted_jobs += 1;
}

void ServiceDriver::ShedExpired(const std::vector<ServiceRequest>& trace, uint64_t now,
                                ServiceReport* report) {
  size_t keep = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingJob& p = pending_[i];
    // Deadlines bound queue wait only: CancelWaiting refuses (returns false) once the
    // job started, and a refused job simply stays pending until it finishes.
    if (p.deadline_step != 0 && now > p.deadline_step && engine_->CancelWaiting(p.id)) {
      table_.Retire(p.key, p.id);
      const uint64_t shed_step = engine_->job(p.id).stats().finish_step;
      if (options_.retry_limit > 0 && p.attempts < options_.retry_limit) {
        // Retried sheds are not terminal: the entry stays pending on its next attempt
        // and shed_jobs/shed_requests count nothing until retries are exhausted.
        Retry(trace, p, shed_step, report);
      } else {
        for (size_t index : p.request_indices) {
          RequestOutcome& outcome = report->outcomes[index];
          outcome.shed = true;
          outcome.finish_step = shed_step;
        }
        report->shed_requests += p.request_indices.size();
        report->shed_jobs += 1;
        continue;
      }
    }
    if (keep != i) {
      pending_[keep] = std::move(pending_[i]);
    }
    ++keep;
  }
  pending_.resize(keep);
}

void ServiceDriver::ReapFinished(const std::vector<ServiceRequest>& trace,
                                 ServiceReport* report) {
  size_t keep = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingJob& p = pending_[i];
    bool drop = false;
    if (engine_->job(p.id).finished()) {
      const JobStats& stats = engine_->job(p.id).stats();
      if (stats.failed || stats.cancelled) {
        // Mid-run abort (injected fault, step-budget cancel, explicit Cancel). The
        // observed counters include attempts that are retried right below; only
        // failed_requests is terminal.
        const uint64_t abort_step = stats.finish_step;
        (stats.failed ? report->failed_jobs : report->cancelled_jobs) += 1;
        table_.Retire(p.key, p.id);
        if (options_.retry_limit > 0 && p.attempts < options_.retry_limit) {
          Retry(trace, p, abort_step, report);  // The entry stays on its next attempt.
        } else {
          for (size_t index : p.request_indices) {
            RequestOutcome& outcome = report->outcomes[index];
            outcome.failed = true;
            outcome.finish_step = abort_step;
          }
          report->failed_requests += p.request_indices.size();
          drop = true;
        }
      } else {
        table_.Retire(p.key, p.id);
        const uint64_t finish_step = stats.finish_step;
        for (size_t index : p.request_indices) {
          RequestOutcome& outcome = report->outcomes[index];
          outcome.finish_step = finish_step;
          // Every multiplexed caller observes its own latency: the shared finish minus
          // its own arrival (a coalesced late-joiner waits less than the originator).
          CGRAPH_CHECK(finish_step >= trace[index].arrival_step);
          reservoir_.Add(static_cast<double>(finish_step - trace[index].arrival_step));
        }
        report->completed_requests += p.request_indices.size();
        report->executed_jobs += 1;
        drop = true;
      }
    }
    if (!drop) {
      if (keep != i) {
        pending_[keep] = std::move(pending_[i]);
      }
      ++keep;
    }
  }
  pending_.resize(keep);
}

void ServiceDriver::Retry(const std::vector<ServiceRequest>& trace, PendingJob& p,
                          uint64_t abort_step, ServiceReport* report) {
  CGRAPH_CHECK(options_.retry_limit > 0 && p.attempts < options_.retry_limit);
  // Deterministic exponential backoff in scheduling steps: base << attempts-so-far. No
  // jitter — two identical runs retry at identical steps, which is what the
  // retry-determinism test in tests/fault_tolerance_test.cc pins down.
  const uint64_t retry_step = abort_step + (options_.retry_backoff << p.attempts);
  p.attempts += 1;
  if (engine_->HasCheckpoint(p.id) &&
      engine_->RestartFromCheckpoint(p.id, retry_step).ok()) {
    // Checkpoint resume: the same JobId re-enters the waiting queue and picks up from
    // its last iteration boundary instead of recomputing from scratch.
    report->recovered_jobs += 1;
  } else {
    // No restart point (checkpointing off, or the job died before its first boundary):
    // resubmit the representative request as a fresh job.
    const ServiceRequest& req = trace[p.rep_index];
    LtpEngine::JobHandle handle =
        engine_->SubmitAt(MakeProgram(req.program, req.source, options_.k), retry_step);
    p.id = handle.id();
    for (size_t index : p.request_indices) {
      report->outcomes[index].job = p.id;
    }
    report->submitted_jobs += 1;
    report->retried_jobs += 1;
  }
  if (options_.deadline_steps > 0) {
    // The retry gets a fresh queue-wait deadline from its new arrival; the original
    // deadline already did its job when the first attempt was aborted or shed.
    p.deadline_step = retry_step + options_.deadline_steps;
    engine_->MutableStats(p.id).deadline_step = p.deadline_step;
  }
  if (options_.coalesce) {
    table_.Register(p.key, p.id);  // Future identical requests fan in onto the retry.
  }
}

ServiceReport ServiceDriver::Run(const std::vector<ServiceRequest>& trace) {
  // The driver owns the engine's Step() loop for the whole replay — this thread IS the
  // driver thread (docs/static_analysis.md).
  ScopedThreadRole role(g_driver_role);
  CGRAPH_CHECK(!ran_);
  ran_ = true;
  CGRAPH_CHECK(TraceFitsJobIds(trace.size(), options_.retry_limit));
  CGRAPH_CHECK(std::is_sorted(trace.begin(), trace.end(),
                              [](const ServiceRequest& a, const ServiceRequest& b) {
                                return a.arrival_step < b.arrival_step;
                              }));
  CGRAPH_CHECK(trace.empty() || trace.back().arrival_step <= kMaxArrivalStep);

  ServiceReport report;
  report.total_requests = trace.size();
  report.outcomes.resize(trace.size());

  WallTimer timer;
  size_t next = 0;
  while (true) {
    const uint64_t now = engine_->current_step();
    if (options_.deadline_steps > 0) {
      ShedExpired(trace, now, &report);
    }
    while (next < trace.size() && trace[next].arrival_step <= now) {
      AdmitRequest(trace, next, &report);
      ++next;
    }
    const bool progressed = engine_->Step();
    ReapFinished(trace, &report);
    if (!progressed) {
      if (next < trace.size()) {
        // The engine drained before the next arrival. Submit that one request at its
        // future step; the engine's idle fast-forward then jumps the clock straight to
        // it, and the admit loop above picks up anything else due at the same step.
        AdmitRequest(trace, next, &report);
        ++next;
        continue;
      }
      if (!pending_.empty()) {
        // The idle Step itself aborted a job (step-budget cancel before the pick) and
        // ReapFinished just retried it — the retry is waiting, so keep driving.
        continue;
      }
      break;
    }
  }
  CGRAPH_CHECK(pending_.empty());

  report.wall_seconds = timer.ElapsedSeconds();
  report.final_step = engine_->current_step();
  if (report.total_requests > 0) {
    report.dedup_ratio = static_cast<double>(report.coalesced_requests) /
                         static_cast<double>(report.total_requests);
  }
  report.p50_latency_steps = reservoir_.Percentile(50.0);
  report.p95_latency_steps = reservoir_.Percentile(95.0);
  report.p99_latency_steps = reservoir_.Percentile(99.0);
  report.mean_latency_steps = reservoir_.Mean();
  report.max_latency_steps = reservoir_.Max();
  if (report.wall_seconds > 0.0) {
    report.sustained_jobs_per_second =
        static_cast<double>(report.completed_requests) / report.wall_seconds;
  }
  return report;
}

}  // namespace cgraph
