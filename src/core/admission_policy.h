// Job-level admission policies: the upper level of two-level scheduling.
//
// The partition-level scheduler (Eq. 1, src/core/scheduler.h) decides *which partition*
// to load for the jobs already running. The admission policy decides *which waiting job*
// to bind to a freed concurrency slot — the job-level scheduling of Zhao et al.,
// "Efficient Two-Level Scheduling for Concurrent Graph Processing" (arXiv:1806.00777):
// admitting the waiter whose footprint overlaps the running set most lets the partition
// scheduler amortize each structure load over more jobs.
//
// Two policies are provided:
//
//   * FIFO (default) — strict arrival order, bit-for-bit identical to the pre-policy
//     engine: the front of the due queue is admitted, later waiters never overtake it.
//   * Overlap — scores every *due* waiter by the fraction of its initially-active
//     partition footprint currently registered by running jobs, plus an aging bonus per
//     waited scheduling step so no due job starves (see OverlapAdmission).
//
// Policies are pure functions of modeled engine state (footprints, registration counts,
// step numbers) — never of wall clock or worker interleaving — so
// admission order is deterministic and identical across runs and worker counts.

#ifndef SRC_CORE_ADMISSION_POLICY_H_
#define SRC_CORE_ADMISSION_POLICY_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/core/engine_options.h"
#include "src/storage/global_table.h"

namespace cgraph {

// Strategy interface consulted by JobManager::AdmitDue each time a slot is free.
class AdmissionPolicy {
 public:
  // One due waiter, in FIFO (arrival, submission) order within the span handed to Pick.
  struct Candidate {
    JobId job = kInvalidJob;
    // The step the job became runnable (already clamped to its submit step).
    uint64_t arrival_step = 0;
    // Per-partition initially-active vertex counts (the job's expected first-iteration
    // footprint), or nullptr when the policy does not need footprints (FIFO).
    const std::vector<uint32_t>* footprint = nullptr;
  };

  struct Decision {
    size_t index = 0;      // Which candidate to admit (index into the span).
    double overlap = 0.0;  // The admitted job's overlap score (diagnostics; 0 under FIFO).
  };

  virtual ~AdmissionPolicy() = default;

  virtual std::string_view name() const = 0;

  // Whether candidates must carry initially-active footprints. JobManager computes
  // footprints lazily — only when this is true AND an admission decision has competing
  // candidates — so FIFO and uncontended admission pay nothing.
  virtual bool needs_footprints() const = 0;

  // Picks the candidate to admit into the free slot.
  //
  // Pre:  `due` is non-empty and sorted by (arrival_step, submission order); every
  //       candidate's arrival_step <= step; footprints are non-null when
  //       needs_footprints(). `table` reflects the running jobs' next-iteration
  //       registrations.
  // Post: the returned index is < due.size(). The choice depends only on the arguments
  //       (no hidden state), keeping admission deterministic.
  virtual Decision Pick(std::span<const Candidate> due, const GlobalTable& table,
                        uint64_t step) const = 0;
};

// Strict arrival-order admission: always the front of the due queue. This is exactly the
// pre-policy `AdmitDue` behavior, preserved as the default.
class FifoAdmission : public AdmissionPolicy {
 public:
  std::string_view name() const override { return "fifo"; }
  bool needs_footprints() const override { return false; }
  Decision Pick(std::span<const Candidate> due, const GlobalTable& table,
                uint64_t step) const override;
};

// Correlation-aware admission: maximize expected shared-partition reuse with the running
// set, with aging for starvation-freedom.
//
//   score(w) = overlap(w) + aging * (step - w.arrival_step)
//   overlap(w) = |{p : w.footprint[p] > 0 and RegisteredCount(p) > 0}| /
//                |{p : w.footprint[p] > 0}|            (0 when the footprint is empty)
//
// overlap is in [0, 1]; ties break toward FIFO order. Because overlap is bounded by 1,
// a due job can only ever be overtaken by jobs that arrived less than 1/aging steps
// after it: any later arrival's aging deficit already exceeds the largest possible
// overlap advantage. With finitely many submissions in any step window, every due job is
// admitted after a bounded number of decisions — no starvation (for aging > 0).
class OverlapAdmission : public AdmissionPolicy {
 public:
  // `aging` is the score bonus per waited scheduling step (EngineOptions::admission_aging).
  explicit OverlapAdmission(double aging) : aging_(aging) {}

  std::string_view name() const override { return "overlap"; }
  bool needs_footprints() const override { return true; }
  Decision Pick(std::span<const Candidate> due, const GlobalTable& table,
                uint64_t step) const override;

  // The raw overlap term in [0, 1] (exposed for tests and diagnostics). Pre: `footprint`
  // has one entry per partition of `table`.
  static double OverlapScore(const std::vector<uint32_t>& footprint, const GlobalTable& table);

 private:
  double aging_;
};

// Maps "fifo"/"overlap" to the enum; returns false on unknown names.
bool ParseAdmissionPolicyName(std::string_view name, AdmissionPolicyKind* kind);

// The canonical CLI/report name of a policy kind.
std::string_view AdmissionPolicyKindName(AdmissionPolicyKind kind);

// Instantiates the policy selected by `options.admission_policy`.
std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(const EngineOptions& options);

}  // namespace cgraph

#endif  // SRC_CORE_ADMISSION_POLICY_H_
