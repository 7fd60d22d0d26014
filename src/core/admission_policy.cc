#include "src/core/admission_policy.h"

#include "src/common/check.h"

namespace cgraph {

AdmissionPolicy::Decision FifoAdmission::Pick(std::span<const Candidate> due,
                                              const GlobalTable& table, uint64_t step) const {
  (void)table;
  (void)step;
  CGRAPH_CHECK(!due.empty());
  return Decision{};
}

double OverlapAdmission::OverlapScore(const std::vector<uint32_t>& footprint,
                                      const GlobalTable& table) {
  uint32_t needed = 0;
  uint32_t shared = 0;
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    if (footprint[p] == 0) {
      continue;
    }
    ++needed;
    if (table.RegisteredCount(p) > 0) {
      ++shared;
    }
  }
  return needed == 0 ? 0.0 : static_cast<double>(shared) / needed;
}

AdmissionPolicy::Decision OverlapAdmission::Pick(std::span<const Candidate> due,
                                                 const GlobalTable& table, uint64_t step) const {
  // Score every due candidate as overlap + aging * waited; strict > keeps ties on the
  // earliest (FIFO-ordered) candidate.
  CGRAPH_CHECK(!due.empty());
  Decision best;
  double best_score = -1.0;
  for (size_t i = 0; i < due.size(); ++i) {
    const Candidate& c = due[i];
    CGRAPH_CHECK(c.footprint != nullptr);
    CGRAPH_CHECK(c.arrival_step <= step);
    const double overlap = OverlapScore(*c.footprint, table);
    const double score = overlap + aging_ * static_cast<double>(step - c.arrival_step);
    if (score > best_score) {
      best_score = score;
      best = Decision{i, overlap};
    }
  }
  return best;
}

std::string_view AdmissionPolicyKindName(AdmissionPolicyKind kind) {
  switch (kind) {
    case AdmissionPolicyKind::kFifo:
      return "fifo";
    case AdmissionPolicyKind::kOverlap:
      return "overlap";
  }
  return "fifo";
}

std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(const EngineOptions& options) {
  switch (options.admission_policy) {
    case AdmissionPolicyKind::kFifo:
      return std::make_unique<FifoAdmission>();
    case AdmissionPolicyKind::kOverlap:
      return std::make_unique<OverlapAdmission>(options.admission_aging);
  }
  return std::make_unique<FifoAdmission>();
}

}  // namespace cgraph
