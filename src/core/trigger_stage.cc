#include "src/core/trigger_stage.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/vertex_program.h"

namespace cgraph {

TriggerStage::TriggerStage(ThreadPool* pool, MemoryHierarchy* hierarchy,
                           const EngineOptions& options)
    : pool_(pool), hierarchy_(hierarchy), options_(options) {
  CGRAPH_CHECK(pool != nullptr);
  CGRAPH_CHECK(hierarchy != nullptr);
  const size_t max_batch = std::max<size_t>(1, options_.num_workers);
  cursors_ = std::make_unique<std::atomic<size_t>[]>(max_batch);
  batch_scratch_.reserve(options_.max_jobs);
  task_slot_.reserve(max_batch * max_batch);
}

void TriggerStage::Run(PartitionId p, const GraphPartition& part,
                       std::span<Job* const> group) {
  // Fully converged (job, partition) pairs have nothing to trigger: drop them before
  // batching so they occupy no batch slot and charge no private-table access. Activation
  // tracing only registers partitions that hold active vertices, so on a healthy engine
  // this filter passes everyone through — it is the invariant, made local. Finished jobs
  // are also dropped: a job can fail or be cancelled between group formation and the
  // trigger (fault isolation, docs/robustness.md), leaving stale activity behind.
  batch_scratch_.clear();
  for (Job* job : group) {
    if (!job->finished_ && job->active_count_[p] > 0) {
      batch_scratch_.push_back(job);
    }
  }
  const size_t batch_size = std::max<size_t>(1, options_.num_workers);
  const std::span<Job* const> all(batch_scratch_);
  for (size_t begin = 0; begin < all.size(); begin += batch_size) {
    const std::span<Job* const> batch =
        all.subspan(begin, std::min(batch_size, all.size() - begin));
    for (Job* job : batch) {
      const ItemKey private_key{DataKind::kPrivate, job->id(), p, 0};
      job->stats_.charge +=
          hierarchy_->Access(private_key, job->table().partition_bytes(p), /*pin=*/false);
    }
    TriggerBatch(p, part, batch);
  }
  // Async jobs settle their partition-local cascades before the barrier: the private
  // table is still resident (just charged above), so the extra sweeps are pure compute.
  // Only path-independent programs drain — their eager local flood delivers final
  // candidate labels, while an edge-accumulating program would scatter values the next
  // mirror merge is about to improve (see VertexProgram::path_independent()).
  for (Job* job : batch_scratch_) {
    if (job->async_ && job->program().path_independent()) {
      Redrain(p, part, job);
    }
  }
}

void TriggerStage::TriggerBatch(PartitionId p, const GraphPartition& part,
                                std::span<Job* const> batch) {
  const size_t n_words = (static_cast<size_t>(part.num_local_vertices()) + 63) / 64;
  if (n_words == 0 || batch.empty()) {
    return;
  }
  // Small batches run inline: below the active-work threshold, pool dispatch (wake-ups,
  // cursor traffic, batch open/close) costs more than sweeping the few frontier words on
  // the driver thread. Per-job word order is ascending either way, so modeled metrics
  // and results are identical to the pooled path.
  if (options_.parallel_trigger_threshold > 0) {
    uint64_t batch_active = 0;
    for (const Job* job : batch) {
      batch_active += job->active_count_[p];
    }
    if (batch_active < options_.parallel_trigger_threshold) {
      for (Job* job : batch) {
        ProcessWords(p, part, job, job->active_[p], 0, n_words, /*concurrent=*/false);
      }
      return;
    }
  }
  // Chunks are claimed in whole bitmask words so a grain never straddles a word and the
  // sparse scan needs no partial-word masking. The rounding is 64-bit: a grain near 2^32
  // must not wrap to a one-word chunk.
  const size_t grain_words =
      std::max<size_t>(1, (static_cast<size_t>(options_.chunk_grain) + 63) / 64);
  const size_t n_chunks = (n_words + grain_words - 1) / grain_words;
  // One task per chunk, at most one per worker. A job swept by a single task has no
  // second writer in its private partition, so its scatters take the plain path.
  const size_t tasks_for_job = std::min<size_t>(options_.num_workers, n_chunks);
  const bool concurrent = tasks_for_job > 1;

  // Every worker can steal chunks of any job in the batch: the straggler's remaining
  // vertices are consumed by whichever cores come free (Fig. 6). A grain of at least the
  // partition size makes a job's whole sweep one chunk, so one task runs it. Cursors live
  // in the stage's arena — one per batch slot, reset here, no allocation per batch.
  task_slot_.clear();
  for (uint32_t j = 0; j < batch.size(); ++j) {
    cursors_[j].store(0, std::memory_order_relaxed);
    task_slot_.insert(task_slot_.end(), tasks_for_job, j);
  }
  pool_->RunBatch(task_slot_.size(), [&](size_t task) {
    const uint32_t j = task_slot_[task];
    Job* const job = batch[j];
    std::atomic<size_t>& cursor = cursors_[j];
    while (true) {
      const size_t begin = cursor.fetch_add(grain_words, std::memory_order_relaxed);
      if (begin >= n_words) {
        return;
      }
      ProcessWords(p, part, job, job->active_[p], begin, std::min(begin + grain_words, n_words),
                   concurrent);
    }
  });
}

uint64_t TriggerStage::ProcessWords(PartitionId p, const GraphPartition& part, Job* job,
                                    const DynamicBitset& mask, size_t word_begin,
                                    size_t word_end, bool concurrent) const {
  const VertexProgram::ComputeCounts counts = job->program().ComputeWords(
      part, mask, word_begin, word_end, job->table().partition(p), concurrent);
  // Flush counters with atomic adds: several workers may finish chunks of the same job
  // concurrently.
  std::atomic_ref<uint64_t>(job->stats_.vertex_computes)
      .fetch_add(counts.vertices, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(job->stats_.edge_traversals)
      .fetch_add(counts.edges, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(job->stats_.compute_units)
      .fetch_add(counts.vertices + counts.edges, std::memory_order_relaxed);
  return counts.vertices;
}

void TriggerStage::Redrain(PartitionId p, const GraphPartition& part, Job* job) {
  const std::span<const LocalVertexId> interior = part.interior_locals();
  const std::span<const LocalVertexId> replicated = part.replicated_masters();
  if (interior.empty() && replicated.empty()) {
    return;
  }
  const VertexProgram& program = job->program();
  auto states = job->table().partition(p);
  const size_t n_words = (static_cast<size_t>(part.num_local_vertices()) + 63) / 64;
  drain_scratch_.Resize(part.num_local_vertices());
  uint64_t drained = 0;
  bool any_deferred = false;
  while (true) {
    // Collect this round's drain set: master vertices whose pending contribution the
    // activation predicate accepts *now*. The mini-swap consumes delta_next exactly once
    // (delta was already consumed by the sweep that scattered here); contributions the
    // predicate rejects stay in delta_next and are discarded by the end-of-iteration
    // global swap, exactly as BSP discards them. Mirrors are never drained — their
    // deltas belong to their masters and travel through the mirror sync untouched.
    drain_scratch_.ClearAll();
    uint32_t activations = program.DrainPending(interior, states, {}, drain_scratch_);
    // Replicated masters drain too: the master's copy of the contribution is consumed
    // here, and the mirrors' copy is Acc-folded into the deferred window so the next
    // sync boundary still delivers it — each contribution reaches every replica exactly
    // once, the master just no longer waits an iteration to act on it.
    const uint32_t replicated_drained =
        program.DrainPending(replicated, states, job->deferred_[p], drain_scratch_);
    any_deferred |= replicated_drained > 0;
    activations += replicated_drained;
    if (activations == 0) {
      break;
    }
    drained += ProcessWords(p, part, job, drain_scratch_, 0, n_words, /*concurrent=*/false);
  }
  if (any_deferred) {
    job->deferred_pending_[p] = 1;
  }
  job->stats_.redrain_computes += drained;
}

}  // namespace cgraph
