#include "src/core/push_stage.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/core/vertex_program.h"

namespace cgraph {

PushStage::PushStage(const PartitionedGraph& layout, ThreadPool* pool,
                     MemoryHierarchy* hierarchy, JobManager* manager,
                     const EngineOptions& options)
    : layout_(layout),
      dispatch_(pool, options.num_workers, options.parallel_sweep_threshold),
      hierarchy_(hierarchy), manager_(manager), options_(options),
      touched_(layout.num_partitions(), 0) {
  CGRAPH_CHECK(hierarchy != nullptr);
  CGRAPH_CHECK(manager != nullptr);
  for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
    total_replicated_ += layout.partition(p).replicated_masters().size();
  }
}

void PushStage::Collect(PartitionId p, std::span<Job* const> jobs) {
  const uint64_t work = uint64_t{layout_.partition(p).mirror_locals().size()} * jobs.size();
  dispatch_.Run(jobs.size(), work, [&](size_t j) {
    if (!jobs[j]->finished_) {
      CollectMirrorRecords(*jobs[j], p);
    }
  });
}

void PushStage::CollectMirrorRecords(Job& job, PartitionId p) const {
  const GraphPartition& layout_part = layout_.partition(p);
  const double identity = AccIdentity(job.program().acc_kind());
  auto states = job.table_.partition(p);
  // Only mirror replicas can have anything to send: walk the partition's mirror index
  // (ascending locals, so record order matches the old full-sweep order) instead of
  // testing every local vertex.
  for (const LocalVertexId v : layout_part.mirror_locals()) {
    if (states[v].delta_next != identity) {
      const LocalVertexInfo& info = layout_part.vertex(v);
      job.sync_in_[info.master_partition].push_back(
          BucketRecord{info.master_local, states[v].delta_next});
      // The mirror's contribution now lives in the bucket; clear the slot so the
      // broadcast phase can overwrite it with the merged value.
      states[v].delta_next = identity;
    }
  }
}

uint64_t PushStage::Broadcast(Job& job, bool flush) {
  const PartitionedGraph& g = layout_;
  const AccKind kind = job.program().acc_kind();
  const double identity = AccIdentity(kind);
  uint64_t work = 0;
  for (const PartitionId p : sources_) {
    work += g.partition(p).num_mirror_refs();
  }
  task_records_.assign(sources_.size(), 0);
  // Every destination partition's state base, resolved once per call rather than once
  // per mirror record.
  state_bases_.resize(g.num_partitions());
  for (PartitionId q = 0; q < g.num_partitions(); ++q) {
    state_bases_[q] = job.table_.partition(q).data();
  }
  dispatch_.Run(sources_.size(), work, [&](size_t t) {
    const PartitionId p = sources_[t];
    const GraphPartition& part = g.partition(p);
    VertexState* const states = state_bases_[p];
    const std::span<const LocalVertexId> masters = part.replicated_masters();
    const bool has_deferred = job.async_ && job.deferred_pending_[p] != 0;
    uint64_t records = 0;
    for (size_t i = 0; i < masters.size(); ++i) {
      double delta = flush ? identity : states[masters[i]].delta_next;
      if (has_deferred) {
        delta = flush ? job.deferred_[p][i] : AccApply(kind, job.deferred_[p][i], delta);
        job.deferred_[p][i] = identity;
      }
      if (delta == identity) {
        continue;
      }
      // Replace, never combine: the mirror's own contribution was already merged into
      // the master, and only this task writes this master's mirrors.
      const std::span<const ReplicaRef> mirrors = part.mirrors_of(masters[i]);
      for (const ReplicaRef& ref : mirrors) {
        state_bases_[ref.partition][ref.local].delta_next = delta;
        // Load before store: after the first record the flag's cache line stays shared.
        // Relaxed is enough: RunBatch's completion publishes the flags to the driver.
        std::atomic_ref<uint8_t> touched(touched_[ref.partition]);
        if (touched.load(std::memory_order_relaxed) == 0) {
          touched.store(1, std::memory_order_relaxed);
        }
      }
      records += mirrors.size();
    }
    if (has_deferred) {
      job.deferred_pending_[p] = 0;
    }
    task_records_[t] = records;
  });
  return std::accumulate(task_records_.begin(), task_records_.end(), uint64_t{0});
}

void PushStage::Push(Job& job) {
  const PartitionedGraph& g = layout_;
  const AccKind kind = job.program().acc_kind();
  const double identity = AccIdentity(kind);

  // Phase 1 (Algorithm 2's SortD + merge, realized as counting-sort buckets): mirror
  // deltas were collected directly into per-destination-partition buckets, so sweeping
  // buckets in partition order makes the updates successive per private partition — the
  // same access pattern the sort used to establish, hence the same charge model of one
  // private-partition access per distinct destination partition (in the swap sweep below)
  // rather than one per record. One task per non-empty bucket, each applied in record
  // order, so floating-point sums do not depend on the worker count.
  sources_.clear();
  uint64_t merged_records = 0;
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    if (!job.sync_in_[p].empty()) {
      sources_.push_back(p);
      job.dirty_[p] = true;
      merged_records += job.sync_in_[p].size();
    }
  }
  dispatch_.Run(sources_.size(), merged_records, [&](size_t t) {
    const PartitionId p = sources_[t];
    std::vector<BucketRecord>& bucket = job.sync_in_[p];
    auto states = job.table_.partition(p);
    for (const BucketRecord& rec : bucket) {
      states[rec.local].delta_next = AccApply(kind, states[rec.local].delta_next, rec.delta);
    }
    bucket.clear();  // Keeps capacity: the bucket is reused every iteration.
  });
  job.stats_.push_updates += merged_records;

  // Phase 2 (SortS + broadcast): merged master values are pushed back to mirrors so every
  // replica agrees on next iteration's delta (and hence on activity and value updates).
  // Only replicated masters can have mirrors to feed, so the source sweep walks the
  // mirror index instead of every local vertex, and writes each mirror directly.
  //
  // Async (docs/execution_modes.md): mirror->master flow above runs every iteration —
  // masters are always fresh — but this master->mirror broadcast may lag by up to
  // `staleness` iterations. At a deferred boundary each master's delta is Acc-folded
  // into the job's per-partition deferred accumulator instead of travelling; at a sync
  // boundary the accumulated window combines with the current delta and travels as one
  // record per mirror. Exact for monotonic programs: min-windows are idempotent, and a
  // sum-window delivers each contribution exactly once (mirror application replaces, and
  // the mirror's own prior contribution was already merged upstream).
  bool sync_boundary = !job.async_ || job.since_sync_ >= options_.staleness;
  if (!sync_boundary && options_.async_defer_divisor > 0) {
    // Adaptive deferral: the staleness window is an upper bound, not a mandate. Count
    // the fresh master records this boundary would withhold; a cold boundary (the
    // convergence tail, where the critical path is a latency-bound cross-partition
    // chain) syncs immediately instead of stretching it by a whole iteration. Only hot
    // boundaries — where batching several waves into one Acc-combined record pays —
    // actually defer.
    uint64_t fresh = 0;
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      if (!job.dirty_[p]) {
        continue;
      }
      const GraphPartition& part = g.partition(p);
      auto states = job.table_.partition(p);
      for (const LocalVertexId v : part.replicated_masters()) {
        fresh += states[v].delta_next != identity ? 1 : 0;
      }
    }
    sync_boundary = fresh * options_.async_defer_divisor < total_replicated_;
  }
  sources_.clear();
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    const bool has_deferred = sync_boundary && job.async_ && job.deferred_pending_[p] != 0;
    if (job.dirty_[p] || has_deferred) {
      sources_.push_back(p);
    }
  }
  if (sync_boundary) {
    job.stats_.push_updates += Broadcast(job, /*flush=*/false);
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      if (touched_[p] != 0) {
        touched_[p] = 0;
        job.dirty_[p] = true;
      }
    }
    job.since_sync_ = 0;
  } else {
    // Deferred boundary: withhold the broadcast, Acc-folding each master's fresh delta
    // into the window accumulator *before* the phase-3 swap clears it. The master still
    // consumes its own delta via the swap — its copy and the mirrors' window entry are
    // disjoint deliveries, so nothing is double-counted. One task per dirty partition.
    uint64_t work = 0;
    for (const PartitionId p : sources_) {
      work += g.partition(p).num_mirror_refs();
    }
    task_records_.assign(sources_.size(), 0);
    dispatch_.Run(sources_.size(), work, [&](size_t t) {
      const PartitionId p = sources_[t];
      const GraphPartition& part = g.partition(p);
      auto states = job.table_.partition(p);
      const std::span<const LocalVertexId> masters = part.replicated_masters();
      uint64_t deferred_now = 0;
      for (size_t i = 0; i < masters.size(); ++i) {
        const LocalVertexId v = masters[i];
        if (states[v].delta_next == identity) {
          continue;
        }
        job.deferred_[p][i] = AccApply(kind, job.deferred_[p][i], states[v].delta_next);
        job.deferred_pending_[p] = 1;
        deferred_now += part.mirrors_of(v).size();
      }
      task_records_[t] = deferred_now;
    });
    job.stats_.deferred_pushes +=
        std::accumulate(task_records_.begin(), task_records_.end(), uint64_t{0});
    ++job.since_sync_;
  }

  // Phase 3: swap the double buffer on dirty partitions, recompute activity, and charge
  // the batched private-table accesses of the whole push.
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    if (job.dirty_[p]) {
      const ItemKey private_key{DataKind::kPrivate, job.id(), p, 0};
      job.stats_.charge +=
          hierarchy_->Access(private_key, job.table_.partition_bytes(p), /*pin=*/false);
    }
  }
  uint64_t active_total = manager_->RefreshActivity(job, /*all_partitions=*/false,
                                                    /*swap_buffers=*/true,
                                                    /*initial=*/false);

  // Flush-on-drain: an async job whose frontier went quiet may still owe mirrors a
  // deferred window — convergence is only real once every withheld record was delivered
  // and the refreshed activity is still zero. One flush suffices: it empties every
  // accumulator and nothing re-defers without Compute running.
  if (job.async_ && active_total == 0 && job.since_sync_ > 0) {
    sources_.clear();
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      if (job.deferred_pending_[p] != 0) {
        sources_.push_back(p);
      }
    }
    const uint64_t flushed_records = Broadcast(job, /*flush=*/true);
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      if (touched_[p] == 0) {
        continue;
      }
      touched_[p] = 0;
      job.dirty_[p] = true;
      const ItemKey private_key{DataKind::kPrivate, job.id(), p, 0};
      job.stats_.charge +=
          hierarchy_->Access(private_key, job.table_.partition_bytes(p), /*pin=*/false);
    }
    job.stats_.push_updates += flushed_records;
    job.since_sync_ = 0;
    if (flushed_records > 0) {
      active_total = manager_->RefreshActivity(job, /*all_partitions=*/false,
                                               /*swap_buffers=*/true, /*initial=*/false);
    }
  }

  ++job.iteration_;
  job.stats_.iterations = job.iteration_;
  std::fill(job.processed_.begin(), job.processed_.end(), false);

  // Iteration-boundary protocol with the program (possibly multi-phase).
  bool registered = false;
  uint64_t active_now = active_total;
  for (int guard = 0; guard < 1024; ++guard) {
    VertexProgram::IterationContext context;
    context.any_active = active_now > 0;
    context.iteration = job.iteration_;
    context.table = &job.table_;
    context.layout = &g;
    const auto action = job.program().OnIterationEnd(context);
    if (action == VertexProgram::IterationAction::kFinished) {
      manager_->FinishJob(job);
      return;
    }
    if (action == VertexProgram::IterationAction::kContinue) {
      if (active_now == 0 || job.iteration_ >= options_.max_iterations_per_job) {
        manager_->FinishJob(job);
        return;
      }
      registered = true;
      break;
    }
    // kNewPhase: re-initialize every vertex state and re-derive activity. Charged as a
    // full private-table sweep. The monotonic() contract forbids phases under async —
    // a re-init would invalidate the deferred window without any way to replay it. A
    // program breaking that contract is a per-job failure, not a process abort: record
    // it and let the engine retire just this job.
    if (job.async_) {
      job.fail_status_ = Status::FailedPrecondition(
          "Push: program '" + job.stats_.job_name +
          "' requested a new phase while running async — monotonic() forbids phases");
      return;
    }
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      const GraphPartition& part = g.partition(p);
      auto states = job.table_.partition(p);
      for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
        job.program().ReinitVertex(part.vertex(v), states[v]);
      }
      const ItemKey private_key{DataKind::kPrivate, job.id(), p, 0};
      job.stats_.charge +=
          hierarchy_->Access(private_key, job.table_.partition_bytes(p), /*pin=*/false);
    }
    active_now = manager_->RefreshActivity(job, /*all_partitions=*/true,
                                           /*swap_buffers=*/false, /*initial=*/false);
  }
  if (!registered) {
    // The program spun through the phase guard without settling — isolate this job.
    job.fail_status_ = Status::Internal(
        "Push: program '" + job.stats_.job_name +
        "' did not settle on a continuing or finished iteration within the phase guard");
    return;
  }
  // The job continues from a consistent boundary: sync buckets empty, buffers swapped,
  // next iteration's registrations in place — the state a checkpoint can resume from.
  manager_->MaybeCheckpoint(job);
}

}  // namespace cgraph
