#include "src/partition/partitioned_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "src/common/check.h"
#include "src/common/prng.h"
#include "src/partition/partition_debug.h"
#include "src/partition/partitioner.h"

namespace cgraph {

double PartitionedGraph::replication_factor() const {
  if (num_vertices_ == 0) {
    return 1.0;
  }
  uint64_t replicas = 0;
  for (const auto& p : partitions_) {
    replicas += p.num_local_vertices();
  }
  return static_cast<double>(replicas) / static_cast<double>(num_vertices_);
}

uint64_t PartitionedGraph::total_structure_bytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) {
    total += p.structure_bytes();
  }
  return total;
}

namespace {

// Per-vertex scratch used while choosing masters: the partition where the vertex has the
// most local edges wins (ties to the lowest partition id), which minimizes synchronization
// traffic from the busiest replica.
struct MasterChoice {
  PartitionId partition = kInvalidPartition;
  uint32_t local_edges = 0;
};

uint64_t ComputeStructureBytes(const GraphPartition& p) {
  // Vertex records + two CSR directions (targets + weights) + offsets + mirror refs.
  return p.num_local_vertices() * static_cast<uint64_t>(sizeof(LocalVertexInfo)) +
         2 * p.num_local_edges() * (sizeof(LocalVertexId) + sizeof(Weight)) +
         2 * (p.num_local_vertices() + 1ULL) * sizeof(uint64_t);
}

}  // namespace

GraphPartition GraphPartition::RewireClone(uint64_t num_rewires, uint64_t seed) const {
  GraphPartition clone = *this;
  const uint64_t m = clone.out_targets_.size();
  const LocalVertexId lv = clone.num_local_vertices();
  if (m == 0 || lv == 0) {
    return clone;
  }
  Xoshiro256 rng(seed);
  for (uint64_t r = 0; r < num_rewires; ++r) {
    const uint64_t e = rng.NextBounded(m);
    clone.out_targets_[e] = static_cast<LocalVertexId>(rng.NextBounded(lv));
    clone.out_weights_[e] = static_cast<Weight>(1.0 + rng.NextDouble() * 15.0);
  }
  // Rebuild the in-direction CSR from the mutated out-direction.
  std::fill(clone.in_offsets_.begin(), clone.in_offsets_.end(), 0);
  for (LocalVertexId v = 0; v < lv; ++v) {
    for (LocalVertexId t : clone.out_neighbors(v)) {
      ++clone.in_offsets_[t + 1];
    }
  }
  for (LocalVertexId v = 0; v < lv; ++v) {
    clone.in_offsets_[v + 1] += clone.in_offsets_[v];
  }
  std::vector<uint64_t> cursor(clone.in_offsets_.begin(), clone.in_offsets_.end() - 1);
  for (LocalVertexId v = 0; v < lv; ++v) {
    const auto targets = clone.out_neighbors(v);
    const auto weights = clone.out_weights(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      const uint64_t pos = cursor[targets[i]]++;
      clone.in_targets_[pos] = v;
      clone.in_weights_[pos] = weights[i];
    }
  }
  return clone;
}

PartitionedGraph PartitionedGraphBuilder::Build(const EdgeList& edges,
                                                const PartitionOptions& options) {
  return Build(edges, options, *MakePartitioner(options.partitioner));
}

PartitionedGraph PartitionedGraphBuilder::Build(const EdgeList& edges,
                                                const PartitionOptions& options,
                                                const Partitioner& partitioner) {
  CGRAPH_CHECK(options.num_partitions > 0);
  const VertexId n = edges.num_vertices();
  const uint64_t m = edges.num_edges();
  const uint32_t num_parts =
      m == 0 ? 1 : std::min<uint32_t>(options.num_partitions, static_cast<uint32_t>(m));

  // Global degrees (needed for PageRank and for core detection).
  std::vector<uint32_t> out_degree(n, 0);
  std::vector<uint32_t> total_degree(n, 0);
  std::vector<float> out_weight(n, 0.0f);
  for (const Edge& e : edges.edges()) {
    ++out_degree[e.src];
    ++total_degree[e.src];
    ++total_degree[e.dst];
    out_weight[e.src] += e.weight;
  }

  // Delegate edge placement to the strategy: partition p owns the edges
  // edges()[edge_order[i]] for i in [boundaries[p], boundaries[p+1]), in that order.
  EdgePartitioning plan = partitioner.Partition(edges, num_parts, options);
  const std::vector<uint32_t>& edge_order = plan.edge_order;
  const std::vector<uint64_t>& boundaries = plan.boundaries;
  const std::vector<bool>& is_core_vertex = plan.is_core_vertex;
  CGRAPH_CHECK(edge_order.size() == m);
  CGRAPH_CHECK(boundaries.size() == num_parts + 1ULL);
  CGRAPH_CHECK(boundaries.front() == 0 && boundaries.back() == m);
  for (uint32_t p = 0; p < num_parts; ++p) {
    CGRAPH_CHECK(boundaries[p] <= boundaries[p + 1]);
  }

  PartitionedGraph pg;
  pg.num_vertices_ = n;
  pg.num_edges_ = m;
  pg.partitions_.resize(num_parts);

  std::vector<MasterChoice> master_choice(n);
  // Global vertex -> local id map, reused per partition (reset via epoch stamps).
  std::vector<LocalVertexId> local_id(n, 0);
  std::vector<uint32_t> local_epoch(n, 0);
  uint32_t epoch = 0;

  for (uint32_t pid = 0; pid < num_parts; ++pid) {
    GraphPartition& part = pg.partitions_[pid];
    part.id_ = pid;
    const uint64_t begin = boundaries[pid];
    const uint64_t end = boundaries[pid + 1];
    ++epoch;

    // Pass 1: discover local vertices in first-appearance order.
    auto intern = [&](VertexId v) -> LocalVertexId {
      if (local_epoch[v] != epoch) {
        local_epoch[v] = epoch;
        local_id[v] = static_cast<LocalVertexId>(part.vertices_.size());
        LocalVertexInfo info;
        info.global_id = v;
        info.global_out_degree = out_degree[v];
        info.global_total_degree = total_degree[v];
        info.global_out_weight = out_weight[v];
        part.vertices_.push_back(info);
      }
      return local_id[v];
    };

    const auto& es = edges.edges();
    std::vector<std::pair<LocalVertexId, LocalVertexId>> local_edges;
    std::vector<Weight> local_weights;
    local_edges.reserve(end - begin);
    local_weights.reserve(end - begin);
    bool has_core_edge = false;
    for (uint64_t i = begin; i < end; ++i) {
      const Edge& e = es[edge_order[i]];
      local_edges.emplace_back(intern(e.src), intern(e.dst));
      local_weights.push_back(e.weight);
      if (!is_core_vertex.empty() && is_core_vertex[e.src] && is_core_vertex[e.dst]) {
        has_core_edge = true;
      }
    }
    part.is_core_ = has_core_edge;

    // Pass 2: build local out/in CSR.
    const LocalVertexId lv = part.num_local_vertices();
    part.out_offsets_.assign(lv + 1, 0);
    part.in_offsets_.assign(lv + 1, 0);
    for (const auto& [s, d] : local_edges) {
      ++part.out_offsets_[s + 1];
      ++part.in_offsets_[d + 1];
    }
    for (LocalVertexId v = 0; v < lv; ++v) {
      part.out_offsets_[v + 1] += part.out_offsets_[v];
      part.in_offsets_[v + 1] += part.in_offsets_[v];
    }
    part.out_targets_.resize(local_edges.size());
    part.out_weights_.resize(local_edges.size());
    part.in_targets_.resize(local_edges.size());
    part.in_weights_.resize(local_edges.size());
    std::vector<uint64_t> out_cursor(part.out_offsets_.begin(), part.out_offsets_.end() - 1);
    std::vector<uint64_t> in_cursor(part.in_offsets_.begin(), part.in_offsets_.end() - 1);
    for (size_t i = 0; i < local_edges.size(); ++i) {
      const auto [s, d] = local_edges[i];
      const uint64_t oi = out_cursor[s]++;
      part.out_targets_[oi] = d;
      part.out_weights_[oi] = local_weights[i];
      const uint64_t ii = in_cursor[d]++;
      part.in_targets_[ii] = s;
      part.in_weights_[ii] = local_weights[i];
    }

    // Master election bookkeeping and D(P).
    double degree_sum = 0.0;
    for (LocalVertexId v = 0; v < lv; ++v) {
      const VertexId gid = part.vertices_[v].global_id;
      const uint32_t local_deg = static_cast<uint32_t>(
          (part.out_offsets_[v + 1] - part.out_offsets_[v]) +
          (part.in_offsets_[v + 1] - part.in_offsets_[v]));
      MasterChoice& choice = master_choice[gid];
      if (choice.partition == kInvalidPartition || local_deg > choice.local_edges) {
        choice.partition = pid;
        choice.local_edges = local_deg;
      }
      degree_sum += part.vertices_[v].global_total_degree;
    }
    part.average_degree_ = lv == 0 ? 0.0 : degree_sum / lv;
  }

  // Isolated vertices (no incident edges anywhere) become edge-less masters distributed
  // round-robin so every vertex owns exactly one state slot.
  {
    uint32_t next = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (total_degree[v] == 0) {
        GraphPartition& part = pg.partitions_[next % num_parts];
        ++next;
        LocalVertexInfo info;
        info.global_id = v;
        part.vertices_.push_back(info);
        part.out_offsets_.push_back(part.out_offsets_.back());
        part.in_offsets_.push_back(part.in_offsets_.back());
        master_choice[v] = {part.id_, 0};
      }
    }
  }

  // Resolve masters: record (partition, local) of each vertex's master replica.
  pg.masters_.assign(n, ReplicaRef{});
  for (auto& part : pg.partitions_) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      LocalVertexInfo& info = part.vertices_[v];
      const MasterChoice& choice = master_choice[info.global_id];
      info.master_partition = choice.partition;
      info.is_master = choice.partition == part.id_;
      if (info.is_master) {
        pg.masters_[info.global_id] = ReplicaRef{part.id_, v};
      }
    }
  }
  // Second sweep: fill master_local now that every master's local index is known, and
  // gather mirror lists (master -> mirrors CSR) for the broadcast half of Push.
  std::vector<std::vector<ReplicaRef>> mirrors_by_master_partition(num_parts);
  for (auto& part : pg.partitions_) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      LocalVertexInfo& info = part.vertices_[v];
      info.master_local = pg.masters_[info.global_id].local;
      CGRAPH_DCHECK(pg.masters_[info.global_id].partition == info.master_partition);
    }
  }
  // Mirror CSR per partition: for each master local vertex, the replicas elsewhere.
  {
    // Collect mirrors grouped by (master partition, master local).
    std::vector<std::vector<std::pair<LocalVertexId, ReplicaRef>>> grouped(num_parts);
    for (const auto& part : pg.partitions_) {
      for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
        const LocalVertexInfo& info = part.vertex(v);
        if (!info.is_master) {
          grouped[info.master_partition].push_back({info.master_local, ReplicaRef{part.id(), v}});
        }
      }
    }
    for (uint32_t pid = 0; pid < num_parts; ++pid) {
      GraphPartition& part = pg.partitions_[pid];
      auto& items = grouped[pid];
      std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) {
          return a.first < b.first;
        }
        return a.second.partition < b.second.partition;
      });
      part.mirror_offsets_.assign(part.num_local_vertices() + 1, 0);
      for (const auto& [master_local, ref] : items) {
        ++part.mirror_offsets_[master_local + 1];
      }
      for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
        part.mirror_offsets_[v + 1] += part.mirror_offsets_[v];
      }
      part.mirror_refs_.resize(items.size());
      std::vector<uint64_t> cursor(part.mirror_offsets_.begin(), part.mirror_offsets_.end() - 1);
      for (const auto& [master_local, ref] : items) {
        part.mirror_refs_[cursor[master_local]++] = ref;
      }
      part.structure_bytes_ = ComputeStructureBytes(part);

      // Mirror index: the sync-only vertex sets, ascending, so the Push stage sweeps
      // replicas instead of every local vertex.
      for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
        if (!part.vertices_[v].is_master) {
          part.mirror_locals_.push_back(v);
        } else if (part.mirror_offsets_[v + 1] > part.mirror_offsets_[v]) {
          part.replicated_masters_.push_back(v);
        } else {
          part.interior_locals_.push_back(v);
        }
      }
    }
  }

  pg.quality_ = ComputePartitionQuality(pg, partitioner.kind());

#ifndef NDEBUG
  // Post-conditions, via the same invariant checker the partitioner_test sweep uses.
  // Compiled out of release bench builds; CGRAPH_DCHECK-style cost model.
  const std::vector<std::string> issues = CheckPartitionInvariants(
      edges, pg, partitioner.EdgeCapacity(m, num_parts, options));
  for (const std::string& issue : issues) {
    std::fprintf(stderr, "partition invariant violated: %s\n", issue.c_str());
  }
  CGRAPH_CHECK(issues.empty());
#endif

  return pg;
}

uint32_t SuitablePartitionCount(uint64_t structure_bytes, uint64_t cache_capacity,
                                uint32_t num_jobs, double state_bytes_per_structure_byte,
                                uint64_t reserve_bytes) {
  CGRAPH_CHECK(cache_capacity > reserve_bytes);
  const double usable = static_cast<double>(cache_capacity - reserve_bytes);
  // P_g * (1 + ratio * jobs) <= usable  =>  P_g <= usable / (1 + ratio * jobs).
  const double denom = 1.0 + state_bytes_per_structure_byte * std::max<uint32_t>(1, num_jobs);
  const double pg_bytes = usable / denom;
  if (pg_bytes <= 0.0 || structure_bytes == 0) {
    return 1;
  }
  const double count = static_cast<double>(structure_bytes) / pg_bytes;
  return std::max<uint32_t>(1, static_cast<uint32_t>(std::ceil(count)));
}

}  // namespace cgraph
