#include "src/partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace cgraph {
namespace {

// SplitMix-style avalanche so consecutive ids spread across partitions. Shared by the
// hash_source and degree strategies so their placements stay comparable.
uint32_t HashBucket(VertexId v, uint32_t num_parts) {
  uint64_t z = (static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<uint32_t>((z ^ (z >> 31)) % num_parts);
}

// Identity edge order, the starting point of every strategy's deterministic ordering.
std::vector<uint32_t> IotaOrder(uint64_t m) {
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

// Sorts an edge-index order by (src, dst), the canonical stream order. stable_sort so
// duplicate (src, dst) pairs keep their input order — part of the determinism contract.
void SortBySourceThenTarget(const EdgeList& edges, std::vector<uint32_t>* order) {
  const auto& es = edges.edges();
  std::stable_sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    if (es[a].src != es[b].src) {
      return es[a].src < es[b].src;
    }
    return es[a].dst < es[b].dst;
  });
}

std::vector<uint32_t> ComputeTotalDegree(const EdgeList& edges) {
  std::vector<uint32_t> total_degree(edges.num_vertices(), 0);
  for (const Edge& e : edges.edges()) {
    ++total_degree[e.src];
    ++total_degree[e.dst];
  }
  return total_degree;
}

// Groups a streamed assignment into the plan representation: partition p receives its
// edges in stream order (a stable counting sort), which fixes the local-vertex
// interning order deterministically.
EdgePartitioning GroupByAssignment(const std::vector<uint32_t>& stream_order,
                                   const std::vector<PartitionId>& assignment,
                                   uint32_t num_parts) {
  EdgePartitioning plan;
  plan.boundaries.assign(num_parts + 1, 0);
  for (PartitionId p : assignment) {
    ++plan.boundaries[p + 1];
  }
  for (uint32_t p = 0; p < num_parts; ++p) {
    plan.boundaries[p + 1] += plan.boundaries[p];
  }
  plan.edge_order.resize(stream_order.size());
  std::vector<uint64_t> cursor(plan.boundaries.begin(), plan.boundaries.end() - 1);
  for (size_t i = 0; i < stream_order.size(); ++i) {
    plan.edge_order[cursor[assignment[i]]++] = stream_order[i];
  }
  return plan;
}

// The paper's Figure-4 scheme, moved verbatim out of the old inline builder: sort edges
// (core-subgraph edges leading when enabled, then by source/target) and cut the sorted
// order into equal-edge chunks. Byte-identical to the pre-partitioner-layer layout.
class EvenEdgePartitioner final : public Partitioner {
 public:
  PartitionerKind kind() const override { return PartitionerKind::kEvenEdge; }

  EdgePartitioning Partition(const EdgeList& edges, uint32_t num_parts,
                             const PartitionOptions& options) const override {
    const VertexId n = edges.num_vertices();
    const uint64_t m = edges.num_edges();
    EdgePartitioning plan;
    plan.edge_order = IotaOrder(m);
    if (options.core_subgraph && n > 0 && m > 0) {
      const std::vector<uint32_t> total_degree = ComputeTotalDegree(edges);
      const double avg = 2.0 * static_cast<double>(m) / static_cast<double>(n);
      const double threshold = options.core_degree_multiplier * avg;
      plan.is_core_vertex.resize(n, false);
      for (VertexId v = 0; v < n; ++v) {
        plan.is_core_vertex[v] = static_cast<double>(total_degree[v]) > threshold;
      }
      const auto& es = edges.edges();
      const auto& core = plan.is_core_vertex;
      std::stable_sort(plan.edge_order.begin(), plan.edge_order.end(),
                       [&](uint32_t a, uint32_t b) {
                         const bool core_a = core[es[a].src] && core[es[a].dst];
                         const bool core_b = core[es[b].src] && core[es[b].dst];
                         if (core_a != core_b) {
                           return core_a;  // Core edges first.
                         }
                         if (es[a].src != es[b].src) {
                           return es[a].src < es[b].src;
                         }
                         return es[a].dst < es[b].dst;
                       });
    } else {
      SortBySourceThenTarget(edges, &plan.edge_order);
    }
    plan.boundaries.resize(num_parts + 1);
    for (uint32_t p = 0; p <= num_parts; ++p) {
      plan.boundaries[p] = m * p / num_parts;  // Equal-edge chunks.
    }
    return plan;
  }

  uint64_t EdgeCapacity(uint64_t num_edges, uint32_t num_parts,
                        const PartitionOptions& options) const override {
    (void)options;
    // Equal chunks differ by at most one edge.
    return num_parts == 0 ? 0 : num_edges / num_parts + 1;
  }
};

// Hash of the source vertex: keeps each vertex's out-edges together but inherits the power-law imbalance.
class HashSourcePartitioner final : public Partitioner {
 public:
  PartitionerKind kind() const override { return PartitionerKind::kHashSource; }

  EdgePartitioning Partition(const EdgeList& edges, uint32_t num_parts,
                             const PartitionOptions& options) const override {
    (void)options;
    const uint64_t m = edges.num_edges();
    const auto& es = edges.edges();
    EdgePartitioning plan;
    plan.edge_order = IotaOrder(m);
    std::stable_sort(plan.edge_order.begin(), plan.edge_order.end(),
                     [&](uint32_t a, uint32_t b) {
                       const uint32_t ba = HashBucket(es[a].src, num_parts);
                       const uint32_t bb = HashBucket(es[b].src, num_parts);
                       if (ba != bb) {
                         return ba < bb;
                       }
                       if (es[a].src != es[b].src) {
                         return es[a].src < es[b].src;
                       }
                       return es[a].dst < es[b].dst;
                     });
    plan.boundaries.assign(num_parts + 1, 0);
    for (uint64_t i = 0; i < m; ++i) {
      ++plan.boundaries[HashBucket(es[plan.edge_order[i]].src, num_parts) + 1];
    }
    for (uint32_t p = 0; p < num_parts; ++p) {
      plan.boundaries[p + 1] += plan.boundaries[p];
    }
    return plan;
  }
};

// Greedy imbalance budget: each partition accepts at most ceil(kGreedyBalance * m / P)
// edges. Below 1.0 the partitions could not hold every edge.
constexpr double kGreedyBalance = 1.05;
static_assert(kGreedyBalance >= 1.0, "greedy placement would run out of room");

// Streaming greedy edge placement (the PowerGraph-style greedy vertex-cut): edges
// stream in canonical (src, dst) order; each scores every candidate partition by how
// many of its endpoints already have a replica there, tie-breaking toward the lighter
// partition, then the lower id. A per-partition capacity
// ceil(kGreedyBalance * m / num_parts) bounds imbalance — at every step at least one
// partition is below capacity (capacity * num_parts >= m > edges placed so far), so
// placement never gets stuck.
class GreedyPartitioner final : public Partitioner {
 public:
  PartitionerKind kind() const override { return PartitionerKind::kGreedy; }

  EdgePartitioning Partition(const EdgeList& edges, uint32_t num_parts,
                             const PartitionOptions& options) const override {
    const VertexId n = edges.num_vertices();
    const uint64_t m = edges.num_edges();
    const auto& es = edges.edges();
    std::vector<uint32_t> stream = IotaOrder(m);
    SortBySourceThenTarget(edges, &stream);

    const uint64_t capacity = EdgeCapacity(m, num_parts, options);
    const uint32_t words = (num_parts + 63) / 64;
    // resident[v * words + w] bit b set <=> vertex v already has a replica in
    // partition w * 64 + b.
    std::vector<uint64_t> resident(static_cast<uint64_t>(n) * words, 0);
    std::vector<uint64_t> occupied(num_parts, 0);
    std::vector<PartitionId> assignment(m, 0);

    auto resident_in = [&](VertexId v, uint32_t p) -> uint32_t {
      return (resident[static_cast<uint64_t>(v) * words + p / 64] >> (p % 64)) & 1u;
    };
    auto mark_resident = [&](VertexId v, uint32_t p) {
      resident[static_cast<uint64_t>(v) * words + p / 64] |= uint64_t{1} << (p % 64);
    };

    for (uint64_t i = 0; i < m; ++i) {
      const Edge& e = es[stream[i]];
      uint32_t best = num_parts;  // Sentinel: no candidate chosen yet.
      uint32_t best_score = 0;
      for (uint32_t p = 0; p < num_parts; ++p) {
        if (occupied[p] >= capacity) {
          continue;
        }
        const uint32_t score = resident_in(e.src, p) + resident_in(e.dst, p);
        if (best == num_parts || score > best_score ||
            (score == best_score && occupied[p] < occupied[best])) {
          best = p;
          best_score = score;
        }
      }
      CGRAPH_DCHECK(best < num_parts);
      assignment[i] = best;
      ++occupied[best];
      mark_resident(e.src, best);
      mark_resident(e.dst, best);
    }
    return GroupByAssignment(stream, assignment, num_parts);
  }

  uint64_t EdgeCapacity(uint64_t num_edges, uint32_t num_parts,
                        const PartitionOptions& options) const override {
    (void)options;
    if (num_parts == 0) {
      return 0;
    }
    const double per_part = kGreedyBalance * static_cast<double>(num_edges) /
                            static_cast<double>(num_parts);
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(per_part)));
  }
};

// Degree-aware placement (degree-based hashing): every edge follows its
// lower-total-degree endpoint. Low-degree vertices keep all their edges in one
// partition (they never replicate — locality packing), while hub vertices, whose
// mirrors are amortized over many edges, are the only ones that spread. Hub-hub edges
// hash by the smaller of the two hubs, which spreads the heaviest masters' edge load
// across the hash range first.
class DegreePartitioner final : public Partitioner {
 public:
  PartitionerKind kind() const override { return PartitionerKind::kDegree; }

  EdgePartitioning Partition(const EdgeList& edges, uint32_t num_parts,
                             const PartitionOptions& options) const override {
    (void)options;
    const uint64_t m = edges.num_edges();
    const auto& es = edges.edges();
    const std::vector<uint32_t> total_degree = ComputeTotalDegree(edges);
    std::vector<uint32_t> stream = IotaOrder(m);
    SortBySourceThenTarget(edges, &stream);
    std::vector<PartitionId> assignment(m, 0);
    for (uint64_t i = 0; i < m; ++i) {
      const Edge& e = es[stream[i]];
      // Ties pick the source so self-loops and equal-degree pairs stay deterministic.
      const VertexId pivot = total_degree[e.src] <= total_degree[e.dst] ? e.src : e.dst;
      assignment[i] = HashBucket(pivot, num_parts);
    }
    return GroupByAssignment(stream, assignment, num_parts);
  }
};

}  // namespace

std::unique_ptr<Partitioner> MakePartitioner(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kHashSource:
      return std::make_unique<HashSourcePartitioner>();
    case PartitionerKind::kGreedy:
      return std::make_unique<GreedyPartitioner>();
    case PartitionerKind::kDegree:
      return std::make_unique<DegreePartitioner>();
    case PartitionerKind::kEvenEdge:
    default:
      return std::make_unique<EvenEdgePartitioner>();
  }
}

}  // namespace cgraph
