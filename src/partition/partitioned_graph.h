// Vertex-cut partitioned graph with master/mirror replicas.
//
// This realizes the storage layout of paper Figure 4: edges are evenly divided into
// same-sized partitions; a vertex appearing in several partitions has one *master* replica
// and mirrors elsewhere; each partition's item records the vertex id, its local edge list,
// the master flag, the master location, and per-edge information. Communication happens
// only when replicas synchronize (the Push stage), never while a partition is processed.

#ifndef SRC_PARTITION_PARTITIONED_GRAPH_H_
#define SRC_PARTITION_PARTITIONED_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/graph/edge_list.h"
#include "src/partition/partition_quality.h"

namespace cgraph {

class Partitioner;

// Location of a replica: (partition, local index inside that partition's tables).
struct ReplicaRef {
  PartitionId partition = kInvalidPartition;
  LocalVertexId local = 0;

  friend bool operator==(const ReplicaRef& a, const ReplicaRef& b) {
    return a.partition == b.partition && a.local == b.local;
  }
};

// Per-local-vertex metadata (paper Fig. 4(b): "Vertex ID | Edge List | Flag | Master
// Location | edge info"). The edge list itself lives in the partition's CSR arrays.
struct LocalVertexInfo {
  VertexId global_id = kInvalidVertex;
  PartitionId master_partition = kInvalidPartition;
  LocalVertexId master_local = 0;
  bool is_master = false;
  uint32_t global_out_degree = 0;  // Needed by PageRank's contribution division.
  uint32_t global_total_degree = 0;
  // Sum of all out-edge weights across every partition: weighted-diffusion programs must
  // normalize by this, not by the local share, or replicated vertices over-emit.
  float global_out_weight = 0.0f;
};

// One graph-structure partition: local-id CSR in both directions plus replica metadata.
class GraphPartition {
 public:
  PartitionId id() const { return id_; }
  bool is_core() const { return is_core_; }
  double average_degree() const { return average_degree_; }

  LocalVertexId num_local_vertices() const { return static_cast<LocalVertexId>(vertices_.size()); }
  uint64_t num_local_edges() const { return out_targets_.size(); }

  const LocalVertexInfo& vertex(LocalVertexId v) const { return vertices_[v]; }
  const std::vector<LocalVertexInfo>& vertices() const { return vertices_; }

  // Out-edges of local vertex v (targets are local ids in this partition).
  std::span<const LocalVertexId> out_neighbors(LocalVertexId v) const {
    return {out_targets_.data() + out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]};
  }
  std::span<const Weight> out_weights(LocalVertexId v) const {
    return {out_weights_.data() + out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]};
  }
  std::span<const LocalVertexId> in_neighbors(LocalVertexId v) const {
    return {in_targets_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
  }
  std::span<const Weight> in_weights(LocalVertexId v) const {
    return {in_weights_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
  }

  // Mirror replicas of local master v (empty for mirrors and unreplicated masters).
  std::span<const ReplicaRef> mirrors_of(LocalVertexId v) const {
    return {mirror_refs_.data() + mirror_offsets_[v], mirror_offsets_[v + 1] - mirror_offsets_[v]};
  }

  // Mirror index (built once by PartitionedGraphBuilder): the local ids that are mirror
  // replicas, ascending. The Push stage's mirror-delta collection walks exactly these
  // instead of filtering every local vertex.
  std::span<const LocalVertexId> mirror_locals() const { return mirror_locals_; }

  // The local ids that are masters with at least one mirror elsewhere, ascending — the
  // only vertices whose merged values the broadcast phase can need to re-send.
  std::span<const LocalVertexId> replicated_masters() const { return replicated_masters_; }

  // Interior vertices: masters with no replicas anywhere, ascending. Every contribution
  // such a vertex can ever receive is scattered within this partition, so the async
  // trigger stage may consume its delta_next mid-iteration without touching (or racing
  // with) replica synchronization.
  std::span<const LocalVertexId> interior_locals() const { return interior_locals_; }

  // Total mirror replicas of this partition's masters (== sum of mirrors_of() sizes);
  // bounds the mirror->master sync records this partition can receive in one iteration.
  uint64_t num_mirror_refs() const { return mirror_refs_.size(); }

  // Bytes this partition's structure occupies (vertex records + both CSR directions);
  // drives the cache/memory simulation.
  uint64_t structure_bytes() const { return structure_bytes_; }

  // Returns a copy with `num_rewires` out-edges re-pointed to pseudo-random local targets
  // (weights redrawn, in-CSR rebuilt). Vertex membership, master/mirror metadata, and the
  // edge count are preserved, so per-job private-table layouts stay valid across snapshot
  // versions — this is how SnapshotStore materializes a changed partition (section 3.2.1).
  GraphPartition RewireClone(uint64_t num_rewires, uint64_t seed) const;

 private:
  friend class PartitionedGraphBuilder;

  PartitionId id_ = kInvalidPartition;
  bool is_core_ = false;
  double average_degree_ = 0.0;  // D(P) in Eq. 1: mean global degree of local vertices.
  uint64_t structure_bytes_ = 0;

  std::vector<LocalVertexInfo> vertices_;
  std::vector<uint64_t> out_offsets_;
  std::vector<LocalVertexId> out_targets_;
  std::vector<Weight> out_weights_;
  std::vector<uint64_t> in_offsets_;
  std::vector<LocalVertexId> in_targets_;
  std::vector<Weight> in_weights_;
  std::vector<uint64_t> mirror_offsets_;
  std::vector<ReplicaRef> mirror_refs_;
  // Derived indices (not counted in structure_bytes_, which models the paper's layout).
  std::vector<LocalVertexId> mirror_locals_;
  std::vector<LocalVertexId> replicated_masters_;
  std::vector<LocalVertexId> interior_locals_;
};

struct PartitionOptions {
  // Number of partitions (same-sized by edge count under kEvenEdge).
  uint32_t num_partitions = 8;
  // Edge-placement strategy (CLI: --partitioner; see docs/partitioning.md).
  PartitionerKind partitioner = PartitionerKind::kEvenEdge;
  // Core-subgraph partitioning (paper section 3.3): group edges between high-degree "core"
  // vertices into dedicated partitions so reloading hubs does not drag early-converged
  // low-degree vertices along. Only meaningful under the even_edge strategy.
  bool core_subgraph = true;
  // A vertex is core when its total degree exceeds multiplier * average total degree.
  double core_degree_multiplier = 8.0;
};

class PartitionedGraph {
 public:
  VertexId num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_partitions() const { return static_cast<uint32_t>(partitions_.size()); }

  const GraphPartition& partition(PartitionId p) const { return partitions_[p]; }
  const std::vector<GraphPartition>& partitions() const { return partitions_; }

  // Master replica location of a global vertex (every vertex has exactly one master).
  ReplicaRef master_of(VertexId v) const { return masters_[v]; }

  // Sum over vertices of replica count / num_vertices (1.0 = no replication).
  double replication_factor() const;

  uint64_t total_structure_bytes() const;

  // Layout-quality indices measured once at build time (partition_quality.h). Records
  // which strategy produced this layout and what it cost in cut/replication/balance.
  const PartitionQuality& quality() const { return quality_; }

 private:
  friend class PartitionedGraphBuilder;

  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  std::vector<GraphPartition> partitions_;
  std::vector<ReplicaRef> masters_;
  PartitionQuality quality_;
};

// Builds a PartitionedGraph from an edge list. Deterministic for fixed inputs/options.
class PartitionedGraphBuilder {
 public:
  // Resolves options.partitioner through MakePartitioner and delegates to the explicit-strategy overload below.
  static PartitionedGraph Build(const EdgeList& edges, const PartitionOptions& options);

  // Builds with an explicit strategy: the partitioner produces the edge-placement plan;
  // the builder constructs CSRs, elects masters, wires the mirror indices, and records
  // quality indices — identically for every strategy. In debug builds the result is
  // checked against the shared invariant checker (partition_debug.h).
  static PartitionedGraph Build(const EdgeList& edges, const PartitionOptions& options,
                                const Partitioner& partitioner);
};

// Paper section 3.2.1 "Suitable Size of Graph Partition": the partition byte size P_g is
// the largest value with P_g + (P_g / s_g) * s_p * num_jobs + reserve <= cache_capacity.
// Returns the resulting number of partitions for a graph of `structure_bytes` total
// (at least 1).
uint32_t SuitablePartitionCount(uint64_t structure_bytes, uint64_t cache_capacity,
                                uint32_t num_jobs, double state_bytes_per_structure_byte,
                                uint64_t reserve_bytes);

}  // namespace cgraph

#endif  // SRC_PARTITION_PARTITIONED_GRAPH_H_
