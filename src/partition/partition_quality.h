// Partition-quality indices and the partitioner-strategy enum (docs/partitioning.md).
//
// Kept free of heavy includes: both the partition layer and the metrics layer
// (RunReport) embed these types, so this header is the seam between "how the graph was
// laid out" and "what a run reports about it".

#ifndef SRC_PARTITION_PARTITION_QUALITY_H_
#define SRC_PARTITION_PARTITION_QUALITY_H_

#include <cstdint>

namespace cgraph {

class PartitionedGraph;

// Which edge-placement strategy PartitionedGraphBuilder runs (CLI: --partitioner).
// All strategies are vertex-cut: every edge lives in exactly one partition and a vertex
// spanning several partitions is replicated (one master + mirrors). They differ only in
// *which* partition each edge is assigned to — and therefore in how much replication,
// cut, and imbalance the layout carries. See docs/partitioning.md for definitions.
enum class PartitionerKind : uint8_t {
  // The paper's Figure-4 scheme: sort edges (core-subgraph edges first when enabled,
  // then by source) and cut into equal-edge chunks. Balanced by construction; the
  // default, and byte-identical to the pre-partitioner-layer engine.
  kEvenEdge,
  // Hash of the source vertex: keeps each vertex's out-edges together but inherits the
  // power-law imbalance. A comparison point for the partitioning ablation (paper_figures).
  kHashSource,
  // Streaming greedy edge placement: each edge (in deterministic stream order) scores
  // candidate partitions by how many of its endpoints are already resident there,
  // breaking ties toward the lighter partition — replication-minimizing, bounded by a
  // per-partition edge capacity (kGreedyBalance in partitioner.cc).
  kGreedy,
  // Degree-aware placement: every edge follows its lower-total-degree endpoint (hashed),
  // so low-degree vertices keep all their edges local (they never replicate) while only
  // hub vertices — whose replication is amortized over many edges — spread mirrors.
  kDegree,
};

inline const char* PartitionerKindName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kHashSource:
      return "hash_source";
    case PartitionerKind::kGreedy:
      return "greedy";
    case PartitionerKind::kDegree:
      return "degree";
    case PartitionerKind::kEvenEdge:
    default:
      return "even_edge";
  }
}

// Measured layout-quality indices, computed once at build time and carried by
// PartitionedGraph::quality() (and from there into Report() and --report-json).
// Formulas and degenerate-case conventions are specified in docs/partitioning.md:
//
//   edge_cut_fraction   fraction of edges whose endpoints' *master* partitions differ
//                       (0 when the graph has no edges). Every cut edge forces at least
//                       one replica pair to synchronize.
//   replication_factor  total replicas / vertices (1.0 = no replication; 1.0 for the
//                       empty graph). Push-sync cost is directly proportional to the
//                       mirror population this measures.
//   mirror_count        total non-master replicas (replicas - vertices).
//   edge_balance        max per-partition edges * partitions / total edges (>= 1.0;
//                       1.0 = perfectly even; 1.0 for the empty graph). The classic
//                       edge-partitioning load-balance index ("alpha").
//   vertex_balance      max per-partition local vertices * partitions / total replicas
//                       (>= 1.0; 1.0 when every partition holds the same number of
//                       replicas, and for the empty graph).
struct PartitionQuality {
  PartitionerKind partitioner = PartitionerKind::kEvenEdge;
  double edge_cut_fraction = 0.0;
  double replication_factor = 1.0;
  uint64_t mirror_count = 0;
  double edge_balance = 1.0;
  double vertex_balance = 1.0;
};

// Recomputes the indices from a built layout. PartitionedGraphBuilder calls this once
// per build; the invariant checker (partition_debug.h) calls it again to verify the
// stored quality record matches the layout it describes.
PartitionQuality ComputePartitionQuality(const PartitionedGraph& graph,
                                         PartitionerKind partitioner);

}  // namespace cgraph

#endif  // SRC_PARTITION_PARTITION_QUALITY_H_
