// One job's private vertex-state table, split per partition (paper Fig. 4(b)).
//
// Layout mirrors the structure partitions: private partition i holds one VertexState per
// local vertex of structure partition i, indexed by local id. The per-partition byte sizes
// feed the cache/memory simulation (private tables are what job batches rotate through
// while a structure partition stays pinned).

#ifndef SRC_STORAGE_PRIVATE_TABLE_H_
#define SRC_STORAGE_PRIVATE_TABLE_H_

#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/vertex_state.h"

namespace cgraph {

class PrivateTable {
 public:
  PrivateTable() = default;

  // Allocates state rows matching `graph`'s partition layout.
  explicit PrivateTable(const PartitionedGraph& graph) {
    partitions_.resize(graph.num_partitions());
    for (PartitionId p = 0; p < graph.num_partitions(); ++p) {
      partitions_[p].assign(graph.partition(p).num_local_vertices(), VertexState{});
    }
  }

  uint32_t num_partitions() const { return static_cast<uint32_t>(partitions_.size()); }

  std::span<VertexState> partition(PartitionId p) {
    CGRAPH_DCHECK(p < partitions_.size());
    return partitions_[p];
  }
  std::span<const VertexState> partition(PartitionId p) const {
    CGRAPH_DCHECK(p < partitions_.size());
    return partitions_[p];
  }

  // Bytes of private partition p, as charged to the hierarchy.
  uint64_t partition_bytes(PartitionId p) const {
    return partitions_[p].size() * sizeof(VertexState);
  }

  uint64_t total_bytes() const {
    uint64_t total = 0;
    for (const auto& part : partitions_) {
      total += part.size() * sizeof(VertexState);
    }
    return total;
  }

 private:
  std::vector<std::vector<VertexState>> partitions_;
};

// Readback: `field` (e.g. &VertexState::value) of every global vertex of `layout`, taken
// from its master replica in `table`.
inline std::vector<double> ReadMasters(const PartitionedGraph& layout, const PrivateTable& table,
                                       double VertexState::*field) {
  std::vector<double> values(layout.num_vertices(), 0.0);
  for (VertexId v = 0; v < layout.num_vertices(); ++v) {
    const ReplicaRef master = layout.master_of(v);
    values[v] = table.partition(master.partition)[master.local].*field;
  }
  return values;
}

}  // namespace cgraph

#endif  // SRC_STORAGE_PRIVATE_TABLE_H_
