// Custom algorithm: implementing a new vertex program against the public API.
//
// The paper's programming model (section 3.4) asks users for three functions —
// IsNotConvergent, Acc, and Compute. This example implements "heat diffusion": vertex 0
// starts hot, and each iteration every vertex absorbs its accumulated incoming heat and
// re-emits a damped share along its out-edges, until flows die out. Structurally it is a
// PageRank-family computation, but with per-edge weighting by the edge's weight rather
// than uniform division — exactly the kind of variant production platforms run dozens of
// concurrently (the paper's motivation).

#include <cstdio>
#include <memory>
#include <numeric>

#include "src/core/ltp_engine.h"
#include "src/core/vertex_program.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"

namespace {

using namespace cgraph;

// Deriving from ProgramBase fixes the Acc (heat accumulates additively) and supplies the
// engine's per-chunk kernels, into which IsActive and Compute below inline.
class HeatDiffusionProgram : public ProgramBase<HeatDiffusionProgram, AccKind::kSum> {
 public:
  HeatDiffusionProgram(VertexId seed_vertex, double retention, double epsilon)
      : seed_(seed_vertex), retention_(retention), epsilon_(epsilon) {}

  std::string_view name() const override { return "heat-diffusion"; }

  // The seed starts with one unit of pending heat; everyone else is cold.
  VertexState InitialState(const LocalVertexInfo& info) const override {
    VertexState state;
    state.value = 0.0;
    state.delta = info.global_id == seed_ ? 1.0 : 0.0;
    return state;
  }

  // A vertex is busy while it has non-negligible pending heat (IsNotConvergent).
  bool IsActive(const VertexState& state) const final { return state.delta > epsilon_; }

  // Absorb pending heat; re-emit (1 - retention) of it along out-edges, proportionally
  // to edge weights. The split divides by the vertex's *global* out-weight: a replicated
  // vertex is computed once per partition, each replica emitting only its local edges'
  // share, so the shares must sum to one across replicas. `ops` is the engine's scatter
  // sink (atomic or plain, as the trigger decides).
  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& state = states[v];
    state.value += retention_ * state.delta;
    const auto targets = partition.out_neighbors(v);
    const auto weights = partition.out_weights(v);
    const double weight_sum = partition.vertex(v).global_out_weight;
    if (targets.empty() || weight_sum <= 0.0) {
      return;
    }
    const double emitted = (1.0 - retention_) * state.delta;
    for (size_t i = 0; i < targets.size(); ++i) {
      ops.Accumulate(targets[i], emitted * weights[i] / weight_sum);
    }
  }

 private:
  VertexId seed_;
  double retention_;
  double epsilon_;
};

}  // namespace

int main() {
  RmatOptions rmat;
  rmat.scale = 11;
  rmat.edge_factor = 8;
  const EdgeList edges = GenerateRmat(rmat);

  PartitionOptions popts;
  popts.num_partitions = 8;
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);

  EngineOptions options;
  options.num_workers = 4;
  LtpEngine engine(&graph, options);
  const JobId job =
      engine.AddJob(std::make_unique<HeatDiffusionProgram>(/*seed_vertex=*/0,
                                                           /*retention=*/0.5,
                                                           /*epsilon=*/1e-9));
  const RunReport report = engine.Run();

  const auto heat = engine.FinalValues(job);
  const double total = std::accumulate(heat.begin(), heat.end(), 0.0);
  size_t warmed = 0;
  for (const double h : heat) {
    if (h > 0.0) {
      ++warmed;
    }
  }
  std::printf("heat diffusion converged in %llu iterations\n",
              static_cast<unsigned long long>(report.jobs[0].iterations));
  std::printf("heat retained in the graph: %.4f (rest left via dangling vertices)\n", total);
  std::printf("vertices warmed: %zu / %u\n", warmed, edges.num_vertices());
  return 0;
}
