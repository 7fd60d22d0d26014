#include "src/algorithms/factory.h"

#include <algorithm>
#include <vector>

#include "src/algorithms/bfs.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/khop.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/common/check.h"

namespace cgraph {

VertexId PickSourceVertex(const EdgeList& edges) {
  if (edges.num_vertices() == 0) {
    return 0;
  }
  std::vector<uint32_t> out_degree(edges.num_vertices(), 0);
  for (const Edge& e : edges.edges()) {
    ++out_degree[e.src];
  }
  // Smallest *positive* out-degree, lowest id on ties. A hub source is replicated into
  // nearly every partition under vertex-cut partitioning, so traversals rooted at one
  // have near-full initial footprints and footprint-aware (overlap) admission
  // cannot discriminate between them; a low-degree source keeps traversal footprints
  // localized. Zero-out-degree vertices are excluded — a traversal from one never
  // leaves its source.
  VertexId best = kInvalidVertex;
  for (VertexId v = 0; v < edges.num_vertices(); ++v) {
    if (out_degree[v] == 0) {
      continue;
    }
    if (best == kInvalidVertex || out_degree[v] < out_degree[best]) {
      best = v;
    }
  }
  return best == kInvalidVertex ? 0 : best;
}

std::vector<VertexId> PickSourcePool(const EdgeList& edges, size_t count) {
  std::vector<uint32_t> out_degree(edges.num_vertices(), 0);
  for (const Edge& e : edges.edges()) {
    ++out_degree[e.src];
  }
  // Same localized-footprint rationale as PickSourceVertex, generalized to the `count`
  // best candidates. A full sort is fine here: pools are small and the call is once per
  // daemon run.
  std::vector<VertexId> candidates;
  for (VertexId v = 0; v < edges.num_vertices(); ++v) {
    if (out_degree[v] > 0) {
      candidates.push_back(v);
    }
  }
  if (candidates.empty()) {
    return {0};
  }
  std::sort(candidates.begin(), candidates.end(), [&](VertexId a, VertexId b) {
    return out_degree[a] != out_degree[b] ? out_degree[a] < out_degree[b] : a < b;
  });
  candidates.resize(std::min(candidates.size(), std::max<size_t>(count, 1)));
  return candidates;
}

std::unique_ptr<VertexProgram> MakeProgram(const std::string& name, VertexId source,
                                           uint32_t k) {
  if (name == "pagerank") {
    // Benchmark-grade tolerance: ~35-40 iterations, comparable to the other jobs in the
    // mix so the four jobs stay concurrently active, as they are on the paper's
    // billion-edge graphs (the correctness tests construct PageRankProgram with tighter
    // epsilons explicitly).
    return std::make_unique<PageRankProgram>(0.85, 1e-4);
  }
  if (name == "sssp") {
    return std::make_unique<SsspProgram>(source);
  }
  if (name == "scc") {
    return std::make_unique<SccProgram>();
  }
  if (name == "bfs") {
    return std::make_unique<BfsProgram>(source);
  }
  if (name == "wcc") {
    return std::make_unique<WccProgram>();
  }
  if (name == "kcore") {
    return std::make_unique<KCoreProgram>(k);
  }
  if (name == "ppr") {
    return std::make_unique<PersonalizedPageRankProgram>(source, 0.85, 1e-7);
  }
  if (name == "khop") {
    return std::make_unique<KHopProgram>(source, k);
  }
  CGRAPH_CHECK(false);
  return nullptr;
}

std::vector<std::string> BenchmarkJobNames(size_t count) {
  static const char* kMix[] = {"pagerank", "sssp", "scc", "bfs"};
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    names.emplace_back(kMix[i % 4]);
  }
  return names;
}

}  // namespace cgraph
