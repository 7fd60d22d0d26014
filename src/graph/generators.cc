#include "src/graph/generators.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/check.h"
#include "src/common/prng.h"

namespace cgraph {
namespace {

// Fisher–Yates permutation of [0, n) driven by our deterministic PRNG.
std::vector<VertexId> RandomPermutation(VertexId n, Xoshiro256& rng) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  for (VertexId i = n; i > 1; --i) {
    const uint64_t j = rng.NextBounded(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Weight DrawWeight(double max_weight, Xoshiro256& rng) {
  if (max_weight <= 1.0) {
    return 1.0f;
  }
  return static_cast<Weight>(1.0 + rng.NextDouble() * (max_weight - 1.0));
}

}  // namespace

EdgeList GenerateRmat(const RmatOptions& options) {
  CGRAPH_CHECK(options.a + options.b + options.c <= 1.0 + 1e-9);
  CGRAPH_CHECK(options.scale < 32);  // VertexId is 32-bit.
  const VertexId n = VertexId{1} << options.scale;
  const uint64_t m = static_cast<uint64_t>(options.edge_factor) * n;
  Xoshiro256 rng(options.seed);
  const std::vector<VertexId> perm = RandomPermutation(n, rng);

  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    VertexId src = 0;
    VertexId dst = 0;
    for (uint32_t bit = 0; bit < options.scale; ++bit) {
      const double r = rng.NextDouble();
      // Quadrant selection with slight per-level noise is unnecessary for our purposes;
      // plain R-MAT already yields the heavy-tailed degrees we need.
      uint32_t quadrant;
      if (r < options.a) {
        quadrant = 0;
      } else if (r < options.a + options.b) {
        quadrant = 1;
      } else if (r < options.a + options.b + options.c) {
        quadrant = 2;
      } else {
        quadrant = 3;
      }
      src = (src << 1) | (quadrant >> 1);
      dst = (dst << 1) | (quadrant & 1);
    }
    edges.push_back(Edge{perm[src], perm[dst], DrawWeight(options.max_weight, rng)});
  }

  EdgeList list(n, std::move(edges));
  if (options.remove_self_loops) {
    list.RemoveSelfLoops();
  }
  if (options.dedup) {
    list.SortAndDedup();
  }
  return list;
}

EdgeList GenerateErdosRenyi(VertexId n, uint64_t m, uint64_t seed) {
  CGRAPH_CHECK(n > 0);
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    const VertexId src = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId dst = static_cast<VertexId>(rng.NextBounded(n));
    edges.push_back(Edge{src, dst, DrawWeight(8.0, rng)});
  }
  EdgeList list(n, std::move(edges));
  list.RemoveSelfLoops();
  list.SortAndDedup();
  return list;
}

EdgeList GenerateRing(VertexId n) {
  EdgeList list;
  list.set_num_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    list.Add(v, (v + 1) % n);
  }
  return list;
}

EdgeList GeneratePath(VertexId n) {
  EdgeList list;
  list.set_num_vertices(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    list.Add(v, v + 1);
  }
  return list;
}

EdgeList GenerateStar(VertexId n) {
  EdgeList list;
  list.set_num_vertices(n);
  for (VertexId v = 1; v < n; ++v) {
    list.Add(0, v);
    list.Add(v, 0);
  }
  return list;
}

EdgeList GenerateGrid(VertexId rows, VertexId cols) {
  EdgeList list;
  list.set_num_vertices(rows * cols);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        list.Add(id(r, c), id(r, c + 1));
        list.Add(id(r, c + 1), id(r, c));
      }
      if (r + 1 < rows) {
        list.Add(id(r, c), id(r + 1, c));
        list.Add(id(r + 1, c), id(r, c));
      }
    }
  }
  return list;
}

EdgeList GenerateComplete(VertexId n) {
  EdgeList list;
  list.set_num_vertices(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i != j) {
        list.Add(i, j);
      }
    }
  }
  return list;
}

}  // namespace cgraph
