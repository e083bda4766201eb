// Reference computations of the benchmark's output checks, made apart from
// the program: the benchmark keeps its own copy of every stream graph,
// counts edge-simple paths per projection dimension itself, and applies the
// dominance rule of Lemma 4.2 to decide which queries are candidates.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"

namespace perfbench {

// A node projected vector: (dimension key, count) sorted by key, where the
// key packs (level, parent label, child label).
using RefNpv = std::vector<std::pair<uint64_t, int32_t>>;

// An undirected labeled graph with sorted adjacency, edited by the same
// change batches the engine receives.
class RefGraph {
 public:
  explicit RefGraph(const gsps::Graph& graph);

  // Deletions first, then insertions (§III.B), as the engine applies them.
  void Apply(const gsps::GraphChange& change);

  int num_vertices() const { return static_cast<int>(labels_.size()); }
  int label(int v) const { return labels_[static_cast<size_t>(v)]; }
  const std::vector<int>& neighbors(int v) const { return adj_[static_cast<size_t>(v)]; }

  gsps::Graph ToGraph() const;

 private:
  void EnsureVertex(int v, int label);

  std::vector<int> labels_;
  std::vector<std::vector<int>> adj_;
};

// For every vertex, its NPV at NNT depth `depth`: the number of edge-simple
// paths from the vertex of each length 1..depth, keyed by the level and the
// labels of the path's last edge.
std::vector<RefNpv> ComputeNpvs(const RefGraph& graph, int depth);

// The query vertices' NPVs of every query, precomputed once.
struct RefQuery {
  std::vector<RefNpv> vectors;
};
RefQuery ComputeQuery(const gsps::Graph& query, int depth);

// Lemma 4.2: `q` is a candidate for a stream when each query vertex with a
// non-empty NPV is dominated by the NPV of one stream vertex, and a query
// vertex with an empty NPV is covered by any stream vertex.
bool IsCandidate(const RefQuery& query, const std::vector<RefNpv>& stream);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
