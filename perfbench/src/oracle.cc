#include "oracle.h"

#include <algorithm>

namespace perfbench {
namespace {

uint64_t DimKey(int level, int parent_label, int child_label) {
  return (static_cast<uint64_t>(level) << 48) |
         (static_cast<uint64_t>(static_cast<uint32_t>(parent_label)) << 24) |
         static_cast<uint64_t>(static_cast<uint32_t>(child_label) & 0xffffffu);
}

uint64_t EdgeId(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) | static_cast<uint32_t>(b);
}

// Depth-first enumeration of the edge-simple paths leaving `at`; `used`
// holds the edges of the path so far.
void Walk(const RefGraph& g, int at, int level, int depth, std::vector<uint64_t>& used,
          std::vector<uint64_t>& keys) {
  if (level > depth) return;
  for (const int next : g.neighbors(at)) {
    const uint64_t edge = EdgeId(at, next);
    if (std::find(used.begin(), used.end(), edge) != used.end()) continue;
    keys.push_back(DimKey(level, g.label(at), g.label(next)));
    used.push_back(edge);
    Walk(g, next, level + 1, depth, used, keys);
    used.pop_back();
  }
}

RefNpv Collapse(std::vector<uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  RefNpv npv;
  for (const uint64_t key : keys) {
    if (!npv.empty() && npv.back().first == key) {
      ++npv.back().second;
    } else {
      npv.emplace_back(key, 1);
    }
  }
  return npv;
}

// True when `hay` has at least `needle`'s count in each of its dimensions.
bool Dominates(const RefNpv& hay, const RefNpv& needle) {
  size_t i = 0;
  for (const auto& [key, count] : needle) {
    while (i < hay.size() && hay[i].first < key) ++i;
    if (i == hay.size() || hay[i].first != key || hay[i].second < count) return false;
  }
  return true;
}

}  // namespace

RefGraph::RefGraph(const gsps::Graph& graph) {
  for (gsps::VertexId v = 0; v < graph.VertexIdBound(); ++v) {
    if (!graph.HasVertex(v)) continue;
    EnsureVertex(v, graph.GetVertexLabel(v));
    for (const gsps::HalfEdge& e : graph.Neighbors(v)) {
      adj_[static_cast<size_t>(v)].push_back(e.to);
    }
  }
}

void RefGraph::EnsureVertex(int v, int label) {
  if (v >= num_vertices()) {
    labels_.resize(static_cast<size_t>(v) + 1, -1);
    adj_.resize(static_cast<size_t>(v) + 1);
  }
  if (labels_[static_cast<size_t>(v)] < 0) labels_[static_cast<size_t>(v)] = label;
}

void RefGraph::Apply(const gsps::GraphChange& change) {
  const auto erase = [](std::vector<int>& list, int x) {
    const auto it = std::lower_bound(list.begin(), list.end(), x);
    if (it == list.end() || *it != x) return false;
    list.erase(it);
    return true;
  };
  const auto insert = [](std::vector<int>& list, int x) {
    const auto it = std::lower_bound(list.begin(), list.end(), x);
    if (it != list.end() && *it == x) return;
    list.insert(it, x);
  };
  for (const gsps::EdgeOp& op : change.ops) {
    if (op.kind != gsps::EdgeOp::Kind::kDelete) continue;
    if (op.u >= num_vertices() || op.v >= num_vertices()) continue;
    if (erase(adj_[static_cast<size_t>(op.u)], op.v)) erase(adj_[static_cast<size_t>(op.v)], op.u);
  }
  for (const gsps::EdgeOp& op : change.ops) {
    if (op.kind != gsps::EdgeOp::Kind::kInsert || op.u == op.v) continue;
    EnsureVertex(op.u, op.u_label);
    EnsureVertex(op.v, op.v_label);
    insert(adj_[static_cast<size_t>(op.u)], op.v);
    insert(adj_[static_cast<size_t>(op.v)], op.u);
  }
}

gsps::Graph RefGraph::ToGraph() const {
  gsps::Graph graph;
  for (int v = 0; v < num_vertices(); ++v) {
    if (labels_[static_cast<size_t>(v)] >= 0) graph.EnsureVertex(v, labels_[static_cast<size_t>(v)]);
  }
  for (int v = 0; v < num_vertices(); ++v) {
    for (const int u : adj_[static_cast<size_t>(v)]) {
      if (v < u) graph.AddEdge(v, u, 0);
    }
  }
  return graph;
}

std::vector<RefNpv> ComputeNpvs(const RefGraph& graph, int depth) {
  std::vector<RefNpv> npvs;
  std::vector<uint64_t> used, keys;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    keys.clear();
    Walk(graph, v, 1, depth, used, keys);
    npvs.push_back(Collapse(keys));
  }
  return npvs;
}

RefQuery ComputeQuery(const gsps::Graph& query, int depth) {
  RefQuery out;
  out.vectors = ComputeNpvs(RefGraph(query), depth);
  return out;
}

bool IsCandidate(const RefQuery& query, const std::vector<RefNpv>& stream) {
  for (const RefNpv& needle : query.vectors) {
    if (needle.empty()) {
      if (stream.empty()) return false;
      continue;
    }
    bool covered = false;
    for (const RefNpv& hay : stream) {
      if (Dominates(hay, needle)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace perfbench
