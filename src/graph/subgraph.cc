#include "graph/subgraph.h"

#include "util/check.h"

namespace spectral {

InducedSubgraph BuildInducedSubgraph(const Graph& graph,
                                     std::span<const int64_t> vertices) {
  InducedSubgraph sub;
  sub.local_to_global.assign(vertices.begin(), vertices.end());

  std::vector<int64_t> global_to_local(
      static_cast<size_t>(graph.num_vertices()), -1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    const int64_t v = vertices[i];
    SPECTRAL_CHECK_GE(v, 0);
    SPECTRAL_CHECK_LT(v, graph.num_vertices());
    SPECTRAL_CHECK_EQ(global_to_local[static_cast<size_t>(v)], -1)
        << "duplicate vertex in subgraph selection";
    global_to_local[static_cast<size_t>(v)] = static_cast<int64_t>(i);
  }

  std::vector<GraphEdge> edges;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const int64_t u = vertices[i];
    const auto nbrs = graph.Neighbors(u);
    const auto ws = graph.Weights(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      const int64_t v = nbrs[k];
      if (v <= u) continue;  // visit each undirected edge once
      const int64_t lv = global_to_local[static_cast<size_t>(v)];
      if (lv < 0) continue;
      edges.push_back({static_cast<int64_t>(i), lv, ws[k]});
    }
  }
  sub.graph = Graph::FromEdges(static_cast<int64_t>(vertices.size()), edges);
  return sub;
}

std::vector<InducedSubgraph> SplitByLabel(const Graph& graph,
                                          std::span<const int64_t> labels,
                                          int64_t num_labels) {
  const int64_t n = graph.num_vertices();
  SPECTRAL_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  SPECTRAL_CHECK_GE(num_labels, 0);
  std::vector<InducedSubgraph> parts(static_cast<size_t>(num_labels));
  // local[v] is v's id within its part: the one O(n) scratch array.
  std::vector<int64_t> local(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    const int64_t p = labels[static_cast<size_t>(v)];
    SPECTRAL_CHECK_GE(p, 0);
    SPECTRAL_CHECK_LT(p, num_labels);
    std::vector<int64_t>& members =
        parts[static_cast<size_t>(p)].local_to_global;
    local[static_cast<size_t>(v)] = static_cast<int64_t>(members.size());
    members.push_back(v);
  }
  std::vector<std::vector<GraphEdge>> edges(static_cast<size_t>(num_labels));
  graph.ForEachEdge([&](int64_t u, int64_t v, double w) {
    const int64_t p = labels[static_cast<size_t>(u)];
    if (labels[static_cast<size_t>(v)] != p) return;
    edges[static_cast<size_t>(p)].push_back(
        {local[static_cast<size_t>(u)], local[static_cast<size_t>(v)], w});
  });
  for (size_t p = 0; p < parts.size(); ++p) {
    parts[p].graph = Graph::FromEdges(
        static_cast<int64_t>(parts[p].local_to_global.size()), edges[p]);
  }
  return parts;
}

}  // namespace spectral
