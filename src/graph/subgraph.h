// Induced subgraphs. SplitByLabel is the one splitter behind every
// spectral-family engine: core/spectral_lpm splits into connected
// components, recursive bisection into the components of each half, and
// the sharded engine into shards. BuildInducedSubgraph keeps an arbitrary
// vertex order, which the bisection's median cut needs.

#ifndef SPECTRAL_LPM_GRAPH_SUBGRAPH_H_
#define SPECTRAL_LPM_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace spectral {

/// The subgraph induced by `vertices` plus the local->global vertex map.
struct InducedSubgraph {
  Graph graph;
  /// local_to_global[i] is the original id of local vertex i.
  std::vector<int64_t> local_to_global;
};

/// Builds the subgraph induced by `vertices` (must be distinct, in range).
/// Edges with both endpoints inside are kept with their weights; vertex i of
/// the result corresponds to vertices[i].
InducedSubgraph BuildInducedSubgraph(const Graph& graph,
                                     std::span<const int64_t> vertices);

/// Splits `graph` by vertex label in one O(n + m) pass: part p is the
/// subgraph induced by the vertices v with labels[v] == p, in ascending id
/// order — the same graph BuildInducedSubgraph returns for that ascending
/// list. A label no vertex carries gives an empty part. `labels` must hold
/// one label in [0, num_labels) per vertex.
std::vector<InducedSubgraph> SplitByLabel(const Graph& graph,
                                          std::span<const int64_t> labels,
                                          int64_t num_labels);

}  // namespace spectral

#endif  // SPECTRAL_LPM_GRAPH_SUBGRAPH_H_
