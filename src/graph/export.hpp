// Graphviz DOT export of circuit graphs, for visualization.
#pragma once

#include <string>

#include "graph/dcg.hpp"

namespace syn::graph {

/// Graphviz DOT with node types/widths as labels; registers are drawn as
/// boxes, IO as diamonds.
std::string to_dot(const Graph& g);

}  // namespace syn::graph
