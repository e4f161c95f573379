#include "graph/export.hpp"

#include <sstream>
#include <string>

namespace syn::graph {

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "digraph \"" << (g.name().empty() ? "circuit" : g.name()) << "\" {\n"
     << "  rankdir=LR;\n";
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const NodeType t = g.type(i);
    const char* shape = is_sequential(t) ? "box"
                        : (is_source(t) || is_sink(t)) ? "diamond"
                                                       : "ellipse";
    os << "  n" << i << " [label=\"" << type_name(t) << ":" << g.width(i)
       << "\", shape=" << shape << "];\n";
  }
  for (const auto& [from, to] : g.edges()) {
    os << "  n" << from << " -> n" << to << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace syn::graph
