#include "graph/validity.hpp"

#include <string>

#include "graph/algorithms.hpp"

namespace syn::graph {

std::string ValidationReport::to_string() const {
  if (ok()) return "valid";
  std::string out;
  for (const auto& issue : issues) {
    if (issue.node != kNoNode) {
      out += "node " + std::to_string(issue.node) + ": ";
    }
    out += issue.message + "\n";
  }
  return out;
}

ValidationReport validate(const Graph& g) {
  ValidationReport report;
  bool any_output = false;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const NodeType t = g.type(i);
    any_output = any_output || is_sink(t);
    for (int s = 0; s < arity(t); ++s) {
      const NodeId p = g.fanin(i, s);
      if (p == kNoNode) {
        report.issues.push_back(
            {i, "fan-in slot " + std::to_string(s) + " unconnected (C1)"});
      } else if (is_sink(g.type(p))) {
        report.issues.push_back(
            {i, "driven by output port " + std::to_string(p)});
      }
    }
    if (is_sink(t) && !g.fanouts(i).empty()) {
      report.issues.push_back({i, "output port has fan-out"});
    }
  }
  if (!any_output && g.num_nodes() > 0) {
    report.issues.push_back({kNoNode, "graph has no output port"});
  }
  if (has_combinational_loop(g)) {
    report.issues.push_back({kNoNode, "combinational loop present (C2)"});
  }
  return report;
}

bool is_valid(const Graph& g) { return validate(g).ok(); }

}  // namespace syn::graph
