// Circuit constraint checking (paper §II, constraints C).
//
// A graph is valid iff
//   C1: every node has exactly arity(type) connected parents, and
//   C2: it contains no combinational loop (every cycle passes a register),
// plus the structural sanity rules implied by the HDL mapping: output
// ports drive nothing, and the graph has at least one output so synthesis
// has an observability anchor.
#pragma once

#include <string>
#include <vector>

#include "graph/dcg.hpp"

namespace syn::graph {

struct ValidationIssue {
  NodeId node = kNoNode;  // kNoNode for graph-level issues
  std::string message;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  [[nodiscard]] bool ok() const { return issues.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Full validity check against constraints C.
ValidationReport validate(const Graph& g);

/// Fast boolean form of validate().
bool is_valid(const Graph& g);

}  // namespace syn::graph
