#include "rtl/simulator.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/validity.hpp"

namespace syn::rtl {

using graph::Graph;
using graph::NodeId;
using graph::NodeType;

Simulator::Simulator(Graph g) : g_(std::move(g)), values_(g_.num_nodes(), 0) {
  if (!g_.all_fanins_complete()) {
    throw std::invalid_argument("Simulator: incomplete fan-ins");
  }
  const auto order = graph::comb_topo_order(g_);
  if (!order) {
    throw std::invalid_argument("Simulator: combinational loop");
  }
  order_ = *order;
  for (NodeId i = 0; i < g_.num_nodes(); ++i) {
    if (g_.width(i) > 64) {
      throw std::invalid_argument("Simulator: width > 64 unsupported");
    }
    switch (g_.type(i)) {
      case NodeType::kInput: inputs_.push_back(i); break;
      case NodeType::kOutput: outputs_.push_back(i); break;
      case NodeType::kReg: regs_.push_back(i); break;
      default: break;
    }
  }
}

std::uint64_t Simulator::mask_of(NodeId id) const {
  const int w = g_.width(id);
  return w >= 64 ? ~0ULL : ((1ULL << w) - 1ULL);
}

std::vector<std::uint64_t> Simulator::step(
    const std::vector<std::uint64_t>& inputs) {
  if (inputs.size() != inputs_.size()) {
    throw std::invalid_argument("Simulator: wrong input count");
  }
  // 1. Latch register next-state values computed from the *previous*
  //    cycle's combinational evaluation.
  std::vector<std::uint64_t> next_state(regs_.size());
  for (std::size_t k = 0; k < regs_.size(); ++k) {
    next_state[k] = values_[g_.fanin(regs_[k], 0)] & mask_of(regs_[k]);
  }
  for (std::size_t k = 0; k < regs_.size(); ++k) {
    values_[regs_[k]] = next_state[k];
  }
  // 2. Apply inputs.
  for (std::size_t k = 0; k < inputs_.size(); ++k) {
    values_[inputs_[k]] = inputs[k] & mask_of(inputs_[k]);
  }
  // 3. Combinational evaluation in topological order.
  for (NodeId n : order_) {
    const auto& fan = g_.fanins(n);
    const std::uint64_t mask = mask_of(n);
    switch (g_.type(n)) {
      case NodeType::kInput:
      case NodeType::kReg:
        break;  // already set
      case NodeType::kConst:
        values_[n] = g_.param(n) & mask;
        break;
      case NodeType::kOutput:
        values_[n] = values_[fan[0]] & mask;
        break;
      case NodeType::kNot:
        values_[n] = ~values_[fan[0]] & mask;
        break;
      case NodeType::kAnd:
        values_[n] = (values_[fan[0]] & values_[fan[1]]) & mask;
        break;
      case NodeType::kOr:
        values_[n] = (values_[fan[0]] | values_[fan[1]]) & mask;
        break;
      case NodeType::kXor:
        values_[n] = (values_[fan[0]] ^ values_[fan[1]]) & mask;
        break;
      case NodeType::kAdd:
        values_[n] = (values_[fan[0]] + values_[fan[1]]) & mask;
        break;
      case NodeType::kSub:
        values_[n] = (values_[fan[0]] - values_[fan[1]]) & mask;
        break;
      case NodeType::kMul:
        values_[n] = (values_[fan[0]] * values_[fan[1]]) & mask;
        break;
      case NodeType::kEq:
        values_[n] = values_[fan[0]] == values_[fan[1]] ? 1 : 0;
        break;
      case NodeType::kLt:
        values_[n] = values_[fan[0]] < values_[fan[1]] ? 1 : 0;
        break;
      case NodeType::kMux:
        values_[n] =
            (values_[fan[0]] != 0 ? values_[fan[1]] : values_[fan[2]]) & mask;
        break;
      case NodeType::kBitSelect:
        values_[n] = (values_[fan[0]] >> g_.param(n)) & mask;
        break;
      case NodeType::kConcat: {
        const int low_width = g_.width(fan[1]);
        values_[n] =
            ((values_[fan[0]] << low_width) | values_[fan[1]]) & mask;
        break;
      }
    }
  }
  std::vector<std::uint64_t> out;
  out.reserve(outputs_.size());
  for (NodeId o : outputs_) out.push_back(values_[o]);
  return out;
}

}  // namespace syn::rtl
