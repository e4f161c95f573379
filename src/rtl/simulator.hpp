// Cycle-accurate word-level simulator for circuit DCGs.
//
// Runs a design at the RTL level, beside the bit-level netlist simulator
// of the synthesis tests. Its tests check that corpus generators (counter,
// ALU, FIFO controller) compute what they claim.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dcg.hpp"

namespace syn::rtl {

/// Simulates a valid graph cycle by cycle. All state starts at zero.
/// Values are held in 64-bit words; node widths above 64 are rejected.
/// The graph is copied, so temporaries are safe to pass.
class Simulator {
 public:
  explicit Simulator(graph::Graph g);

  /// Advances one clock cycle with one input word per primary input, in
  /// node-id order (clamped to each input's width); returns the output port
  /// values in node-id order.
  std::vector<std::uint64_t> step(const std::vector<std::uint64_t>& inputs);

 private:
  [[nodiscard]] std::uint64_t mask_of(graph::NodeId id) const;

  graph::Graph g_;
  std::vector<graph::NodeId> order_;  // combinational evaluation order
  std::vector<graph::NodeId> inputs_, outputs_, regs_;
  std::vector<std::uint64_t> values_;
};

}  // namespace syn::rtl
