// Parameterized generators of realistic register-rich designs.
//
// These stand in for the paper's 22-design corpus (Table I: ITC'99,
// OpenCores, Chipyard). Each family produces valid cyclic DCGs with the
// structural signatures the paper relies on: feedback loops through
// registers, scale-free-ish fan-out, realistic SCPR (70-100%) and real
// timing paths. Sizes are parameterized so corpora of arbitrary scale can
// be produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dcg.hpp"
#include "util/rng.hpp"

namespace syn::rtl {

// --- individual design families -------------------------------------------

/// Up-counter with enable and synchronous load.
graph::Graph make_counter(int width, const std::string& name = "counter");

/// Serial-in shift register chain of `depth` stages.
graph::Graph make_shift_register(int width, int depth,
                                 const std::string& name = "shiftreg");

/// Galois LFSR / CRC-style feedback shifter over `width` 1-bit stages.
graph::Graph make_lfsr(int width, std::uint32_t taps,
                       const std::string& name = "lfsr");

/// Registered ALU: mux tree selecting between add/sub/and/or/xor/mul.
graph::Graph make_alu(int width, const std::string& name = "alu");

/// Multiply-accumulate pipeline with `stages` register stages.
graph::Graph make_mac_pipeline(int width, int stages,
                               const std::string& name = "mac");

/// FIFO controller: read/write pointers, occupancy counter, full/empty.
graph::Graph make_fifo_ctrl(int ptr_width, const std::string& name = "fifo");

/// Moore FSM over 2^state_bits states with input-dependent transitions.
graph::Graph make_fsm(int state_bits, int outputs,
                      const std::string& name = "fsm");

/// UART-style transmit serializer: baud counter, bit counter, shift reg.
graph::Graph make_uart_tx(int data_bits, const std::string& name = "uart_tx");

/// Register file with one write port and one mux-tree read port.
graph::Graph make_register_file(int num_regs, int width,
                                const std::string& name = "regfile");

/// Round-robin arbiter over `n` requesters with grant registers.
graph::Graph make_arbiter(int n, const std::string& name = "arbiter");

// --- corpus ----------------------------------------------------------------

/// One named design plus its provenance family, mirroring Table I rows.
struct CorpusDesign {
  graph::Graph graph;
  std::string source;  // "itc99-like" | "opencores-like" | "chipyard-like"
};

struct CorpusSpec {
  std::uint64_t seed = 1;
  int itc99_count = 6;      // Table I: 6 ITC'99 designs
  int opencores_count = 8;  // Table I: 8 OpenCores designs
  int chipyard_count = 8;   // Table I: 8 Chipyard designs
  double scale = 1.0;       // multiplies the default size parameters
};

/// Builds the full corpus. The two largest chipyard-like designs are named
/// "TinyRocket" and "Core" so Table II can reference them by name.
std::vector<CorpusDesign> make_corpus(const CorpusSpec& spec);

/// Convenience: graphs only.
std::vector<graph::Graph> corpus_graphs(const CorpusSpec& spec);

}  // namespace syn::rtl
