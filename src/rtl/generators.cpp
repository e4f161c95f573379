#include "rtl/generators.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rtl/builder.hpp"

namespace syn::rtl {

using graph::Graph;
using graph::NodeId;
using graph::NodeType;

namespace {

int clog2(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return std::max(bits, 1);
}

}  // namespace

Graph make_counter(int width, const std::string& name) {
  Builder b(name);
  const NodeId en = b.input(1);
  const NodeId load = b.input(1);
  const NodeId d = b.input(width);
  const NodeId cnt = b.reg(width);
  const NodeId one = b.constant(width, 1);
  const NodeId inc = b.add(cnt, one);
  const NodeId next_loaded = b.mux(load, d, inc);
  const NodeId next = b.mux(en, next_loaded, cnt);
  b.drive_reg(cnt, next);
  const NodeId limit = b.constant(width, 0xffffffffU);
  const NodeId wrap = b.eq(cnt, limit);
  const NodeId wrap_r = b.reg(1);
  b.drive_reg(wrap_r, wrap);
  // Activity monitor: which bits will toggle next cycle (inc is adjacent
  // to both cnt and changed — the triangle motif of real RTL).
  const NodeId changed = b.xor_(inc, cnt);
  const NodeId changed_r = b.reg(width);
  b.drive_reg(changed_r, changed);
  b.output(cnt);
  b.output(wrap_r);
  b.output(changed_r);
  return b.take();
}

Graph make_shift_register(int width, int depth, const std::string& name) {
  Builder b(name);
  const NodeId d = b.input(width);
  const NodeId recirc = b.input(1);
  std::vector<NodeId> stages(static_cast<std::size_t>(depth));
  for (auto& r : stages) r = b.reg(width);
  // Recirculating tap: stage 0 reloads either fresh data or the tail,
  // giving the design the sequential feedback loop real shifters have.
  b.drive_reg(stages[0], b.mux(recirc, stages.back(), d));
  for (int i = 1; i < depth; ++i) {
    b.drive_reg(stages[static_cast<std::size_t>(i)],
                stages[static_cast<std::size_t>(i - 1)]);
  }
  b.output(stages.back());
  b.output(b.xor_(stages.front(), stages.back()));
  return b.take();
}

Graph make_lfsr(int width, std::uint32_t taps, const std::string& name) {
  if (width < 2) throw std::invalid_argument("lfsr width must be >= 2");
  Builder b(name);
  const NodeId seed_in = b.input(1);
  std::vector<NodeId> bits(static_cast<std::size_t>(width));
  for (auto& r : bits) r = b.reg(1);
  const NodeId fb = bits.back();
  b.drive_reg(bits[0], b.xor_(fb, seed_in));
  for (int i = 1; i < width; ++i) {
    if (taps & (1U << i)) {
      b.drive_reg(bits[static_cast<std::size_t>(i)],
                  b.xor_(bits[static_cast<std::size_t>(i - 1)], fb));
    } else {
      b.drive_reg(bits[static_cast<std::size_t>(i)],
                  bits[static_cast<std::size_t>(i - 1)]);
    }
  }
  // Expose the state as a word through a concat tree.
  std::vector<NodeId> layer = bits;
  int w = 1;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(b.concat(layer[i], layer[i + 1], std::min(2 * w, width)));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
    w *= 2;
  }
  b.output(layer.front());
  b.output(fb);
  return b.take();
}

Graph make_alu(int width, const std::string& name) {
  Builder b(name);
  const NodeId a_in = b.input(width);
  const NodeId c = b.input(width);
  const NodeId op = b.input(3);
  const NodeId acc_mode = b.input(1);
  // Accumulator feedback: operand A can recirculate the registered result.
  const NodeId result_r = b.reg(width);
  const NodeId a = b.mux(acc_mode, result_r, a_in);
  const NodeId s0 = b.bit(op, 0);
  const NodeId s1 = b.bit(op, 1);
  const NodeId s2 = b.bit(op, 2);
  const NodeId r_add = b.add(a, c);
  const NodeId r_sub = b.sub(a, c);
  const NodeId r_and = b.and_(a, c);
  const NodeId r_or = b.or_(a, c);
  const NodeId r_xor = b.xor_(a, c);
  const NodeId r_mul = b.mul(a, c);
  const NodeId m0 = b.mux(s0, r_add, r_sub);
  const NodeId m1 = b.mux(s0, r_and, r_or);
  const NodeId m2 = b.mux(s0, r_xor, r_mul);
  const NodeId m3 = b.mux(s1, m0, m1);
  const NodeId m4 = b.mux(s1, m2, m0);
  const NodeId result = b.mux(s2, m3, m4);
  b.drive_reg(result_r, result);
  const NodeId zero = b.constant(width, 0);
  const NodeId is_zero = b.eq(result, zero);
  const NodeId flag_r = b.reg(1);
  b.drive_reg(flag_r, is_zero);
  const NodeId lt_flag = b.lt(a, c);
  const NodeId lt_r = b.reg(1);
  b.drive_reg(lt_r, lt_flag);
  // Overflow-style flag: compares the sum against an operand (r_add is
  // adjacent to a, giving the triangle motif of carry/overflow logic).
  const NodeId ovf = b.lt(r_add, a);
  const NodeId ovf_r = b.reg(1);
  b.drive_reg(ovf_r, ovf);
  b.output(result_r);
  b.output(flag_r);
  b.output(lt_r);
  b.output(ovf_r);
  return b.take();
}

Graph make_mac_pipeline(int width, int stages, const std::string& name) {
  Builder b(name);
  const NodeId a = b.input(width);
  const NodeId c = b.input(width);
  const NodeId valid = b.input(1);
  const NodeId clear = b.input(1);
  NodeId stage = b.mul(a, c);
  NodeId vstage = valid;
  for (int i = 0; i < stages; ++i) {
    const NodeId pr = b.reg(width);
    b.drive_reg(pr, stage);
    stage = pr;
    const NodeId vr = b.reg(1);
    b.drive_reg(vr, vstage);
    vstage = vr;
  }
  const NodeId acc = b.reg(width);
  const NodeId sum = b.add(acc, stage);
  const NodeId kept = b.mux(vstage, sum, acc);  // kept/sum/acc: triangle
  const NodeId zero = b.constant(width, 0);
  b.drive_reg(acc, b.mux(clear, zero, kept));
  // Saturation-style detect on the accumulate path (sum adj acc adj det).
  const NodeId det = b.lt(sum, acc);
  const NodeId det_r = b.reg(1);
  b.drive_reg(det_r, det);
  b.output(acc);
  b.output(vstage);
  b.output(det_r);
  return b.take();
}

Graph make_fifo_ctrl(int ptr_width, const std::string& name) {
  Builder b(name);
  const NodeId push = b.input(1);
  const NodeId pop = b.input(1);
  const NodeId wptr = b.reg(ptr_width);
  const NodeId rptr = b.reg(ptr_width);
  const NodeId count = b.reg(ptr_width + 1);
  const NodeId max = b.constant(ptr_width + 1, 1U << ptr_width);
  const NodeId zero = b.constant(ptr_width + 1, 0);
  const NodeId one_p = b.constant(ptr_width, 1);
  const NodeId one_c = b.constant(ptr_width + 1, 1);
  const NodeId full = b.eq(count, max);
  const NodeId empty = b.eq(count, zero);
  const NodeId push_ok = b.and_(push, b.not_(full));
  const NodeId pop_ok = b.and_(pop, b.not_(empty));
  b.drive_reg(wptr, b.mux(push_ok, b.add(wptr, one_p), wptr));
  b.drive_reg(rptr, b.mux(pop_ok, b.add(rptr, one_p), rptr));
  const NodeId up = b.and_(push_ok, b.not_(pop_ok));
  const NodeId down = b.and_(pop_ok, b.not_(push_ok));
  const NodeId next_count =
      b.mux(up, b.add(count, one_c), b.mux(down, b.sub(count, one_c), count));
  b.drive_reg(count, next_count);
  // Level-change strobe (count and next_count are adjacent, so this forms
  // the triangle motif of real datapaths).
  const NodeId level_change = b.xor_(count, next_count);
  const NodeId strobe_r = b.reg(ptr_width + 1);
  b.drive_reg(strobe_r, level_change);
  b.output(full);
  b.output(empty);
  b.output(wptr);
  b.output(rptr);
  b.output(count);
  b.output(strobe_r);
  return b.take();
}

Graph make_fsm(int state_bits, int outputs, const std::string& name) {
  Builder b(name);
  const int num_states = 1 << state_bits;
  const NodeId in0 = b.input(1);
  const NodeId in1 = b.input(1);
  const NodeId state = b.reg(state_bits);
  // Per-state transition targets; every state has an input-dependent branch.
  NodeId next = state;
  for (int k = num_states - 1; k >= 0; --k) {
    const NodeId kc = b.constant(state_bits, static_cast<std::uint32_t>(k));
    const NodeId at_k = b.eq(state, kc);
    const NodeId t_a = b.constant(
        state_bits, static_cast<std::uint32_t>((k * 5 + 1) % num_states));
    const NodeId t_b = b.constant(
        state_bits, static_cast<std::uint32_t>((k * 3 + 2) % num_states));
    const NodeId branch = b.mux(k % 2 == 0 ? in0 : in1, t_a, t_b);
    next = b.mux(at_k, branch, next);
  }
  b.drive_reg(state, next);
  for (int j = 0; j < outputs; ++j) {
    const NodeId target = b.constant(
        state_bits, static_cast<std::uint32_t>((j * 7 + 1) % num_states));
    const NodeId hit = b.eq(state, target);
    const NodeId hit_r = b.reg(1);
    b.drive_reg(hit_r, hit);
    b.output(hit_r);
  }
  b.output(state);
  return b.take();
}

Graph make_uart_tx(int data_bits, const std::string& name) {
  Builder b(name);
  const int cnt_bits = clog2(data_bits + 2);
  const NodeId start = b.input(1);
  const NodeId data = b.input(data_bits);
  // Baud-rate divider.
  const NodeId baud = b.reg(4);
  const NodeId baud_max = b.constant(4, 15);
  const NodeId tick = b.eq(baud, baud_max);
  const NodeId one4 = b.constant(4, 1);
  const NodeId zero4 = b.constant(4, 0);
  b.drive_reg(baud, b.mux(tick, zero4, b.add(baud, one4)));
  // Busy flag and bit counter.
  const NodeId busy = b.reg(1);
  const NodeId bitcnt = b.reg(cnt_bits);
  const NodeId bits_max =
      b.constant(cnt_bits, static_cast<std::uint32_t>(data_bits + 1));
  const NodeId done = b.eq(bitcnt, bits_max);
  const NodeId go = b.and_(start, b.not_(busy));
  const NodeId stop = b.and_(tick, done);
  b.drive_reg(busy, b.mux(go, b.constant(1, 1), b.mux(stop, b.constant(1, 0), busy)));
  const NodeId cnt_step = b.and_(tick, busy);
  const NodeId zero_c = b.constant(cnt_bits, 0);
  const NodeId one_c = b.constant(cnt_bits, 1);
  b.drive_reg(bitcnt,
              b.mux(go, zero_c, b.mux(cnt_step, b.add(bitcnt, one_c), bitcnt)));
  // Shift register loaded on go, shifted on tick.
  std::vector<NodeId> sh(static_cast<std::size_t>(data_bits));
  for (auto& r : sh) r = b.reg(1);
  const NodeId shift_en = b.and_(tick, busy);
  for (int i = 0; i < data_bits; ++i) {
    const NodeId load_bit = b.bit(data, i);
    const NodeId from_next =
        i + 1 < data_bits ? sh[static_cast<std::size_t>(i + 1)]
                          : b.constant(1, 1);  // stop bit fills in
    const NodeId shifted =
        b.mux(shift_en, from_next, sh[static_cast<std::size_t>(i)]);
    b.drive_reg(sh[static_cast<std::size_t>(i)], b.mux(go, load_bit, shifted));
  }
  const NodeId tx = b.mux(busy, sh[0], b.constant(1, 1));
  b.output(tx);
  b.output(busy);
  b.output(bitcnt);
  return b.take();
}

Graph make_register_file(int num_regs, int width, const std::string& name) {
  Builder b(name);
  const int addr_bits = clog2(num_regs);
  const NodeId wen = b.input(1);
  const NodeId waddr = b.input(addr_bits);
  const NodeId wdata = b.input(width);
  const NodeId raddr = b.input(addr_bits);
  std::vector<NodeId> regs(static_cast<std::size_t>(num_regs));
  for (int i = 0; i < num_regs; ++i) {
    const NodeId r = b.reg(width);
    const NodeId sel =
        b.eq(waddr, b.constant(addr_bits, static_cast<std::uint32_t>(i)));
    const NodeId we = b.and_(wen, sel);
    b.drive_reg(r, b.mux(we, wdata, r));
    regs[static_cast<std::size_t>(i)] = r;
  }
  NodeId rd = regs.back();
  for (int i = num_regs - 2; i >= 0; --i) {
    const NodeId sel =
        b.eq(raddr, b.constant(addr_bits, static_cast<std::uint32_t>(i)));
    rd = b.mux(sel, regs[static_cast<std::size_t>(i)], rd);
  }
  const NodeId rd_r = b.reg(width);
  b.drive_reg(rd_r, rd);
  b.output(rd_r);
  return b.take();
}

Graph make_arbiter(int n, const std::string& name) {
  Builder b(name);
  std::vector<NodeId> req(static_cast<std::size_t>(n));
  for (auto& r : req) r = b.input(1);
  std::vector<NodeId> grant(static_cast<std::size_t>(n));
  for (auto& g : grant) g = b.reg(1);
  // lock = any grant currently held and still requested
  NodeId lock = b.and_(grant[0], req[0]);
  for (int i = 1; i < n; ++i) {
    lock = b.or_(lock, b.and_(grant[static_cast<std::size_t>(i)],
                              req[static_cast<std::size_t>(i)]));
  }
  // priority chain
  NodeId blocked = b.constant(1, 0);
  for (int i = 0; i < n; ++i) {
    const NodeId p = b.and_(req[static_cast<std::size_t>(i)], b.not_(blocked));
    b.drive_reg(grant[static_cast<std::size_t>(i)],
                b.mux(lock, grant[static_cast<std::size_t>(i)], p));
    blocked = b.or_(blocked, req[static_cast<std::size_t>(i)]);
    b.output(grant[static_cast<std::size_t>(i)]);
  }
  b.output(lock);
  return b.take();
}

namespace {

/// Small in-order CPU-like core: register file feeding an ALU feeding a
/// result pipeline that writes back into the register file — the dominant
/// structure of the "chipyard-like" corpus entries.
Graph make_core(int width, int num_regs, int stages, const std::string& name) {
  Builder b(name);
  const int addr_bits = clog2(num_regs);
  const NodeId ra = b.input(addr_bits);
  const NodeId rb = b.input(addr_bits);
  const NodeId wa = b.input(addr_bits);
  const NodeId wen = b.input(1);
  const NodeId op = b.input(3);
  const NodeId imm = b.input(width);
  const NodeId use_imm = b.input(1);

  std::vector<NodeId> regs(static_cast<std::size_t>(num_regs));
  for (auto& r : regs) r = b.reg(width);

  auto read_port = [&](NodeId addr) {
    NodeId v = regs.back();
    for (int i = num_regs - 2; i >= 0; --i) {
      const NodeId sel =
          b.eq(addr, b.constant(addr_bits, static_cast<std::uint32_t>(i)));
      v = b.mux(sel, regs[static_cast<std::size_t>(i)], v);
    }
    return v;
  };
  const NodeId opa = read_port(ra);
  const NodeId opb_reg = read_port(rb);
  const NodeId opb = b.mux(use_imm, imm, opb_reg);

  // ALU
  const NodeId s0 = b.bit(op, 0);
  const NodeId s1 = b.bit(op, 1);
  const NodeId s2 = b.bit(op, 2);
  const NodeId sum = b.add(opa, opb);
  const NodeId m0 = b.mux(s0, sum, b.sub(opa, opb));
  const NodeId m1 = b.mux(s0, b.and_(opa, opb), b.xor_(opa, opb));
  const NodeId m2 = b.mux(s0, b.mul(opa, opb), b.or_(opa, opb));
  const NodeId m3 = b.mux(s1, m0, m1);
  const NodeId alu = b.mux(s2, m3, m2);

  // Result / writeback pipeline (wen and waddr travel with the data).
  NodeId data = alu;
  NodeId vwen = wen;
  NodeId vwaddr = wa;
  for (int s = 0; s < stages; ++s) {
    const NodeId dr = b.reg(width);
    b.drive_reg(dr, data);
    data = dr;
    const NodeId vr = b.reg(1);
    b.drive_reg(vr, vwen);
    vwen = vr;
    const NodeId ar = b.reg(addr_bits);
    b.drive_reg(ar, vwaddr);
    vwaddr = ar;
  }
  for (int i = 0; i < num_regs; ++i) {
    const NodeId sel =
        b.eq(vwaddr, b.constant(addr_bits, static_cast<std::uint32_t>(i)));
    const NodeId we = b.and_(vwen, sel);
    b.drive_reg(regs[static_cast<std::size_t>(i)],
                b.mux(we, data, regs[static_cast<std::size_t>(i)]));
  }
  const NodeId zero = b.constant(width, 0);
  const NodeId zflag = b.reg(1);
  b.drive_reg(zflag, b.eq(data, zero));
  // Carry/overflow detect across the adder (sum and opa are adjacent) and
  // a result-activity strobe across the writeback pipeline — the triangle
  // motifs every real core's flag logic exhibits.
  const NodeId carry = b.lt(sum, opa);
  const NodeId carry_r = b.reg(1);
  b.drive_reg(carry_r, carry);
  const NodeId activity = b.xor_(alu, data);
  const NodeId activity_r = b.reg(width);
  b.drive_reg(activity_r, activity);
  b.output(data);
  b.output(zflag);
  b.output(vwen);
  b.output(carry_r);
  b.output(activity_r);
  return b.take();
}

int jitter(util::Rng& rng, int base, int spread) {
  return base + static_cast<int>(rng.uniform_int(
                    static_cast<std::uint64_t>(2 * spread + 1))) -
         spread;
}

}  // namespace

std::vector<CorpusDesign> make_corpus(const CorpusSpec& spec) {
  util::Rng rng(spec.seed);
  std::vector<CorpusDesign> corpus;
  const auto s = [&](int v) {
    return std::max(2, static_cast<int>(v * spec.scale));
  };

  // itc99-like: control-dominated FSMs, counters, LFSRs (b01, b02, ...).
  for (int i = 0; i < spec.itc99_count; ++i) {
    const std::string name = "b" + std::string(i < 9 ? "0" : "") +
                             std::to_string(i + 1);
    Graph g;
    switch (i % 3) {
      case 0:
        g = make_fsm(std::min(2 + i / 3 + static_cast<int>(spec.scale), 6),
                     s(jitter(rng, 4, 2)), name);
        break;
      case 1:
        g = make_counter(s(jitter(rng, 12, 4)), name);
        break;
      default:
        g = make_lfsr(s(jitter(rng, 16, 4)), 0xA3011U | (1U << (i % 8 + 1)),
                      name);
        break;
    }
    corpus.push_back({std::move(g), "itc99-like"});
  }

  // opencores-like: peripheral blocks.
  const char* oc_names[] = {"uart_tx",  "fifo_sync", "alu32",  "shift32",
                            "regfile8", "arb4",      "mac_dsp", "crc16"};
  for (int i = 0; i < spec.opencores_count; ++i) {
    const std::string name = oc_names[i % 8];
    Graph g;
    switch (i % 8) {
      case 0: g = make_uart_tx(s(jitter(rng, 8, 2)), name); break;
      case 1: g = make_fifo_ctrl(s(jitter(rng, 5, 1)), name); break;
      case 2: g = make_alu(s(jitter(rng, 16, 6)), name); break;
      case 3: g = make_shift_register(s(jitter(rng, 8, 2)),
                                      s(jitter(rng, 10, 3)), name); break;
      case 4: g = make_register_file(s(jitter(rng, 8, 2)),
                                     s(jitter(rng, 12, 4)), name); break;
      case 5: g = make_arbiter(s(jitter(rng, 6, 2)), name); break;
      case 6: g = make_mac_pipeline(s(jitter(rng, 12, 4)),
                                    s(jitter(rng, 3, 1)), name); break;
      default: g = make_lfsr(s(jitter(rng, 16, 2)), 0x1021U, name); break;
    }
    corpus.push_back({std::move(g), "opencores-like"});
  }

  // chipyard-like: core-style composites; the two largest are the Table II
  // reference designs.
  for (int i = 0; i < spec.chipyard_count; ++i) {
    std::string name = "soc_unit" + std::to_string(i);
    int width = s(jitter(rng, 12, 4));
    int nregs = s(jitter(rng, 8, 2));
    int stages = 1 + i % 3;
    if (i == spec.chipyard_count - 1) {
      name = "TinyRocket";
      width = s(16);
      nregs = s(14);
      stages = 2;
    } else if (i == spec.chipyard_count - 2) {
      name = "Core";
      width = s(20);
      nregs = s(10);
      stages = 3;
    }
    corpus.push_back({make_core(width, nregs, stages, name), "chipyard-like"});
  }
  return corpus;
}

std::vector<graph::Graph> corpus_graphs(const CorpusSpec& spec) {
  std::vector<graph::Graph> graphs;
  for (auto& d : make_corpus(spec)) graphs.push_back(std::move(d.graph));
  return graphs;
}

}  // namespace syn::rtl
