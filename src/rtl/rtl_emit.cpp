#include "rtl/rtl_emit.hpp"

#include <charconv>
#include <optional>
#include <string_view>
#include <type_traits>

#include "rtl/names.hpp"
#include "support/strings.hpp"

namespace hls {

namespace {

/// Where one bit of a value lives at a given cycle.
struct BitSource {
  enum Kind { Zero, One, Port, Net, Reg } kind = Zero;
  std::uint32_t id = 0;  ///< node index (Port/Net) or register index (Reg)
  unsigned bit = 0;      ///< bit position within the source signal
};

/// The emitted text: one std::string, text appended verbatim and integers
/// through std::to_chars.
struct Text {
  std::string s;

  Text& operator<<(std::string_view v) {
    s.append(v);
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  Text& operator<<(T v) {
    char buf[24];
    s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
};

class RtlEmitter {
public:
  RtlEmitter(const TransformResult& t, const FragSchedule& fs, const Datapath& dp)
      : dfg_(t.spec), dp_(dp), runs_(dp.stored, t.spec.size()),
        latency_(t.latency), names_(node_names(t.spec)) {
    cycle_of_.assign(dfg_.size(), UINT32_MAX);
    for (const ScheduleRow& r : fs.schedule.rows) {
      cycle_of_[r.op.index] = r.cycle;
    }
  }

  std::string run();

private:
  /// Source of bit `bit` of node `node` as read in `cycle`; empty when it
  /// is an Add bit that neither this cycle computes nor a stored run holds
  /// (recorded in missing_node_ and missing_bit_).
  std::optional<BitSource> bit_source(NodeId node, unsigned bit,
                                      unsigned cycle) {
    const Node& n = dfg_.node(node);
    switch (n.kind) {
      case OpKind::Input:
        return BitSource{BitSource::Port, node.index, bit};
      case OpKind::Const:
        return BitSource{((n.value >> bit) & 1) ? BitSource::One : BitSource::Zero,
                         0, 0};
      case OpKind::Add: {
        if (cycle_of_[node.index] == cycle) {
          return BitSource{BitSource::Net, node.index, bit};
        }
        // Cross-cycle: the stored run the allocator planned (verified by
        // simulate_datapath).
        if (const StoredRun* run = runs_.covering(node, bit, cycle)) {
          return BitSource{BitSource::Reg, static_cast<std::uint32_t>(run->reg),
                           bit - run->bits.lo};
        }
        missing_node_ = node.index;
        missing_bit_ = bit;
        return std::nullopt;
      }
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Xor:
      case OpKind::Not:
        // Glue is emitted as its own net (a process variable) in every cycle
        // whose sources are available, so a glue bit reads that net.
        return BitSource{BitSource::Net, node.index, bit};
      case OpKind::Concat: {
        unsigned base = 0;
        for (const Operand& part : n.operands) {
          if (bit < base + part.bits.width) {
            return bit_source(part.node, part.bits.lo + (bit - base), cycle);
          }
          base += part.bits.width;
        }
        return BitSource{BitSource::Zero, 0, 0};
      }
      default:
        HLS_ASSERT(false, "RTL emission requires a kernel-form spec");
    }
  }

  /// Appends the VHDL expression for an operand slice zero-extended to
  /// `target` bits, assembled MSB-first from maximal uniform segments.
  /// Appends nothing and returns false when some bit has no source.
  bool operand_expr(const Operand& o, unsigned target, unsigned cycle) {
    segs_.clear();  // LSB-first
    for (unsigned b = 0; b < target; ++b) {
      BitSource s{BitSource::Zero, 0, 0};
      if (b < o.bits.width) {
        const std::optional<BitSource> found =
            bit_source(o.node, o.bits.lo + b, cycle);
        if (!found) return false;
        s = *found;
      }
      const bool extends =
          !segs_.empty() && segs_.back().src.kind == s.kind &&
          ((s.kind == BitSource::Zero || s.kind == BitSource::One)
               ? true
               : (segs_.back().src.id == s.id &&
                  segs_.back().src.bit + segs_.back().width == s.bit));
      if (extends) {
        segs_.back().width++;
      } else {
        segs_.push_back(Segment{s, 1});
      }
    }
    if (segs_.size() > 1) out_ << "(";
    for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
      const Segment& seg = *it;
      if (it != segs_.rbegin()) out_ << " & ";
      switch (seg.src.kind) {
        case BitSource::Zero:
        case BitSource::One:
          out_ << "\"";
          out_.s.append(seg.width, seg.src.kind == BitSource::One ? '1' : '0');
          out_ << "\"";
          continue;
        case BitSource::Port:
          out_ << names_[seg.src.id];
          break;
        case BitSource::Net:
          out_ << "v_" << names_[seg.src.id];
          break;
        case BitSource::Reg:
          out_ << "r" << seg.src.id;
          break;
      }
      out_ << "(" << seg.src.bit + seg.width - 1 << " downto " << seg.src.bit
           << ")";
    }
    if (segs_.size() > 1) out_ << ")";
    return true;
  }

  /// operand_expr for an Add scheduled in `cycle`: every bit it reads must
  /// have a source.
  void add_operand(const Operand& o, unsigned width, unsigned cycle) {
    if (!operand_expr(o, width, cycle)) {
      throw Error(strformat(
          "RTL emission: bit %u of %%%u read in cycle %u has no source",
          missing_bit_, missing_node_, cycle));
    }
  }

  /// Emits the computation of every net (add or glue) needed in `cycle`, in
  /// topological order, as process variables.
  void emit_cycle(unsigned cycle) {
    // Which nets does this cycle need? Adds scheduled here, plus glue feeding
    // them (glue is cheap to recompute; emit any glue whose sources are all
    // available — conservatively every glue node, each cycle it is consumed).
    for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
      const Node& n = dfg_.node(NodeId{i});
      if (n.kind == OpKind::Add && cycle_of_[i] == cycle) {
        out_ << "          v_" << names_[i] << " := std_logic_vector(unsigned(";
        add_operand(n.operands[0], n.width, cycle);
        out_ << ") + unsigned(";
        add_operand(n.operands[1], n.width, cycle);
        out_ << ")";
        if (n.has_carry_in()) {
          out_ << " + unsigned(";
          add_operand(n.operands[2], n.width, cycle);
          out_ << ")";
        }
        out_ << ");\n";
      } else if (is_glue(n.kind)) {
        // Emit glue nets every cycle (pure wiring; synthesis prunes). Glue
        // whose sources are unavailable this cycle is not consumed this
        // cycle either: its line is taken back whole.
        const char* op = n.kind == OpKind::And   ? " and "
                         : n.kind == OpKind::Or  ? " or "
                         : n.kind == OpKind::Xor ? " xor "
                                                 : nullptr;
        const std::size_t line = out_.s.size();
        out_ << "          v_" << names_[i] << " := ";
        bool whole;
        if (op != nullptr) {
          whole = operand_expr(n.operands[0], n.width, cycle);
          if (whole) {
            out_ << op;
            whole = operand_expr(n.operands[1], n.width, cycle);
          }
        } else {
          out_ << "not ";
          whole = operand_expr(n.operands[0], n.width, cycle);
        }
        if (!whole) {
          out_.s.resize(line);
          continue;
        }
        out_ << ";\n";
      }
    }
    // Register loads: runs produced in this cycle.
    for (const StoredRun& run : dp_.stored) {
      if (run.produced != cycle) continue;
      out_ << "          r" << run.reg << "(" << run.bits.width - 1
           << " downto 0) <= v_" << names_[run.node.index] << "("
           << run.bits.msb() << " downto " << run.bits.lo << ");\n";
    }
    // Output latches: latch the whole port in every cycle where all of its
    // bits resolve to live sources; otherwise the line is taken back whole.
    for (NodeId out : dfg_.outputs()) {
      const Operand& o = dfg_.node(out).operands[0];
      const std::size_t line = out_.s.size();
      out_ << "          " << names_[out.index] << "_r <= ";
      if (!operand_expr(o, o.bits.width, cycle)) {
        out_.s.resize(line);  // not fully available yet
        continue;
      }
      out_ << ";\n";
    }
  }

  struct Segment {
    BitSource src;
    unsigned width;
  };

  const Dfg& dfg_;
  const Datapath& dp_;
  const StoredRunIndex runs_;
  unsigned latency_;
  std::vector<std::string> names_;
  std::vector<unsigned> cycle_of_;
  std::vector<Segment> segs_;  ///< operand_expr's scratch
  /// The Add bit bit_source last found no source for.
  std::uint32_t missing_node_ = 0;
  unsigned missing_bit_ = 0;
  Text out_;
};

std::string RtlEmitter::run() {
  const std::string entity = sanitize_id(dfg_.name(), "design") + "_rtl";
  Text& os = out_;
  os << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  os << "entity " << entity << " is\n";
  os << "port (clk: in std_logic;\n      rst: in std_logic;\n";
  for (NodeId id : dfg_.inputs()) {
    os << "      " << names_[id.index] << ": in std_logic_vector("
       << dfg_.node(id).width - 1 << " downto 0);\n";
  }
  for (NodeId id : dfg_.outputs()) {
    os << "      " << names_[id.index] << ": out std_logic_vector("
       << dfg_.node(id).width - 1 << " downto 0);\n";
  }
  os << "      done: out std_logic);\n";
  os << "end " << entity << ";\n\n";
  os << "architecture rtl of " << entity << " is\n";
  os << "  signal state: natural range 0 to " << latency_ - 1 << " := 0;\n";
  for (std::size_t r = 0; r < dp_.regs.size(); ++r) {
    os << "  signal r" << r << ": std_logic_vector(" << dp_.regs[r].width - 1
       << " downto 0);\n";
  }
  for (NodeId id : dfg_.outputs()) {
    os << "  signal " << names_[id.index] << "_r: std_logic_vector("
       << dfg_.node(id).width - 1 << " downto 0);\n";
  }
  os << "begin\n";
  for (NodeId id : dfg_.outputs()) {
    os << "  " << names_[id.index] << " <= " << names_[id.index] << "_r;\n";
  }
  os << "  done <= '1' when state = " << latency_ - 1 << " else '0';\n\n";
  os << "  main: process(clk)\n";
  for (std::uint32_t i = 0; i < dfg_.size(); ++i) {
    const Node& n = dfg_.node(NodeId{i});
    if (n.kind == OpKind::Add || is_glue(n.kind)) {
      os << "    variable v_" << names_[i] << ": std_logic_vector("
         << n.width - 1 << " downto 0);\n";
    }
  }
  os << "  begin\n";
  os << "    if rising_edge(clk) then\n";
  os << "      if rst = '1' then\n        state <= 0;\n";
  os << "      else\n";
  os << "        case state is\n";
  for (unsigned c = 0; c < latency_; ++c) {
    os << "        when " << c << " =>\n";
    emit_cycle(c);
    os << "          state <= " << (c + 1 == latency_ ? 0 : c + 1) << ";\n";
  }
  os << "        end case;\n";
  os << "      end if;\n";
  os << "    end if;\n";
  os << "  end process main;\n";
  os << "end rtl;\n";
  return std::move(os.s);
}

} // namespace

std::string emit_rtl_vhdl(const TransformResult& t, const FragSchedule& fs,
                          const Datapath& dp) {
  RtlEmitter e(t, fs, dp);
  return e.run();
}

} // namespace hls
