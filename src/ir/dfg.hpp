#pragma once
// Data-flow graph of a behavioural specification.
//
// Nodes are stored in a vector and referenced by NodeId; operands reference a
// *bit slice* of a producer's result, which is how the transformed
// specifications of the paper ("0" & A(5 downto 0), carry-in chains, ...) are
// expressed without separate slice nodes. The node vector is always in
// topological order: an operand may only reference an earlier node.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/op.hpp"
#include "support/bitrange.hpp"
#include "support/error.hpp"

namespace hls {

struct Digest;  // ir/hash.hpp

/// Strongly-typed index of a node within its Dfg.
struct NodeId {
  std::uint32_t index = UINT32_MAX;
  constexpr bool valid() const { return index != UINT32_MAX; }
  friend constexpr bool operator==(NodeId, NodeId) = default;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

inline constexpr NodeId kInvalidNode{};

/// A use of a bit slice of another node's result, zero-extended by the
/// consumer to whatever width it needs.
struct Operand {
  NodeId node;
  BitRange bits;  ///< slice of the producer's result used here

  Operand() = default;
  Operand(NodeId n, BitRange b) : node(n), bits(b) {}
  friend bool operator==(const Operand&, const Operand&) = default;
};

struct Node {
  OpKind kind = OpKind::Input;
  unsigned width = 0;        ///< result width in bits
  bool is_signed = false;    ///< two's-complement semantics (pre-kernel only)
  std::vector<Operand> operands;
  std::string name;          ///< port name for Input/Output; label otherwise
  std::uint64_t value = 0;   ///< literal for Const

  /// True when this Add has a third, 1-bit carry-in operand.
  bool has_carry_in() const { return kind == OpKind::Add && operands.size() == 3; }

  /// True when result bit `b` of this Add lies beyond both operand slices:
  /// the "adder" there only forwards the carry (sum = carry, carry-out = 0),
  /// so the bit costs no ripple delay. The exposed carry-out bit of a
  /// fragment add (Fig. 2 a's C(6) for a 6-bit slice) is the canonical case:
  /// it emerges together with the last real sum bit.
  bool add_bit_is_free(unsigned b) const {
    return kind == OpKind::Add && b >= operands[0].bits.width &&
           b >= operands[1].bits.width;
  }
};

/// The behavioural specification as a DFG. Append-only construction keeps
/// the node vector topologically ordered by construction.
class Dfg {
public:
  Dfg() = default;
  explicit Dfg(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) {
    name_ = std::move(n);
    digest_.clear();
  }

  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const {
    HLS_ASSERT(id.index < nodes_.size(), "NodeId out of range");
    return nodes_[id.index];
  }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Appends a node after validating operand references, slice bounds and
  /// arity. Returns its id. Throws hls::Error on malformed nodes.
  NodeId add_node(Node n);

  /// Renames a node; names are labels only and never affect semantics.
  void rename_node(NodeId id, std::string name) {
    HLS_ASSERT(id.index < nodes_.size(), "NodeId out of range");
    nodes_[id.index].name = std::move(name);
    digest_.clear();
  }

  // Convenience constructors -------------------------------------------------
  NodeId add_input(std::string name, unsigned width, bool is_signed = false);
  NodeId add_const(std::uint64_t value, unsigned width);
  NodeId add_output(std::string name, Operand value);
  /// Binary (or carry-in-extended) operation over full-width operands.
  NodeId add_op(OpKind kind, unsigned width, Operand a, Operand b,
                bool is_signed = false);
  NodeId add_op(OpKind kind, unsigned width, Operand a, bool is_signed = false);
  /// Addition with explicit carry-in (1-bit slice operand).
  NodeId add_add_cin(unsigned width, Operand a, Operand b, Operand cin);
  NodeId add_concat(std::vector<Operand> lsb_first);

  /// Full-width operand over node `id`.
  Operand whole(NodeId id) const { return Operand{id, BitRange::whole(node(id).width)}; }
  /// Slice operand over node `id`.
  Operand slice(NodeId id, BitRange r) const;
  Operand slice(NodeId id, unsigned msb, unsigned lsb) const {
    return slice(id, BitRange::downto(msb, lsb));
  }
  /// Single-bit operand.
  Operand bit(NodeId id, unsigned b) const { return slice(id, BitRange{b, 1}); }

  // Queries -------------------------------------------------------------------
  std::vector<NodeId> inputs() const;
  std::vector<NodeId> outputs() const;
  /// Ids of all non-structural, non-glue computation nodes (the operations a
  /// scheduler must place).
  std::vector<NodeId> operations() const;
  // Fanout queries live in DfgIndex (ir/dfg_index.hpp), which precomputes
  // the user adjacency in flat CSR form once per kernel.
  /// Looks up an Input or Output node by port name.
  std::optional<NodeId> find_port(const std::string& name) const;

  /// Count of nodes for which `is_additive(kind)` holds.
  std::size_t additive_op_count() const;

  /// Rechecks every structural invariant (topological operand order, slice
  /// bounds, arity, widths) in place, each node against the nodes before it
  /// as add_node checked it. Throws hls::Error with a description on failure.
  void verify() const;

private:
  friend Digest digest_of(const Dfg& dfg);

  /// Memo of digest_of(*this): the digest's two words, valid while `set_`
  /// holds. digest_of fills it on first use and every mutator drops it, so
  /// each graph object is hashed once however many cache lookups key on
  /// it. Copies carry it and a moved-from memo is empty. Concurrent
  /// digest_of calls on one const Dfg may all fill it: they store the same
  /// words, and a reader that sees `set_` (acquire) sees them. Every
  /// member is noexcept, so Dfg's implicit moves stay noexcept.
  class DigestMemo {
  public:
    DigestMemo() noexcept = default;
    DigestMemo(const DigestMemo& other) noexcept { assign(other); }
    DigestMemo(DigestMemo&& other) noexcept {
      assign(other);
      other.clear();
    }
    DigestMemo& operator=(const DigestMemo& other) noexcept {
      assign(other);
      return *this;
    }
    DigestMemo& operator=(DigestMemo&& other) noexcept {
      assign(other);
      other.clear();
      return *this;
    }

    bool get(std::uint64_t& a, std::uint64_t& b) const noexcept {
      if (!set_.load(std::memory_order_acquire)) return false;
      a = a_.load(std::memory_order_relaxed);
      b = b_.load(std::memory_order_relaxed);
      return true;
    }
    void put(std::uint64_t a, std::uint64_t b) const noexcept {
      a_.store(a, std::memory_order_relaxed);
      b_.store(b, std::memory_order_relaxed);
      set_.store(true, std::memory_order_release);
    }
    /// Called by mutators only, which hold the graph exclusively.
    void clear() noexcept { set_.store(false, std::memory_order_relaxed); }

  private:
    void assign(const DigestMemo& other) noexcept {
      std::uint64_t a = 0, b = 0;
      if (other.get(a, b)) {
        put(a, b);
      } else {
        clear();
      }
    }

    mutable std::atomic<std::uint64_t> a_{0}, b_{0};
    mutable std::atomic<bool> set_{false};
  };

  /// Validates `n` as if appended after the first `prefix` nodes.
  void check_node(const Node& n, std::size_t prefix) const;

  std::string name_;
  std::vector<Node> nodes_;
  DigestMemo digest_;
};

} // namespace hls
