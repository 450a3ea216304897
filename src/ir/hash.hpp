#pragma once
// Structural content digest of a Dfg, for content-addressed memoization
// (the dse/ ArtifactCache keys per-stage artefacts on it).
//
// The digest covers everything that can influence any downstream stage:
// the graph name, every node's kind/width/signedness/name/value and every
// operand's (node, bit-slice) reference, in node order. Node *names* are
// included deliberately — they are semantically inert but flow into dumps,
// emitted VHDL and fragment labels, and a cache that ignored them could
// serve an artefact with different labels than an uncached run would
// produce, breaking the bit-identical-replay invariant.
//
// Two independent 64-bit FNV-1a streams (different offset bases, same
// per-field mixing) make the effective key 128 bits, so accidental
// collisions are out of reach for any realistic workload; equality of
// Digest is the cache's equality of specifications.

#include <cstdint>

#include "ir/dfg.hpp"

namespace hls {

/// 128-bit content digest (two independent FNV-1a streams).
struct Digest {
  std::uint64_t a = 0xcbf29ce484222325ull;  ///< FNV-1a offset basis
  std::uint64_t b = 0x84222325cbf29ce4ull;  ///< independent second stream

  /// Mixes one 64-bit value into both streams, byte by byte.
  void mix(std::uint64_t v);
  /// Mixes a byte sequence (length is mixed too, so "ab"+"c" != "a"+"bc").
  void mix_bytes(const void* data, std::size_t n);
  /// Mixes a double by bit pattern.
  void mix_double(double v);

  friend bool operator==(const Digest&, const Digest&) = default;
  friend auto operator<=>(const Digest&, const Digest&) = default;
};

/// Content digest of a specification. The value is a pure function of the
/// graph's content. The first call on a graph object hashes it, linear in
/// the node count, and memoizes the result in the object; later calls
/// return the memo in O(1) until a mutator (add_node and the add_*
/// helpers, set_name, rename_node) drops it. Copies carry the memo and a
/// moved-from graph loses it. Safe to call from many threads on one const
/// Dfg.
Digest digest_of(const Dfg& dfg);

} // namespace hls
