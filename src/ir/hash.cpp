#include "ir/hash.hpp"

#include <cstring>

namespace hls {

namespace {

constexpr std::uint64_t kPrime = 0x100000001b3ull;  // FNV-1a 64-bit prime

inline std::uint64_t step(std::uint64_t h, unsigned char byte) {
  return (h ^ byte) * kPrime;
}

} // namespace

void Digest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    const auto byte = static_cast<unsigned char>(v >> (8 * i));
    a = step(a, byte);
    b = step(b, byte);
  }
}

void Digest::mix_bytes(const void* data, std::size_t n) {
  mix(n);
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    a = step(a, p[i]);
    b = step(b, p[i]);
  }
}

void Digest::mix_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

Digest digest_of(const Dfg& dfg) {
  Digest d;
  if (dfg.digest_.get(d.a, d.b)) return d;
  d.mix_bytes(dfg.name().data(), dfg.name().size());
  d.mix(dfg.size());
  for (const Node& n : dfg.nodes()) {
    d.mix(static_cast<std::uint64_t>(n.kind));
    d.mix(n.width);
    d.mix(n.is_signed ? 1 : 0);
    d.mix(n.value);
    d.mix_bytes(n.name.data(), n.name.size());
    d.mix(n.operands.size());
    for (const Operand& o : n.operands) {
      d.mix(o.node.index);
      d.mix(o.bits.lo);
      d.mix(o.bits.width);
    }
  }
  dfg.digest_.put(d.a, d.b);
  return d;
}

} // namespace hls
