// Unit tests for the IR: Dfg construction/validation, SpecBuilder, evaluator.

#include <gtest/gtest.h>

#include <type_traits>

#include "alloc/datapath.hpp"
#include "flow/session.hpp"
#include "frag/transform.hpp"
#include "ir/builder.hpp"
#include "ir/dfg.hpp"
#include "ir/dfg_index.hpp"
#include "ir/eval.hpp"
#include "ir/print.hpp"
#include "sched/fragsched.hpp"

namespace hls {
namespace {

// Graphs, artefacts and results live in growing std::vectors (batch and
// sweep results, Explorer points). A move that may throw makes every
// growth deep-copy the elements instead, so each of these must stay
// nothrow-movable, Dfg's digest memo included.
template <typename T>
constexpr bool kNothrowMovable = std::is_nothrow_move_constructible_v<T> &&
                                 std::is_nothrow_move_assignable_v<T>;
static_assert(kNothrowMovable<Dfg>);
static_assert(kNothrowMovable<TransformResult>);
static_assert(kNothrowMovable<FragSchedule>);
static_assert(kNothrowMovable<Datapath>);
static_assert(kNothrowMovable<FlowRequest>);
static_assert(kNothrowMovable<FlowResult>);

// The paper's motivational example (Fig. 1 a): C = A+B; E = C+D; G = E+F.
Dfg motivational() {
  SpecBuilder b("example");
  const Val A = b.in("A", 16), B = b.in("B", 16);
  const Val D = b.in("D", 16), F = b.in("F", 16);
  const Val C = A + B;
  const Val E = C + D;
  b.out("G", E + F);
  return std::move(b).take();
}

TEST(Dfg, MotivationalStructure) {
  const Dfg d = motivational();
  EXPECT_EQ(d.inputs().size(), 4u);
  EXPECT_EQ(d.outputs().size(), 1u);
  EXPECT_EQ(d.operations().size(), 3u);
  EXPECT_EQ(d.additive_op_count(), 3u);
  d.verify();
}

TEST(Dfg, TopologicalOrderIsEnforced) {
  Dfg d("bad");
  const NodeId a = d.add_input("a", 8);
  // Forward reference: operand node index beyond current size.
  Node n;
  n.kind = OpKind::Add;
  n.width = 8;
  n.operands = {Operand{NodeId{5}, BitRange::whole(8)}, d.whole(a)};
  EXPECT_THROW(d.add_node(std::move(n)), Error);
}

TEST(Dfg, SliceBoundsAreChecked) {
  Dfg d("slice");
  const NodeId a = d.add_input("a", 8);
  EXPECT_THROW(d.slice(a, 8, 0), Error);   // msb == width
  EXPECT_NO_THROW(d.slice(a, 7, 0));
  Node n;
  n.kind = OpKind::Not;
  n.width = 4;
  n.operands = {Operand{a, BitRange{5, 4}}};  // bits 5..8 exceed width 8
  EXPECT_THROW(d.add_node(std::move(n)), Error);
}

TEST(Dfg, DuplicatePortNamesRejected) {
  Dfg d("dup");
  d.add_input("x", 4);
  EXPECT_THROW(d.add_input("x", 4), Error);
}

TEST(Dfg, CarryInMustBeOneBit) {
  Dfg d("cin");
  const NodeId a = d.add_input("a", 4);
  const NodeId b = d.add_input("b", 4);
  EXPECT_THROW(d.add_add_cin(4, d.whole(a), d.whole(b), d.slice(b, 1, 0)), Error);
  EXPECT_NO_THROW(d.add_add_cin(4, d.whole(a), d.whole(b), d.bit(b, 0)));
}

TEST(Dfg, ComparisonWidthMustBeOne) {
  Dfg d("cmp");
  const NodeId a = d.add_input("a", 4);
  const NodeId b = d.add_input("b", 4);
  Node n;
  n.kind = OpKind::Lt;
  n.width = 4;
  n.operands = {d.whole(a), d.whole(b)};
  EXPECT_THROW(d.add_node(std::move(n)), Error);
}

TEST(Dfg, ConcatWidthMustMatchParts) {
  Dfg d("cc");
  const NodeId a = d.add_input("a", 4);
  Node n;
  n.kind = OpKind::Concat;
  n.width = 9;  // parts sum to 8
  n.operands = {d.whole(a), d.whole(a)};
  EXPECT_THROW(d.add_node(std::move(n)), Error);
}

TEST(Dfg, UsersAndPortLookup) {
  const Dfg d = motivational();
  const DfgIndex index(d);
  const NodeId a = *d.find_port("A");
  ASSERT_EQ(index.users(a.index).size(), 1u);  // A feeds only C
  EXPECT_FALSE(d.find_port("missing").has_value());
}

TEST(DfgIndex, FlatBitSpaceAndCsrFanout) {
  const Dfg d = motivational();
  const DfgIndex index(d);
  ASSERT_EQ(index.node_count(), d.size());
  // Bit offsets partition the flat space by node width, in node order.
  std::uint32_t expect = 0;
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(index.bit_offset(i), expect);
    expect += d.node(NodeId{i}).width;
  }
  EXPECT_EQ(index.total_bits(), expect);
  // CSR fanout agrees with a naive operand sweep modelling the documented
  // contract (only *consecutive* duplicate operands collapse); spans are
  // sorted.
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    std::vector<std::uint32_t> naive;
    for (std::uint32_t u = 0; u < d.size(); ++u) {
      std::uint32_t prev = UINT32_MAX;
      for (const Operand& o : d.node(NodeId{u}).operands) {
        if (o.node.index == i && prev != i) naive.push_back(u);
        prev = o.node.index;
      }
    }
    const auto span = index.users(i);
    ASSERT_EQ(std::vector<std::uint32_t>(span.begin(), span.end()), naive)
        << "node " << i;
  }
}

TEST(Eval, MotivationalSum) {
  const Dfg d = motivational();
  const OutputValues out = evaluate(d, {{"A", 10}, {"B", 20}, {"D", 5}, {"F", 7}});
  EXPECT_EQ(out.at("G"), 42u);
}

TEST(Eval, AdditionWrapsAtWidth) {
  const Dfg d = motivational();
  const OutputValues out =
      evaluate(d, {{"A", 0xFFFF}, {"B", 1}, {"D", 0}, {"F", 0}});
  EXPECT_EQ(out.at("G"), 0u);  // 0x10000 truncated to 16 bits
}

TEST(Eval, MissingInputThrows) {
  const Dfg d = motivational();
  EXPECT_THROW(evaluate(d, {{"A", 1}}), Error);
}

TEST(Eval, BitHelpers) {
  EXPECT_EQ(truncate(0x1FF, 8), 0xFFu);
  EXPECT_EQ(extract_bits(0b1011'0110, BitRange::downto(5, 2)), 0b1101u);
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
}

TEST(Eval, SubAndNeg) {
  SpecBuilder b("s");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("d", x - y);
  b.out("n", b.neg(x));
  const Dfg d = std::move(b).take();
  const OutputValues out = evaluate(d, {{"x", 5}, {"y", 9}});
  EXPECT_EQ(out.at("d"), 0xFCu);  // -4 in two's complement
  EXPECT_EQ(out.at("n"), 0xFBu);  // -5
}

TEST(Eval, MulFullProductAndTruncated) {
  SpecBuilder b("m");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("full", x * y);                  // 16-bit product
  b.out("trunc", b.mul(x, y, 8));        // truncated to 8
  const Dfg d = std::move(b).take();
  const OutputValues out = evaluate(d, {{"x", 200}, {"y", 3}});
  EXPECT_EQ(out.at("full"), 600u);
  EXPECT_EQ(out.at("trunc"), 600u & 0xFF);
}

TEST(Eval, SignedMulUsesSignExtension) {
  SpecBuilder b("sm");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("p", b.mul(x, y, 16, /*is_signed=*/true));
  const Dfg d = std::move(b).take();
  // (-2) * 3 = -6 -> 0xFFFA at 16 bits.
  const OutputValues out = evaluate(d, {{"x", 0xFE}, {"y", 3}});
  EXPECT_EQ(out.at("p"), 0xFFFAu);
}

TEST(Eval, ComparisonsSignedVsUnsigned) {
  SpecBuilder b("c");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("ult", x < y);
  b.out("slt", b.cmp(OpKind::Lt, x, y, /*is_signed=*/true));
  const Dfg d = std::move(b).take();
  // x = -1 (0xFF), y = 1: unsigned 255 < 1 false; signed -1 < 1 true.
  const OutputValues out = evaluate(d, {{"x", 0xFF}, {"y", 1}});
  EXPECT_EQ(out.at("ult"), 0u);
  EXPECT_EQ(out.at("slt"), 1u);
}

TEST(Eval, MaxMinSignedUnsigned) {
  SpecBuilder b("mm");
  const Val x = b.in("x", 8), y = b.in("y", 8);
  b.out("umax", b.max(x, y));
  b.out("smax", b.max(x, y, /*is_signed=*/true));
  b.out("umin", b.min(x, y));
  b.out("smin", b.min(x, y, /*is_signed=*/true));
  const Dfg d = std::move(b).take();
  const OutputValues out = evaluate(d, {{"x", 0xFF}, {"y", 1}});
  EXPECT_EQ(out.at("umax"), 0xFFu);
  EXPECT_EQ(out.at("smax"), 1u);
  EXPECT_EQ(out.at("umin"), 1u);
  EXPECT_EQ(out.at("smin"), 0xFFu);
}

TEST(Eval, GlueAndConcatAndSlices) {
  SpecBuilder b("g");
  const Val x = b.in("x", 8);
  const Val y = b.in("y", 8);
  b.out("and", x & y);
  b.out("or", x | y);
  b.out("xor", x ^ y);
  b.out("not", ~x);
  b.out("cat", b.concat_lsb_first({x.slice(3, 0), y.slice(7, 4)}));
  b.out("hi", x.slice(7, 4));
  const Dfg d = std::move(b).take();
  const OutputValues out = evaluate(d, {{"x", 0xA5}, {"y", 0x0F}});
  EXPECT_EQ(out.at("and"), 0x05u);
  EXPECT_EQ(out.at("or"), 0xAFu);
  EXPECT_EQ(out.at("xor"), 0xAAu);
  EXPECT_EQ(out.at("not"), 0x5Au);
  EXPECT_EQ(out.at("cat"), 0x05u);  // low nibble of x, high nibble of y (0)
  EXPECT_EQ(out.at("hi"), 0xAu);
}

TEST(Eval, CarryInChainReconstructsWideAdd) {
  // Split a 16-bit addition into 6+7+3 the way Fig. 2 a) does, and check the
  // carry chain reproduces the monolithic result.
  SpecBuilder b("split");
  const Val A = b.in("A", 16), B = b.in("B", 16);
  // C(6..0) = A(5..0) + B(5..0), 7 bits keeps the carry out at bit 6.
  const Val c0 = b.add(A.slice(5, 0), B.slice(5, 0), 7);
  const Val c1 = b.add_cin(A.slice(11, 6), B.slice(11, 6), c0.bit(6), 7);
  const Val c2 = b.add_cin(A.slice(15, 12), B.slice(15, 12), c1.bit(6), 4);
  b.out("C", b.concat_lsb_first({c0.slice(5, 0), c1.slice(5, 0), c2}));
  b.out("ref", A + B);
  const Dfg d = std::move(b).take();
  for (const auto& [a, bb] : std::vector<std::pair<unsigned, unsigned>>{
           {0x1234, 0x4321}, {0xFFFF, 0x0001}, {0xABCD, 0x9876}, {63, 1}}) {
    const OutputValues out = evaluate(d, {{"A", a}, {"B", bb}});
    EXPECT_EQ(out.at("C"), out.at("ref")) << "A=" << a << " B=" << bb;
  }
}

TEST(Builder, SliceOfSliceRebases) {
  SpecBuilder b("ss");
  const Val x = b.in("x", 16);
  const Val mid = x.slice(11, 4);  // bits 11..4
  const Val sub = mid.slice(3, 0); // bits 7..4 of x
  b.out("o", sub);
  const Dfg d = std::move(b).take();
  const OutputValues out = evaluate(d, {{"x", 0xABCD}});
  EXPECT_EQ(out.at("o"), 0xCu);
}

TEST(Builder, ZextAddsZeroConstant) {
  SpecBuilder b("z");
  const Val x = b.in("x", 4);
  b.out("o", b.zext(x, 8));
  const Dfg d = std::move(b).take();
  EXPECT_EQ(evaluate(d, {{"x", 0xF}}).at("o"), 0x0Fu);
}

TEST(Builder, SignedInputPropagatesSignedness) {
  SpecBuilder b("si");
  const Val x = b.signed_in("x", 8);
  const Val y = b.in("y", 8);
  const Val p = x * y;
  const Dfg& d = b.dfg();
  EXPECT_TRUE(d.node(p.node()).is_signed);
}

TEST(Print, DumpContainsNodesAndSummary) {
  const Dfg d = motivational();
  const std::string dump = to_string(d);
  EXPECT_NE(dump.find("add:16"), std::string::npos);
  EXPECT_NE(dump.find("\"G\""), std::string::npos);
  const std::string sum = summarize(d);
  EXPECT_NE(sum.find("#ops=3"), std::string::npos);
  EXPECT_NE(sum.find("add=3"), std::string::npos);
}

} // namespace
} // namespace hls
