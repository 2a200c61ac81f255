// March substrate tests: algorithm representation, transforms, the DSL
// parser, the algorithm library, and the reference expansion.

#include <gtest/gtest.h>

#include "march/expand.h"
#include "march/library.h"
#include "march/parser.h"

namespace {

using namespace pmbist;
using namespace pmbist::march;
using memsim::MemoryGeometry;

// --- representation ----------------------------------------------------------

TEST(March, OpAndElementFormatting) {
  EXPECT_EQ(r0().to_string(), "r0");
  EXPECT_EQ(w1().to_string(), "w1");
  EXPECT_EQ(up({r0(), w1()}).to_string(), "up(r0,w1)");
  EXPECT_EQ(down({r1()}).to_string(), "down(r1)");
  EXPECT_EQ(MarchElement::pause(2000).to_string(), "pause(2000ns)");
}

TEST(March, ComplementOrder) {
  EXPECT_EQ(complement(AddressOrder::Up), AddressOrder::Down);
  EXPECT_EQ(complement(AddressOrder::Down), AddressOrder::Up);
  EXPECT_EQ(complement(AddressOrder::Any), AddressOrder::Any);
}

TEST(March, CountsAndValidation) {
  const auto c = march_c();
  EXPECT_EQ(c.ops_per_cell(), 10);  // 10n March C
  EXPECT_EQ(c.reads_per_cell(), 5);
  EXPECT_EQ(c.march_element_count(), 6);
  EXPECT_TRUE(c.validate().empty());

  const MarchAlgorithm bad{"bad", {up({r0()})}};
  EXPECT_FALSE(bad.validate().empty());  // starts with a read
  const MarchAlgorithm empty_el{"bad2", {any({w0()}), up({})}};
  EXPECT_FALSE(empty_el.validate().empty());
  EXPECT_FALSE(MarchAlgorithm{}.validate().empty());
}

TEST(March, FinalDataValue) {
  EXPECT_EQ(final_data_value(march_c()), 0);
  EXPECT_EQ(final_data_value(mats()), 1);  // ends after w1
  const MarchAlgorithm read_only{"ro", {any({w1()}), any({r1()})}};
  EXPECT_EQ(final_data_value(read_only), 1);
}

TEST(March, RetentionTransformAppendsPaperTail) {
  const auto cp = with_retention(march_c(), 5000, "C+");
  ASSERT_EQ(cp.elements().size(), march_c().elements().size() + 4);
  const auto& tail = cp.elements();
  const std::size_t n = tail.size();
  EXPECT_TRUE(tail[n - 4].is_pause);
  EXPECT_EQ(tail[n - 4].pause_ns, 5000u);
  EXPECT_EQ(tail[n - 3].ops,
            (std::vector<MarchOp>{r0(), w1(), r1()}));  // final value is 0
  EXPECT_TRUE(tail[n - 2].is_pause);
  EXPECT_EQ(tail[n - 1].ops, (std::vector<MarchOp>{r1()}));
}

TEST(March, TripleReadTransform) {
  const auto y3 = with_triple_reads(march_y(), "Y3");
  // March Y is 8n with 5 reads; tripling adds 2 per read -> 18n.
  EXPECT_EQ(y3.ops_per_cell(), 18);
  EXPECT_EQ(y3.reads_per_cell(), 15);
  // Writes untouched, pauses untouched.
  const auto cpp = march_c_plus_plus();
  EXPECT_EQ(cpp.ops_per_cell(),
            march_c_plus().ops_per_cell() +
                2 * march_c_plus().reads_per_cell());
}

// --- parser --------------------------------------------------------------------

TEST(Parser, RoundTripsLibraryAlgorithms) {
  for (const auto& alg : all_algorithms()) {
    const auto reparsed = parse(alg.to_string(), alg.name());
    EXPECT_EQ(reparsed.elements(), alg.elements()) << alg.name();
  }
}

TEST(Parser, AcceptsFlexibleSyntax) {
  const auto a = parse("any(w0);up(r0,w1);down(r1,w0)");
  EXPECT_EQ(a.elements().size(), 3u);
  const auto b = parse("{ any ( w0 ) ; pause ( 10 us ) ; any ( r0 ) ; }");
  EXPECT_EQ(b.elements().size(), 3u);
  EXPECT_EQ(b.elements()[1].pause_ns, 10'000u);
  const auto c = parse("any(w1); pause; any(r1)");
  EXPECT_EQ(c.elements()[1].pause_ns, 100'000'000u);  // default 100 ms
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse(""), ParseError);
  EXPECT_THROW((void)parse("sideways(w0)"), ParseError);
  EXPECT_THROW((void)parse("up(w2)"), ParseError);
  EXPECT_THROW((void)parse("up(x0)"), ParseError);
  EXPECT_THROW((void)parse("up(w0"), ParseError);
  EXPECT_THROW((void)parse("up(w0)) extra"), ParseError);
  EXPECT_THROW((void)parse("pause(10 lightyears)"), ParseError);
  EXPECT_THROW((void)parse("{ up(w0)"), ParseError);
  try {
    (void)parse("up(w0); zz(r0)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

// --- library ---------------------------------------------------------------------

TEST(Library, ComplexityCoefficients) {
  EXPECT_EQ(mats().ops_per_cell(), 4);
  EXPECT_EQ(mats_plus().ops_per_cell(), 5);
  EXPECT_EQ(mats_plus_plus().ops_per_cell(), 6);
  EXPECT_EQ(march_x().ops_per_cell(), 6);
  EXPECT_EQ(march_y().ops_per_cell(), 8);
  EXPECT_EQ(march_c().ops_per_cell(), 10);
  EXPECT_EQ(march_c_orig().ops_per_cell(), 11);
  EXPECT_EQ(march_u().ops_per_cell(), 13);
  EXPECT_EQ(march_lr().ops_per_cell(), 14);
  EXPECT_EQ(march_a().ops_per_cell(), 15);
  EXPECT_EQ(march_b().ops_per_cell(), 17);
  EXPECT_EQ(march_ss().ops_per_cell(), 22);
  EXPECT_EQ(march_g().ops_per_cell(), 23);
}

TEST(Library, AllAlgorithmsValidate) {
  for (const auto& alg : all_algorithms())
    EXPECT_TRUE(alg.validate().empty()) << alg.name();
}

TEST(Library, ByNameLookup) {
  EXPECT_EQ(by_name("March C++").name(), "March C++");
  EXPECT_THROW((void)by_name("March Z"), std::out_of_range);
}

TEST(Library, PaperTableOrder) {
  const auto algs = paper_table_algorithms();
  ASSERT_EQ(algs.size(), 6u);
  EXPECT_EQ(algs[0].name(), "March C");
  EXPECT_EQ(algs[2].name(), "March C++");
  EXPECT_EQ(algs[5].name(), "March A++");
}

// --- expansion -------------------------------------------------------------------

TEST(Expand, StandardBackgrounds) {
  EXPECT_EQ(standard_backgrounds(1), (std::vector<memsim::Word>{0}));
  EXPECT_EQ(standard_backgrounds(8),
            (std::vector<memsim::Word>{0x00, 0xAA, 0xCC, 0xF0}));
  EXPECT_EQ(standard_backgrounds(4).size(), 3u);
  EXPECT_EQ(standard_backgrounds(64).size(), 7u);
}

TEST(Expand, ApplyBackground) {
  EXPECT_EQ(apply_background(false, 0xAA, 0xFF), 0xAAu);
  EXPECT_EQ(apply_background(true, 0xAA, 0xFF), 0x55u);
  EXPECT_EQ(apply_background(true, 0x0, 0x1), 0x1u);
}

TEST(Expand, OpCountFormula) {
  const MemoryGeometry g{.address_bits = 4, .word_bits = 8, .num_ports = 2};
  const auto stream = expand(march_c(), g);
  // 10 ops/cell x 16 words x 4 backgrounds x 2 ports.
  EXPECT_EQ(expanded_op_count(march_c(), g), 10u * 16 * 4 * 2);
  std::size_t memops = 0;
  for (const auto& op : stream)
    if (op.kind != MemOp::Kind::Pause) ++memops;
  EXPECT_EQ(memops, expanded_op_count(march_c(), g));
}

TEST(Expand, ElementOrderingWithinStream) {
  const MemoryGeometry g{.address_bits = 2};
  const auto stream = expand(mats_plus(), g);
  // any(w0): addresses 0..3; up(r0,w1): (r,w) per address ascending;
  // down(r1,w0): descending.
  ASSERT_EQ(stream.size(), 4u + 8u + 8u);
  EXPECT_EQ(stream[0], MemOp::write(0, 0, 0));
  EXPECT_EQ(stream[3], MemOp::write(0, 3, 0));
  EXPECT_EQ(stream[4], MemOp::read(0, 0, 0));
  EXPECT_EQ(stream[5], MemOp::write(0, 0, 1));
  EXPECT_EQ(stream[12], MemOp::read(0, 3, 1));
  EXPECT_EQ(stream[13], MemOp::write(0, 3, 0));
  EXPECT_EQ(stream[18], MemOp::read(0, 0, 1));
  EXPECT_EQ(stream[19], MemOp::write(0, 0, 0));
}

TEST(Expand, LoopNestingPortOutermost) {
  const MemoryGeometry g{.address_bits = 1, .word_bits = 2, .num_ports = 2};
  const auto stream = expand(mats(), g);
  // 4 ops/cell x 2 words x 2 backgrounds x 2 ports = 32 ops.
  ASSERT_EQ(stream.size(), 32u);
  // First half is port 0, second half port 1.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(stream[i].port, 0);
  for (std::size_t i = 16; i < 32; ++i) EXPECT_EQ(stream[i].port, 1);
  // Within a port: background 0 (write 0) then background 1 (write 0b01).
  EXPECT_EQ(stream[0].data, 0u);
  EXPECT_EQ(stream[8].data, 0b10u);  // background 0b10, d=0
}

TEST(Expand, PausePlacement) {
  const MemoryGeometry g{.address_bits = 2};
  const auto stream = expand(march_c_plus(), g);
  std::vector<std::size_t> pause_positions;
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (stream[i].kind == MemOp::Kind::Pause) pause_positions.push_back(i);
  ASSERT_EQ(pause_positions.size(), 2u);
  // First pause right after March C's 10n ops (40 ops for n=4).
  EXPECT_EQ(pause_positions[0], 40u);
  // Second pause after the 3-op retention element (12 more ops).
  EXPECT_EQ(pause_positions[1], 40u + 1 + 12);
  EXPECT_EQ(stream[pause_positions[0]].pause_ns(), kDefaultPauseNs);
}

TEST(Expand, SinglePassMatchesFullExpansionForSimpleGeometry) {
  const MemoryGeometry g{.address_bits = 3};
  EXPECT_EQ(expand(march_y(), g), expand_single_pass(march_y(), g, 0, 0));
}

TEST(Expand, PortCountBeyondTheOpFieldIsAnError) {
  // MemOp::port is 16 bits: 65535 ports still expand, with the last op on
  // port 65534; one more is rejected rather than wrapped to port 0.  No
  // ports at all is an error too.
  const MemoryGeometry widest{.address_bits = 0, .num_ports = kMaxPorts};
  const auto stream = expand(mats(), widest);
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream.back().port, kMaxPorts - 1);
  const MemoryGeometry wider{.address_bits = 0, .num_ports = kMaxPorts + 1};
  EXPECT_THROW((void)expand(mats(), wider), std::invalid_argument);
  EXPECT_THROW((void)expand_single_pass(mats(), wider, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)expand_single_pass(mats(), widest, kMaxPorts, 0),
               std::invalid_argument);
  for (const int ports : {0, -1}) {
    const MemoryGeometry none{.address_bits = 0, .num_ports = ports};
    EXPECT_THROW((void)expand(mats(), none), std::invalid_argument) << ports;
  }
}

}  // namespace
