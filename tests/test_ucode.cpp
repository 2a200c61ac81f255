// Microcode-based controller tests: ISA round-trips, assembler structure
// (the paper's Fig. 2 program shape), and — the load-bearing property —
// cycle-accurate op-stream equivalence against the reference expansion for
// every library algorithm and several memory geometries.

#include <gtest/gtest.h>

#include "bist/session.h"
#include "march/library.h"
#include "mbist_ucode/area.h"
#include "mbist_ucode/controller.h"

namespace {

using namespace pmbist;
using mbist_ucode::AssembleOptions;
using mbist_ucode::Flow;
using mbist_ucode::Instruction;
using mbist_ucode::MicrocodeController;
using mbist_ucode::Rw;
using memsim::MemoryGeometry;

TEST(UcodeIsa, EncodeDecodeRoundTrip) {
  for (int flow = 0; flow < 8; ++flow) {
    for (int rw = 0; rw < 3; ++rw) {
      for (int fields = 0; fields < 32; ++fields) {
        Instruction i;
        i.addr_inc = fields & 1;
        i.addr_down = fields & 2;
        i.data_inc = fields & 4;
        i.data_inv = fields & 8;
        i.cmp_inv = fields & 16;
        i.rw = static_cast<Rw>(rw);
        i.flow = static_cast<Flow>(flow);
        EXPECT_EQ(Instruction::decode(i.encode()), i);
      }
    }
  }
}

TEST(UcodeIsa, DecodeRejectsReservedRwField) {
  EXPECT_THROW((void)Instruction::decode(0x3u << 5), std::invalid_argument);
  EXPECT_THROW((void)Instruction::decode(1u << 10), std::invalid_argument);
}

TEST(UcodeIsa, HexTextRoundTrip) {
  const auto r = mbist_ucode::assemble(march::march_a_plus());
  const std::string text = r.program.to_hex_text();
  EXPECT_NE(text.find("pmbist microcode image v1"), std::string::npos);
  EXPECT_NE(text.find("name: March A+"), std::string::npos);
  const auto back = mbist_ucode::MicrocodeProgram::from_hex_text(text);
  EXPECT_EQ(back.name(), "March A+");
  EXPECT_EQ(back.instructions(), r.program.instructions());
}

TEST(UcodeIsa, HexTextRejectsMalformedInput) {
  using mbist_ucode::MicrocodeProgram;
  EXPECT_THROW((void)MicrocodeProgram::from_hex_text("141\n"),
               std::invalid_argument);  // no header
  EXPECT_THROW((void)MicrocodeProgram::from_hex_text(
                   "; pmbist microcode image v1\nxyz\n"),
               std::invalid_argument);  // bad word
  EXPECT_THROW((void)MicrocodeProgram::from_hex_text(
                   "; pmbist microcode image v1\n"),
               std::invalid_argument);  // empty
  EXPECT_THROW((void)MicrocodeProgram::from_hex_text(
                   "; pmbist microcode image v1\nfff\n"),
               std::invalid_argument);  // reserved rw encoding
}

TEST(UcodeIsa, ProgramImageRoundTrip) {
  const auto r = mbist_ucode::assemble(march::march_c());
  const auto image = r.program.image();
  const auto back =
      mbist_ucode::MicrocodeProgram::from_image("March C", image);
  EXPECT_EQ(back.instructions(), r.program.instructions());
}

// The paper's Fig. 2: March C assembles to exactly 9 instructions with the
// Repeat-based symmetric encoding.
TEST(UcodeAssembler, MarchCMatchesFig2Shape) {
  const auto r = mbist_ucode::assemble(march::march_c());
  ASSERT_TRUE(r.used_repeat);
  const auto& code = r.program.instructions();
  ASSERT_EQ(code.size(), 9u);

  EXPECT_EQ(code[0].flow, Flow::LoopSelf);  // any(w0)
  EXPECT_EQ(code[0].rw, Rw::Write);
  EXPECT_FALSE(code[0].data_inv);

  EXPECT_EQ(code[1].flow, Flow::Next);  // r0 (address held)
  EXPECT_EQ(code[1].rw, Rw::Read);
  EXPECT_FALSE(code[1].cmp_inv);
  EXPECT_FALSE(code[1].addr_inc);

  EXPECT_EQ(code[2].flow, Flow::LoopCell);  // w1 (address incremented)
  EXPECT_EQ(code[2].rw, Rw::Write);
  EXPECT_TRUE(code[2].data_inv);
  EXPECT_TRUE(code[2].addr_inc);

  EXPECT_EQ(code[3].rw, Rw::Read);   // r1
  EXPECT_TRUE(code[3].cmp_inv);
  EXPECT_EQ(code[4].rw, Rw::Write);  // w0

  EXPECT_EQ(code[5].flow, Flow::Repeat);  // complement order only
  EXPECT_TRUE(code[5].addr_down);
  EXPECT_FALSE(code[5].data_inv);
  EXPECT_FALSE(code[5].cmp_inv);

  EXPECT_EQ(code[6].flow, Flow::LoopSelf);  // any(r0)
  EXPECT_EQ(code[6].rw, Rw::Read);

  EXPECT_EQ(code[7].flow, Flow::LoopData);
  EXPECT_EQ(code[8].flow, Flow::LoopPort);
}

// March A's symmetric halves need all three complements (order, data,
// compare); March C needs only the address order.
TEST(UcodeAssembler, MarchARepeatMask) {
  const auto r = mbist_ucode::assemble(march::march_a());
  ASSERT_TRUE(r.used_repeat);
  const auto& code = r.program.instructions();
  const auto repeat =
      std::find_if(code.begin(), code.end(),
                   [](const Instruction& i) { return i.flow == Flow::Repeat; });
  ASSERT_NE(repeat, code.end());
  EXPECT_TRUE(repeat->addr_down);
  EXPECT_TRUE(repeat->data_inv);
  EXPECT_TRUE(repeat->cmp_inv);
}

TEST(UcodeAssembler, SymmetricEncodingShrinksPrograms) {
  for (const auto& alg : {march::march_c(), march::march_a(),
                          march::march_c_plus_plus()}) {
    const auto folded = mbist_ucode::assemble(alg);
    const auto flat =
        mbist_ucode::assemble(alg, AssembleOptions{.symmetric_encoding = false});
    EXPECT_TRUE(folded.used_repeat) << alg.name();
    EXPECT_FALSE(flat.used_repeat) << alg.name();
    EXPECT_LT(folded.program.size(), flat.program.size()) << alg.name();
  }
}

TEST(UcodeAssembler, AsymmetricAlgorithmHasNoRepeat) {
  const auto r = mbist_ucode::assemble(march::mats());
  EXPECT_FALSE(r.used_repeat);
}

TEST(UcodeAssembler, FoldMasksPerAlgorithm) {
  // March U folds under the full complement (order+data+compare).
  const auto u = mbist_ucode::assemble(march::march_u());
  ASSERT_TRUE(u.used_repeat);
  EXPECT_EQ(u.program.size(), 10);
  // March SS folds under the order complement alone.
  const auto ss = mbist_ucode::assemble(march::march_ss());
  ASSERT_TRUE(ss.used_repeat);
  EXPECT_EQ(ss.program.size(), 15);
  const auto ss_repeat = std::find_if(
      ss.program.instructions().begin(), ss.program.instructions().end(),
      [](const Instruction& i) { return i.flow == Flow::Repeat; });
  ASSERT_NE(ss_repeat, ss.program.instructions().end());
  EXPECT_TRUE(ss_repeat->addr_down);
  EXPECT_FALSE(ss_repeat->data_inv);
  // March G has no foldable window (element 2 differs from 4) but has
  // pauses: 27 instructions, still within Z=32.
  const auto g = mbist_ucode::assemble(march::march_g());
  EXPECT_FALSE(g.used_repeat);
  EXPECT_EQ(g.program.size(), 27);
}

TEST(UcodeAssembler, RejectsOversizedProgram) {
  MicrocodeController ctrl{{.geometry = {.address_bits = 4}, .storage_depth = 4}};
  EXPECT_THROW(ctrl.load_algorithm(march::march_a_plus_plus()),
               mbist_ucode::AssembleError);
}

// --- op-stream equivalence: controller vs reference expansion -------------

struct EquivCase {
  const char* alg;
  MemoryGeometry geometry;
  bool symmetric;
};

class UcodeEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(UcodeEquivalence, StreamMatchesReferenceExpansion) {
  const auto& p = GetParam();
  const auto alg = march::by_name(p.alg);
  MicrocodeController ctrl{{.geometry = p.geometry}};
  ctrl.load_algorithm(alg, AssembleOptions{.symmetric_encoding = p.symmetric});

  const auto actual = bist::collect_ops(ctrl, 100'000'000);
  const auto expected = march::expand(alg, p.geometry);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(actual[i], expected[i]) << "op " << i << " of " << p.alg;
}

constexpr MemoryGeometry kBit1P{.address_bits = 5, .word_bits = 1,
                                .num_ports = 1};
constexpr MemoryGeometry kWord1P{.address_bits = 4, .word_bits = 8,
                                 .num_ports = 1};
constexpr MemoryGeometry kWord2P{.address_bits = 3, .word_bits = 4,
                                 .num_ports = 2};

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, UcodeEquivalence,
    ::testing::Values(
        EquivCase{"MATS", kBit1P, true}, EquivCase{"MATS+", kBit1P, true},
        EquivCase{"March X", kBit1P, true},
        EquivCase{"March Y", kBit1P, true},
        EquivCase{"March C", kBit1P, true},
        EquivCase{"March C", kBit1P, false},
        EquivCase{"March C (orig)", kBit1P, true},
        EquivCase{"March C+", kBit1P, true},
        EquivCase{"March C++", kBit1P, true},
        EquivCase{"March A", kBit1P, true},
        EquivCase{"March A", kBit1P, false},
        EquivCase{"March B", kBit1P, true},
        EquivCase{"March A+", kBit1P, true},
        EquivCase{"March A++", kBit1P, true},
        EquivCase{"MATS++", kBit1P, true},
        EquivCase{"March U", kBit1P, true},
        EquivCase{"March LR", kBit1P, true},
        EquivCase{"March SS", kBit1P, true},
        EquivCase{"March G", kBit1P, true},
        EquivCase{"March C", kWord1P, true},
        EquivCase{"March C+", kWord1P, true},
        EquivCase{"March A", kWord1P, true},
        EquivCase{"March SS", kWord1P, true},
        EquivCase{"March C", kWord2P, true},
        EquivCase{"March C++", kWord2P, true},
        EquivCase{"March A++", kWord2P, true},
        EquivCase{"March G", kWord2P, true},
        EquivCase{"MATS+", kWord2P, true}),
    [](const auto& info) {
      std::string name = info.param.alg;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      name += "_a" + std::to_string(info.param.geometry.address_bits);
      name += "_w" + std::to_string(info.param.geometry.word_bits);
      name += "_p" + std::to_string(info.param.geometry.num_ports);
      name += info.param.symmetric ? "_sym" : "_flat";
      return name;
    });

// The folded (Repeat) and flat encodings of a symmetric algorithm must
// produce identical streams.
TEST(UcodeEquivalence, FoldedAndFlatEncodingsAgree) {
  const MemoryGeometry g{.address_bits = 4, .word_bits = 2, .num_ports = 2};
  for (const auto& alg : {march::march_c(), march::march_a(),
                          march::march_a_plus_plus()}) {
    MicrocodeController folded{{.geometry = g}};
    folded.load_algorithm(alg);
    // Flat (unfolded) encodings can exceed the default storage depth —
    // that is the point of the symmetric encoding.
    MicrocodeController flat{{.geometry = g, .storage_depth = 64}};
    flat.load_algorithm(alg, AssembleOptions{.symmetric_encoding = false});
    EXPECT_EQ(bist::collect_ops(folded, 10'000'000),
              bist::collect_ops(flat, 10'000'000))
        << alg.name();
  }
}

// A passing run on a fault-free memory, and reset() re-runnability.
TEST(UcodeController, PassesOnFaultFreeMemoryAndIsRerunnable) {
  const MemoryGeometry g{.address_bits = 6, .word_bits = 4, .num_ports = 2};
  MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_c_plus());
  memsim::SramModel mem{g, /*powerup_seed=*/7};
  const auto first = bist::run_session(ctrl, mem);
  EXPECT_TRUE(first.passed());
  EXPECT_GT(first.reads, 0u);
  // Two pause elements per pass; the program repeats per background and
  // per port.
  const auto passes =
      march::standard_backgrounds(g.word_bits).size() *
      static_cast<std::size_t>(g.num_ports);
  EXPECT_EQ(first.pauses, 2u * passes);
  const auto second = bist::run_session(ctrl, mem);
  EXPECT_TRUE(second.passed());
  EXPECT_EQ(second.cycles, first.cycles);
}

// The decoder truth table the controller steps through is decode()
// itself: every one of the 8 flows x 64 condition vectors, with the
// minterm built here bit by bit rather than through decode_minterm().
TEST(UcodeIsa, DecoderTableEqualsDecodeExhaustively) {
  const auto& table = mbist_ucode::kDecoderTable;
  ASSERT_EQ(table.size(), 512u);
  for (std::uint32_t f = 0; f < 8; ++f) {
    for (std::uint32_t c = 0; c < 64; ++c) {
      const auto flow = static_cast<Flow>(f);
      const mbist_ucode::DecodeInputs in{.addr_inc = (c & 1) != 0,
                                         .last_addr = (c & 2) != 0,
                                         .last_data = (c & 4) != 0,
                                         .last_port = (c & 8) != 0,
                                         .repeat_bit = (c & 16) != 0,
                                         .pause_done = (c & 32) != 0};
      const std::uint32_t row = f | c << 3;
      ASSERT_EQ(mbist_ucode::decode_minterm(flow, in), row);
      EXPECT_EQ(table[row], mbist_ucode::pack(mbist_ucode::decode(flow, in)))
          << "flow " << f << " conditions " << c;
    }
  }
}

// White-box: the reference register really is loaded and cleared by the
// two Repeat encounters.
TEST(UcodeController, RepeatSetsAndClearsReferenceRegister) {
  const MemoryGeometry g{.address_bits = 3};
  MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(march::march_a());
  ctrl.reset();
  bool saw_aux_active = false;
  std::uint64_t guard = 0;
  while (!ctrl.done()) {
    ASSERT_LT(++guard, 100'000u);
    (void)ctrl.step();
    if (ctrl.repeat_bit()) {
      EXPECT_TRUE(ctrl.aux_order());
      EXPECT_TRUE(ctrl.aux_data());
      EXPECT_TRUE(ctrl.aux_cmp());
      saw_aux_active = true;
    }
  }
  EXPECT_TRUE(saw_aux_active);
  EXPECT_FALSE(ctrl.repeat_bit());
  EXPECT_FALSE(ctrl.aux_order());
}

// The paper's 2-bit initialization signal: default microcodes, custom
// microcodes, or hold.
TEST(UcodeController, InitializationSelect) {
  const MemoryGeometry g{.address_bits = 4};
  MicrocodeController ctrl{{.geometry = g}};

  ctrl.initialize(mbist_ucode::InitSelect::DefaultProgram);
  EXPECT_EQ(ctrl.program().instructions(),
            MicrocodeController::default_program().instructions());
  EXPECT_EQ(bist::collect_ops(ctrl, 1'000'000),
            march::expand(march::march_c(), g));

  const auto custom = mbist_ucode::assemble(march::mats_plus()).program;
  ctrl.initialize(mbist_ucode::InitSelect::CustomProgram, &custom);
  EXPECT_EQ(bist::collect_ops(ctrl, 1'000'000),
            march::expand(march::mats_plus(), g));

  ctrl.initialize(mbist_ucode::InitSelect::Hold);  // contents retained
  EXPECT_EQ(ctrl.program().instructions(), custom.instructions());
  EXPECT_THROW(ctrl.initialize(mbist_ucode::InitSelect::CustomProgram),
               mbist_ucode::AssembleError);
}

// Serial scan path: load the image bit-serially, read it back, run it.
TEST(UcodeController, ScanLoadRoundTrip) {
  const MemoryGeometry g{.address_bits = 4};
  MicrocodeController ctrl{{.geometry = g}};
  const auto image = mbist_ucode::assemble(march::march_y()).program.image();

  const auto shift_cycles = ctrl.load_scan(image);
  EXPECT_EQ(shift_cycles,
            image.size() * static_cast<std::size_t>(
                               mbist_ucode::kInstructionBits));
  EXPECT_EQ(ctrl.scan_dump(), image);
  EXPECT_EQ(bist::collect_ops(ctrl, 1'000'000),
            march::expand(march::march_y(), g));

  // Oversized and overwide images are rejected.
  std::vector<std::uint16_t> big(40, 0);
  EXPECT_THROW((void)ctrl.load_scan(big), mbist_ucode::AssembleError);
  EXPECT_THROW((void)ctrl.load_scan({static_cast<std::uint16_t>(1u << 10)}),
               std::invalid_argument);
}

// Area model sanity: scan-only storage shrinks the unit, and the decoder
// synthesizes to a nontrivial but bounded size.
TEST(UcodeArea, ScanOnlyStorageShrinksController) {
  const auto lib = netlist::TechLibrary::cmos5s();
  mbist_ucode::AreaConfig full{.geometry = {.address_bits = 10}};
  mbist_ucode::AreaConfig adjusted = full;
  adjusted.storage_cell = netlist::StorageCellClass::ScanOnly;
  const double full_ge = mbist_ucode::microcode_area(full).total_ge(lib);
  const double adj_ge = mbist_ucode::microcode_area(adjusted).total_ge(lib);
  EXPECT_LT(adj_ge, full_ge);
  const double reduction = (full_ge - adj_ge) / full_ge;
  EXPECT_GT(reduction, 0.35) << "storage redesign should dominate";
  EXPECT_LT(reduction, 0.75);
}

TEST(UcodeArea, DecoderSynthesisIsBounded) {
  const auto lib = netlist::TechLibrary::cmos5s();
  const double ge = mbist_ucode::decoder_inventory().total_ge(lib);
  EXPECT_GT(ge, 20.0);
  EXPECT_LT(ge, 600.0);
}

}  // namespace
