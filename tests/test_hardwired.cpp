// Hardwired (non-programmable) controller tests: generated FSM structure,
// op-stream equivalence against the reference expansion for every library
// algorithm, and the paper's observation 3 — hardwired area grows as the
// algorithm/fault model is enhanced.

#include <gtest/gtest.h>

#include "bist/session.h"
#include "march/library.h"
#include "mbist_hardwired/area.h"
#include "mbist_hardwired/controller.h"

namespace {

using namespace pmbist;
using mbist_hardwired::HardwiredController;
using memsim::MemoryGeometry;

// States = Idle + Done + per element (setup + ops | pause) + loop states.
TEST(HardwiredGenerator, StateCountFormula) {
  const auto alg = march::march_c();
  const auto fsm =
      mbist_hardwired::generate_fsm(alg, {.data_backgrounds = false,
                                          .multiport = false});
  int expected = 2;  // Idle + Done
  for (const auto& e : alg.elements())
    expected += e.is_pause ? 1 : 1 + static_cast<int>(e.ops.size());
  EXPECT_EQ(fsm.num_states(), expected);  // March C: 2 + 6 + 10 = 18

  const auto fsm_full =
      mbist_hardwired::generate_fsm(alg, {.data_backgrounds = true,
                                          .multiport = true});
  EXPECT_EQ(fsm_full.num_states(), expected + 2);  // + BgAdvance + PortAdvance
}

TEST(HardwiredGenerator, AllLibraryAlgorithmsValidate) {
  for (const auto& alg : march::all_algorithms()) {
    for (bool word : {false, true}) {
      for (bool mp : {false, true}) {
        const auto fsm = mbist_hardwired::generate_fsm(
            alg, {.data_backgrounds = word, .multiport = mp});
        EXPECT_TRUE(fsm.validate().empty())
            << alg.name() << " word=" << word << " mp=" << mp;
      }
    }
  }
}

struct EquivCase {
  const char* alg;
  MemoryGeometry geometry;
};

class HardwiredEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(HardwiredEquivalence, StreamMatchesReferenceExpansion) {
  const auto& p = GetParam();
  const auto alg = march::by_name(p.alg);
  HardwiredController ctrl{alg, {.geometry = p.geometry}};
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
    AllAlgorithms, HardwiredEquivalence,
    ::testing::Values(EquivCase{"MATS", kBit1P}, EquivCase{"MATS+", kBit1P},
                      EquivCase{"March X", kBit1P},
                      EquivCase{"March Y", kBit1P},
                      EquivCase{"March C", kBit1P},
                      EquivCase{"March C (orig)", kBit1P},
                      EquivCase{"March C+", kBit1P},
                      EquivCase{"March C++", kBit1P},
                      EquivCase{"March A", kBit1P},
                      EquivCase{"March A+", kBit1P},
                      EquivCase{"March A++", kBit1P},
                      EquivCase{"March B", kBit1P},
                      EquivCase{"March U", kBit1P},
                      EquivCase{"March LR", kBit1P},
                      EquivCase{"March SS", kBit1P},
                      EquivCase{"March G", kBit1P},
                      EquivCase{"March SS", kWord2P},
                      EquivCase{"March G", kWord1P},
                      EquivCase{"March C", kWord1P},
                      EquivCase{"March C++", kWord1P},
                      EquivCase{"March A+", kWord2P},
                      EquivCase{"March C++", kWord2P},
                      EquivCase{"March B", kWord2P}),
    [](const auto& info) {
      std::string name = info.param.alg;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + "_a" + std::to_string(info.param.geometry.address_bits) +
             "_w" + std::to_string(info.param.geometry.word_bits) + "_p" +
             std::to_string(info.param.geometry.num_ports);
    });

TEST(HardwiredController, PassesOnFaultFreeMemory) {
  const MemoryGeometry g{.address_bits = 6, .word_bits = 4, .num_ports = 2};
  HardwiredController ctrl{march::march_c_plus_plus(), {.geometry = g}};
  memsim::SramModel mem{g, 11};
  const auto result = bist::run_session(ctrl, mem);
  EXPECT_TRUE(result.passed());
}

TEST(HardwiredController, DetectsInjectedFault) {
  const MemoryGeometry g{.address_bits = 5};
  HardwiredController ctrl{march::march_c(), {.geometry = g}};
  memsim::FaultyMemory mem{g, 1};
  mem.add_fault(memsim::StuckAtFault{{17, 0}, true});
  const auto result = bist::run_session(ctrl, mem);
  EXPECT_TRUE(result.completed());
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().op.addr, 17u);
}

// The controller's tabulated next-state function is MooreFsm::step for
// every state and every input word, across the feature combinations.
TEST(HardwiredController, NextStateTableEqualsFsmStep) {
  for (const MemoryGeometry g :
       {MemoryGeometry{.address_bits = 4},
        MemoryGeometry{.address_bits = 4, .word_bits = 4},
        MemoryGeometry{.address_bits = 4, .word_bits = 4, .num_ports = 2}}) {
    for (const auto& alg : march::all_algorithms()) {
      const HardwiredController ctrl{alg, {.geometry = g}};
      const auto& fsm = ctrl.fsm();
      ASSERT_EQ(fsm.num_inputs(), mbist_hardwired::kNumFsmInputs);
      for (int state = 0; state < fsm.num_states(); ++state)
        for (std::uint32_t in = 0; in < 1u << fsm.num_inputs(); ++in)
          ASSERT_EQ(ctrl.next_state(state, in), fsm.step(state, in))
              << alg.name() << " state " << state << " inputs " << in;
    }
  }
}

// Observation 3: enhancing the algorithm grows the hardwired controller.
TEST(HardwiredArea, AreaGrowsWithAlgorithmEnhancement) {
  const auto lib = netlist::TechLibrary::cmos5s();
  const mbist_hardwired::AreaConfig cfg{.geometry = {.address_bits = 10}};
  auto ge = [&](const march::MarchAlgorithm& a) {
    return mbist_hardwired::hardwired_area(a, cfg).total_ge(lib);
  };
  EXPECT_LT(ge(march::march_c()), ge(march::march_c_plus()));
  EXPECT_LT(ge(march::march_c_plus()), ge(march::march_c_plus_plus()));
  EXPECT_LT(ge(march::march_a()), ge(march::march_a_plus()));
  EXPECT_LT(ge(march::march_a_plus()), ge(march::march_a_plus_plus()));
  // March A is a longer algorithm than March C.
  EXPECT_LT(ge(march::march_c()), ge(march::march_a()));
}

// Word-oriented / multiport support grows the controller (Table 2 vs 1).
TEST(HardwiredArea, AreaGrowsWithFeatureSupport) {
  const auto lib = netlist::TechLibrary::cmos5s();
  auto ge = [&](MemoryGeometry g) {
    return mbist_hardwired::hardwired_area(march::march_c(), {.geometry = g})
        .total_ge(lib);
  };
  const double bit1p = ge({.address_bits = 10, .word_bits = 1, .num_ports = 1});
  const double word = ge({.address_bits = 10, .word_bits = 8, .num_ports = 1});
  const double multi = ge({.address_bits = 10, .word_bits = 8, .num_ports = 2});
  EXPECT_LT(bit1p, word);
  EXPECT_LT(word, multi);
}

// The area ordering is process-independent (same inventory, different
// library): a sanity check that reports scale, not reorder.
TEST(HardwiredArea, OrderingIsProcessIndependent) {
  const auto lib1 = netlist::TechLibrary::cmos5s();
  const auto lib2 = netlist::TechLibrary::generic_0_6um();
  const mbist_hardwired::AreaConfig cfg{.geometry = {.address_bits = 10}};
  const auto rc = mbist_hardwired::hardwired_area(march::march_c(), cfg);
  const auto ra = mbist_hardwired::hardwired_area(march::march_a(), cfg);
  EXPECT_LT(rc.total_ge(lib1), ra.total_ge(lib1));
  EXPECT_LT(rc.total_area_um2(lib2), ra.total_area_um2(lib2));
  EXPECT_GT(rc.total_area_um2(lib2), rc.total_area_um2(lib1));
}

}  // namespace
