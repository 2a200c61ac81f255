// Cross-architecture integration tests: the three controller families must
// be behaviourally interchangeable where their flexibility overlaps, and
// the area models must reproduce the paper's Section 3 observations.

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "bist/session.h"
#include "march/library.h"
#include "mbist_hardwired/area.h"
#include "mbist_hardwired/controller.h"
#include "mbist_pfsm/area.h"
#include "mbist_pfsm/controller.h"
#include "mbist_ucode/area.h"
#include "mbist_ucode/controller.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;
using memsim::MemoryGeometry;

constexpr MemoryGeometry kGeom{.address_bits = 4, .word_bits = 2,
                               .num_ports = 2};

// --- behavioural interchangeability ----------------------------------------

TEST(Cross, AllThreeControllersEmitIdenticalStreams) {
  for (const char* name : {"MATS+", "March C", "March C+", "March A+"}) {
    const auto alg = march::by_name(name);

    mbist_ucode::MicrocodeController ucode{{.geometry = kGeom}};
    ucode.load_algorithm(alg);
    mbist_pfsm::PfsmController pfsm{{.geometry = kGeom}};
    pfsm.load_algorithm(alg);
    mbist_hardwired::HardwiredController hw{alg, {.geometry = kGeom}};

    const auto su = bist::collect_ops(ucode, 100'000'000);
    const auto sp = bist::collect_ops(pfsm, 100'000'000);
    const auto sh = bist::collect_ops(hw, 100'000'000);
    EXPECT_EQ(su, sp) << name;
    EXPECT_EQ(su, sh) << name;
    EXPECT_EQ(su, march::expand(alg, kGeom)) << name;
  }
}

TEST(Cross, PortCountBeyondTheOpFieldIsRejectedByEveryController) {
  // A controller's ops carry a 16-bit port: a geometry with more ports is
  // an error at construction, not a port counter that wraps.  So is one
  // with no ports, whose port loop would never end.
  const auto alg = march::mats();
  for (const int ports : {march::kMaxPorts + 1, 0}) {
    SCOPED_TRACE(ports);
    const MemoryGeometry g{.address_bits = 0, .num_ports = ports};
    EXPECT_THROW(mbist_ucode::MicrocodeController{{.geometry = g}},
                 std::invalid_argument);
    EXPECT_THROW(mbist_pfsm::PfsmController{{.geometry = g}},
                 std::invalid_argument);
    EXPECT_THROW((mbist_hardwired::HardwiredController{alg, {.geometry = g}}),
                 std::invalid_argument);
  }
}

TEST(Cross, IdenticalFaultVerdicts) {
  const auto alg = march::march_c();
  const std::vector<memsim::Fault> faults{
      memsim::StuckAtFault{{7, 1}, true},
      memsim::TransitionFault{{3, 0}, true},
      memsim::InversionCouplingFault{{2, 0}, {12, 1}, false},
      memsim::AddressDecoderFault{5, {9}},
  };
  for (const auto& fault : faults) {
    auto make_mem = [&] {
      auto mem = std::make_unique<memsim::FaultyMemory>(kGeom, 33);
      mem->add_fault(fault);
      return mem;
    };
    mbist_ucode::MicrocodeController ucode{{.geometry = kGeom}};
    ucode.load_algorithm(alg);
    mbist_pfsm::PfsmController pfsm{{.geometry = kGeom}};
    pfsm.load_algorithm(alg);
    mbist_hardwired::HardwiredController hw{alg, {.geometry = kGeom}};

    auto m1 = make_mem();
    auto m2 = make_mem();
    auto m3 = make_mem();
    const auto r1 = bist::run_session(ucode, *m1);
    const auto r2 = bist::run_session(pfsm, *m2);
    const auto r3 = bist::run_session(hw, *m3);
    EXPECT_FALSE(r1.passed()) << memsim::describe(fault);
    EXPECT_EQ(r1.passed(), r2.passed());
    EXPECT_EQ(r1.passed(), r3.passed());
    ASSERT_FALSE(r1.failures.empty());
    ASSERT_FALSE(r2.failures.empty());
    // Same first failing cell regardless of controller.
    EXPECT_EQ(r1.failures.front().op.addr, r2.failures.front().op.addr);
    EXPECT_EQ(r1.failures.front().op.addr, r3.failures.front().op.addr);
  }
}

// The microcode controller executes one op per cycle with zero inter-element
// overhead; the two-level pFSM pays Reset/Done cycles per component.  Both
// must beat no useful work, and microcode must not be slower than pFSM.
TEST(Cross, MicrocodeIsAtLeastAsFastAsPfsm) {
  const MemoryGeometry g{.address_bits = 6};
  for (const char* name : {"March C", "March A", "March Y"}) {
    const auto alg = march::by_name(name);
    mbist_ucode::MicrocodeController ucode{{.geometry = g}};
    ucode.load_algorithm(alg);
    mbist_pfsm::PfsmController pfsm{{.geometry = g}};
    pfsm.load_algorithm(alg);
    const auto cu = bist::count_cycles(ucode, 10'000'000);
    const auto cp = bist::count_cycles(pfsm, 10'000'000);
    EXPECT_LE(cu, cp) << name;
    EXPECT_GE(cu, march::expanded_op_count(alg, g)) << name;
  }
}

// Exact cycle counts of every library algorithm on each family, as the
// SoC scheduler builds the controllers (soc::make_plan_controller), pinned
// so a faster step() cannot change what a cycle means.  -1: the pFSM
// cannot realize the algorithm (CompileError).
TEST(Cross, CycleCountsArePinned) {
  const MemoryGeometry geometries[] = {{.address_bits = 6},
                                       {.address_bits = 8, .word_bits = 8},
                                       {.address_bits = 8, .word_bits = 8,
                                        .num_ports = 2},
                                       {.address_bits = 7, .word_bits = 16}};
  const soc::ControllerKind kinds[] = {soc::ControllerKind::Ucode,
                                       soc::ControllerKind::Pfsm,
                                       soc::ControllerKind::Hardwired};
  // {ucode, pfsm, hardwired} per geometry, in the order above.
  struct Row {
    const char* algorithm;
    long long cycles[4][3];
  };
  const Row expected[] = {
      {"MATS",
       {{258, 265, 260}, {4101, 4126, 4112}, {8202, 8251, 8224},
        {2566, 2597, 2580}}},
      {"MATS+",
       {{324, 329, 324}, {5133, 5150, 5136}, {10266, 10299, 10272},
        {3216, 3237, 3220}}},
      {"MATS++",
       {{386, 393, 388}, {6149, 6174, 6160}, {12298, 12347, 12320},
        {3846, 3877, 3860}}},
      {"March X",
       {{388, 395, 389}, {6157, 6182, 6164}, {12314, 12363, 12328},
        {3856, 3887, 3865}}},
      {"March Y",
       {{516, 523, 517}, {8205, 8230, 8212}, {16410, 16459, 16424},
        {5136, 5167, 5145}}},
      {"March C",
       {{644, 655, 647}, {10253, 10294, 10268}, {20506, 20587, 20536},
        {6416, 6467, 6435}}},
      {"March C (orig)",
       {{708, 721, 712}, {11277, 11326, 11296}, {22554, 22651, 22592},
        {7056, 7117, 7080}}},
      {"March U",
       {{836, 845, 838}, {13325, 13358, 13336}, {26650, 26715, 26672},
        {8336, 8377, 8350}}},
      {"March LR",
       {{898, 911, 903}, {14341, 14390, 14364}, {28682, 28779, 28728},
        {8966, 9027, 8995}}},
      {"March C+",
       {{904, 917, 907}, {14365, 14414, 14380}, {28730, 28827, 28760},
        {8996, 9057, 9015}}},
      {"March C++",
       {{1928, -1, 1931}, {30749, -1, 30764}, {61498, -1, 61528},
        {19236, -1, 19255}}},
      {"March A",
       {{964, 973, 966}, {15373, 15406, 15384}, {30746, 30811, 30768},
        {9616, 9657, 9630}}},
      {"March B",
       {{1090, -1, 1094}, {17413, -1, 17432}, {34826, -1, 34864},
        {10886, -1, 10910}}},
      {"March A+",
       {{1224, 1235, 1226}, {19485, 19526, 19496}, {38970, 39051, 38992},
        {12196, 12247, 12210}}},
      {"March A++",
       {{2120, -1, 2122}, {33821, -1, 33832}, {67642, -1, 67664},
        {21156, -1, 21170}}},
      {"March SS",
       {{1412, -1, 1415}, {22541, -1, 22556}, {45082, -1, 45112},
        {14096, -1, 14115}}},
      {"March G",
       {{1478, -1, 1482}, {23573, -1, 23592}, {47146, -1, 47184},
        {14746, -1, 14770}}},
  };
  const auto algorithms = march::all_algorithms();
  ASSERT_EQ(algorithms.size(), std::size(expected));
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const auto& alg = algorithms[a];
    ASSERT_EQ(alg.name(), expected[a].algorithm);
    for (std::size_t g = 0; g < 4; ++g) {
      for (std::size_t k = 0; k < 3; ++k) {
        const long long want = expected[a].cycles[g][k];
        SCOPED_TRACE(alg.name() + " geometry " + std::to_string(g) +
                     " kind " + std::to_string(k));
        if (want < 0) {
          EXPECT_THROW((void)soc::make_plan_controller(kinds[k], alg,
                                                       geometries[g]),
                       mbist_pfsm::CompileError);
          continue;
        }
        const auto controller =
            soc::make_plan_controller(kinds[k], alg, geometries[g]);
        EXPECT_EQ(bist::count_cycles(*controller, 1'000'000),
                  static_cast<std::uint64_t>(want));
      }
    }
  }
}

// --- the paper's Section 3 observations --------------------------------------

struct PaperAreas {
  double ucode_fullscan;
  double ucode_adjusted;
  double pfsm;
  std::map<std::string, double> hardwired;
};

PaperAreas compute_areas(const MemoryGeometry& g) {
  const auto lib = netlist::TechLibrary::cmos5s();
  PaperAreas out{};
  mbist_ucode::AreaConfig uc{.geometry = g};
  out.ucode_fullscan = mbist_ucode::microcode_area(uc).total_ge(lib);
  uc.storage_cell = netlist::StorageCellClass::ScanOnly;
  out.ucode_adjusted = mbist_ucode::microcode_area(uc).total_ge(lib);
  out.pfsm =
      mbist_pfsm::pfsm_area({.geometry = g}).total_ge(lib);
  for (const auto& alg : march::paper_table_algorithms())
    out.hardwired[alg.name()] =
        mbist_hardwired::hardwired_area(alg, {.geometry = g}).total_ge(lib);
  return out;
}

TEST(PaperObservations, StorageRedesignShrinksMicrocodeController) {
  // Observation 1: the scan-only storage redesign cuts the microcode unit
  // by roughly half (the paper's garbled "approximately 6_%" figure; our
  // model lands in the 40-70% band because the storage unit dominates).
  const auto a = compute_areas({.address_bits = 10});
  const double reduction =
      (a.ucode_fullscan - a.ucode_adjusted) / a.ucode_fullscan;
  EXPECT_GT(reduction, 0.40);
  EXPECT_LT(reduction, 0.70);
}

TEST(PaperObservations, AdjustedMicrocodeBeatsPfsmOnAreaAndFlexibility) {
  // Observation 2 / abstract: better flexibility AND lower overhead.
  const auto a = compute_areas({.address_bits = 10});
  EXPECT_LT(a.ucode_adjusted, a.pfsm);
  // Flexibility: microcode runs the ++ algorithms, the pFSM cannot.
  mbist_ucode::MicrocodeController ucode{
      {.geometry = {.address_bits = 10}}};
  EXPECT_NO_THROW(ucode.load_algorithm(march::march_c_plus_plus()));
  EXPECT_FALSE(mbist_pfsm::is_mappable(march::march_c_plus_plus()));
}

TEST(PaperObservations, HardwiredGrowsWithEnhancement) {
  // Observation 3.
  const auto a = compute_areas({.address_bits = 10});
  EXPECT_LT(a.hardwired.at("March C"), a.hardwired.at("March C+"));
  EXPECT_LT(a.hardwired.at("March C+"), a.hardwired.at("March C++"));
  EXPECT_LT(a.hardwired.at("March A"), a.hardwired.at("March A+"));
  EXPECT_LT(a.hardwired.at("March A+"), a.hardwired.at("March A++"));
}

TEST(PaperObservations, GapNarrowsAsHardwiredIsEnhanced) {
  // Observation 4: the microcode-vs-hardwired difference shrinks as the
  // non-programmable unit's capability grows (within each algorithm
  // family; across families the synthesized-logic sizes are close enough
  // to wobble).
  const auto a = compute_areas({.address_bits = 10});
  auto gap = [&](const char* name) {
    return a.ucode_adjusted - a.hardwired.at(name);
  };
  EXPECT_GT(gap("March C"), gap("March C+"));
  EXPECT_GT(gap("March C+"), gap("March C++"));
  EXPECT_GT(gap("March A"), gap("March A+"));
  EXPECT_GT(gap("March A+"), gap("March A++"));
  // Every hardwired unit is still smaller than the programmable ones
  // (programmability is never free).
  for (const auto& [name, ge] : a.hardwired) {
    EXPECT_LT(ge, a.ucode_adjusted) << name;
    EXPECT_LT(ge, a.pfsm) << name;
  }
}

TEST(PaperObservations, Table2ExtensionsGrowEveryArchitecture) {
  const auto bit = compute_areas({.address_bits = 10});
  const auto word =
      compute_areas({.address_bits = 10, .word_bits = 8, .num_ports = 1});
  const auto multi =
      compute_areas({.address_bits = 10, .word_bits = 8, .num_ports = 2});
  EXPECT_LT(bit.ucode_adjusted, word.ucode_adjusted);
  EXPECT_LT(word.ucode_adjusted, multi.ucode_adjusted);
  EXPECT_LT(bit.pfsm, word.pfsm);
  EXPECT_LT(bit.hardwired.at("March C"), word.hardwired.at("March C"));
  EXPECT_LT(word.hardwired.at("March C"), multi.hardwired.at("March C"));
}

}  // namespace
