// Fault-coverage campaign tests — the semantic claims behind the paper's
// algorithm family: March C detects the classic static fault classes, the
// "+" retention variants add DRF detection, the "++" triple-read variants
// add weak-cell (DRDF) detection.  These are the properties that make the
// programmable controllers *worth* programming.

#include <gtest/gtest.h>

#include <stdexcept>

#include "march/coverage.h"
#include "march/library.h"

namespace {

using namespace pmbist;
using march::CoverageOptions;
using march::evaluate_coverage;
using memsim::FaultClass;
using memsim::MemoryGeometry;

constexpr MemoryGeometry kGeom{.address_bits = 5, .word_bits = 1,
                               .num_ports = 1};
const CoverageOptions kOpts{.seed = 42, .max_instances_per_class = 64};

double ratio(const march::MarchAlgorithm& alg, FaultClass cls) {
  return evaluate_coverage(alg, cls, kGeom, kOpts).ratio();
}

TEST(FaultUniverse, ExhaustiveWhereSmall) {
  const auto safs =
      march::make_fault_universe(FaultClass::SAF, kGeom, 1, 64);
  EXPECT_EQ(safs.size(), 64u);  // 32 cells x 2 values, enumerated
  const auto sofs =
      march::make_fault_universe(FaultClass::SOF, kGeom, 1, 64);
  EXPECT_EQ(sofs.size(), 32u);
  const auto cfs =
      march::make_fault_universe(FaultClass::CFin, kGeom, 1, 48);
  EXPECT_EQ(cfs.size(), 48u);  // sampled
  // Deterministic under the same seed.
  EXPECT_EQ(march::make_fault_universe(FaultClass::CFid, kGeom, 9, 16),
            march::make_fault_universe(FaultClass::CFid, kGeom, 9, 16));
}

TEST(FaultUniverse, AfInstancesCoverAllFourTypes) {
  const auto afs = march::make_fault_universe(FaultClass::AF, kGeom, 3, 16);
  int empty = 0, wrong = 0, multi = 0;
  for (const auto& f : afs) {
    const auto& af = std::get<memsim::AddressDecoderFault>(f);
    if (af.physical.empty())
      ++empty;
    else if (af.physical.size() == 1)
      ++wrong;
    else
      ++multi;
  }
  EXPECT_GT(empty, 0);
  EXPECT_GT(wrong, 0);
  EXPECT_GT(multi, 0);
}

// --- the headline coverage matrix -------------------------------------------

// A coupling fault needs two cells and an address fault two words; the
// samplers used to redraw forever on smaller geometries (ctest's timeout
// is what catches a regression here).
TEST(FaultUniverse, TooSmallGeometriesThrowInsteadOfSpinning) {
  const MemoryGeometry one_cell{.address_bits = 0, .word_bits = 1,
                                .num_ports = 1};
  const MemoryGeometry one_word{.address_bits = 0, .word_bits = 2,
                                .num_ports = 1};
  for (const auto cls : {FaultClass::CFin, FaultClass::CFid, FaultClass::CFst,
                         FaultClass::AF})
    EXPECT_THROW((void)march::make_fault_universe(cls, one_cell, 1, 8),
                 std::invalid_argument)
        << memsim::fault_class_name(cls);
  EXPECT_THROW(
      (void)march::make_fault_universe(FaultClass::AF, one_word, 1, 8),
      std::invalid_argument);
  EXPECT_THROW((void)march::make_linked_cfid_universe(one_word, 1, 8),
               std::invalid_argument);
  EXPECT_THROW((void)march::make_intra_word_cf_universe(one_cell, 1, 8),
               std::invalid_argument);
  // What fits still samples: two bits of one word couple, one cell holds
  // a stuck-at fault.
  EXPECT_EQ(
      march::make_fault_universe(FaultClass::CFin, one_word, 1, 8).size(), 8u);
  EXPECT_EQ(
      march::make_fault_universe(FaultClass::SAF, one_cell, 1, 8).size(), 2u);
}

TEST(Coverage, MarchCDetectsAllStaticClasses) {
  const auto c = march::march_c();
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::SAF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::TF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::AF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::CFin), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::CFid), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::CFst), 1.0);
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::RDF), 1.0);
}

TEST(Coverage, MarchCMissesRetentionAndWeakCells) {
  const auto c = march::march_c();
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::DRF), 0.0);   // never pauses
  EXPECT_DOUBLE_EQ(ratio(c, FaultClass::DRDF), 0.0);  // no back-to-back reads
}

TEST(Coverage, RetentionVariantAddsDrfDetection) {
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus(), FaultClass::DRF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_a_plus(), FaultClass::DRF), 1.0);
  // But pausing alone does not catch weak cells.
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus(), FaultClass::DRDF), 0.0);
}

TEST(Coverage, TripleReadVariantAddsWeakCellDetection) {
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus_plus(), FaultClass::DRDF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_a_plus_plus(), FaultClass::DRDF), 1.0);
  // And keeps everything the + variant had.
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus_plus(), FaultClass::DRF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus_plus(), FaultClass::SAF), 1.0);
}

TEST(Coverage, MatsIsWeakerThanMarchC) {
  const auto m = march::mats();
  EXPECT_DOUBLE_EQ(ratio(m, FaultClass::SAF), 1.0);  // MATS's design goal
  // Falling transitions are never *verified*: rising TFs are guaranteed
  // (ratio > 0.5); falling TFs are caught only when random power-up leaves
  // the cell at 1 so the initializing w0 visibly fails (ratio < 1).
  EXPECT_GT(ratio(m, FaultClass::TF), 0.5);
  EXPECT_LT(ratio(m, FaultClass::TF), 1.0);
  EXPECT_LT(ratio(m, FaultClass::CFin), 1.0);
  EXPECT_LT(ratio(m, FaultClass::CFid), 1.0);
}

TEST(Coverage, MatsPlusDetectsAddressFaults) {
  const auto m = march::mats_plus();
  EXPECT_DOUBLE_EQ(ratio(m, FaultClass::SAF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(m, FaultClass::AF), 1.0);
  // The final w0 sweep is never verified: falling TFs are not guaranteed
  // (only power-up luck catches some).
  EXPECT_GT(ratio(m, FaultClass::TF), 0.5);
  EXPECT_LT(ratio(m, FaultClass::TF), 1.0);
}

TEST(Coverage, MarchXClosesTheTransitionGap) {
  EXPECT_DOUBLE_EQ(ratio(march::march_x(), FaultClass::TF), 1.0);
}

TEST(Coverage, MarchAMatchesMarchCOnStaticClasses) {
  const auto a = march::march_a();
  EXPECT_DOUBLE_EQ(ratio(a, FaultClass::SAF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(a, FaultClass::TF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(a, FaultClass::CFin), 1.0);
}

TEST(Coverage, StuckOpenNeedsReadAfterWriteAfterRead) {
  // Within an (r,w) element the sense residue always agrees with the
  // expected value, so plain March C barely sees SOF cells (the classic
  // result that SOFs escape simple march tests).  Elements of the shape
  // (r d, w ~d, r ~d) — March Y's sweeps, and the retention tail the "+"
  // variants append — re-read the cell right after the lost write, where
  // the residue still holds the old value: full detection.
  EXPECT_LT(ratio(march::march_c(), FaultClass::SOF), 0.3);
  EXPECT_LT(ratio(march::march_a(), FaultClass::SOF), 0.3);
  EXPECT_DOUBLE_EQ(ratio(march::march_y(), FaultClass::SOF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus(), FaultClass::SOF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_c_plus_plus(), FaultClass::SOF), 1.0);
}

TEST(Coverage, IncorrectReadsAreAlwaysCaught) {
  // An IRF mismatches every read of the cell, so any algorithm that reads
  // each cell at least once detects all IRFs.
  EXPECT_DOUBLE_EQ(ratio(march::mats(), FaultClass::IRF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_c(), FaultClass::IRF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(march::march_ss(), FaultClass::IRF), 1.0);
}

TEST(Coverage, WriteDisturbsNeedNonTransitionWrites) {
  // March SS has verified non-transition writes (r0,r0,w0,r0,...); the
  // March C/A family never writes a value a cell already holds after the
  // initializing sweep, so WDF detection there rides on power-up luck.
  EXPECT_DOUBLE_EQ(ratio(march::march_ss(), FaultClass::WDF), 1.0);
  const double c = ratio(march::march_c(), FaultClass::WDF);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
  const double cpp = ratio(march::march_c_plus_plus(), FaultClass::WDF);
  EXPECT_LT(cpp, 1.0);
}

TEST(Coverage, MarchSsCoversAllSimpleStaticFaults) {
  const auto ss = march::march_ss();
  for (FaultClass cls :
       {FaultClass::SAF, FaultClass::TF, FaultClass::CFin, FaultClass::CFid,
        FaultClass::CFst, FaultClass::AF, FaultClass::IRF, FaultClass::WDF,
        FaultClass::RDF, FaultClass::DRDF}) {
    EXPECT_DOUBLE_EQ(ratio(ss, cls), 1.0) << memsim::fault_class_name(cls);
  }
  // Static means no pauses: retention faults are out of scope for SS.
  EXPECT_DOUBLE_EQ(ratio(ss, FaultClass::DRF), 0.0);
}

TEST(Coverage, MarchGAddsRetentionAndRecovery) {
  const auto g = march::march_g();
  EXPECT_DOUBLE_EQ(ratio(g, FaultClass::DRF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(g, FaultClass::SOF), 1.0);  // (r,w,r) components
  EXPECT_DOUBLE_EQ(ratio(g, FaultClass::SAF), 1.0);
  EXPECT_DOUBLE_EQ(ratio(g, FaultClass::CFid), 1.0);
}

TEST(Coverage, MarchUAndLrMatchMarchCOnStaticClasses) {
  for (const auto& alg : {march::march_u(), march::march_lr()}) {
    EXPECT_DOUBLE_EQ(ratio(alg, FaultClass::SAF), 1.0) << alg.name();
    EXPECT_DOUBLE_EQ(ratio(alg, FaultClass::TF), 1.0) << alg.name();
    EXPECT_DOUBLE_EQ(ratio(alg, FaultClass::AF), 1.0) << alg.name();
    EXPECT_DOUBLE_EQ(ratio(alg, FaultClass::CFin), 1.0) << alg.name();
  }
}

// Monotonicity property: C++ detects a superset of C+ which detects a
// superset of C, class by class.
TEST(Coverage, EnhancementIsMonotone) {
  for (FaultClass cls : memsim::all_fault_classes()) {
    const double c = ratio(march::march_c(), cls);
    const double cp = ratio(march::march_c_plus(), cls);
    const double cpp = ratio(march::march_c_plus_plus(), cls);
    EXPECT_LE(c, cp + 1e-9) << memsim::fault_class_name(cls);
    EXPECT_LE(cp, cpp + 1e-9) << memsim::fault_class_name(cls);
  }
}

// Word-oriented coverage: the background sweep preserves detection of
// intra-word coupling.
TEST(Coverage, WordOrientedInterBitCoupling) {
  const MemoryGeometry word{.address_bits = 3, .word_bits = 4,
                            .num_ports = 1};
  // Aggressor and victim inside the same word.
  memsim::FaultyMemory mem{word, 1};
  mem.add_fault(
      memsim::InversionCouplingFault{{5, 1}, {5, 2}, /*on_rising=*/true});
  const auto stream = march::expand(march::march_c(), word);
  EXPECT_FALSE(march::run_stream(stream, mem).passed());
}

TEST(Coverage, LinkedFaultsAreMarchLrsSpeciality) {
  // Linked CFid pairs sharing a victim can mask each other; March LR was
  // designed to detect them, the March C family provably misses some.
  const auto lr =
      march::evaluate_linked_coverage(march::march_lr(), kGeom, kOpts);
  const auto c =
      march::evaluate_linked_coverage(march::march_c(), kGeom, kOpts);
  EXPECT_EQ(lr.detected, lr.total);
  EXPECT_LT(c.detected, c.total);
  EXPECT_GT(c.ratio(), 0.5);  // the misses are a minority
}

TEST(Coverage, LinkedUniverseIsWellFormed) {
  const auto universe = march::make_linked_cfid_universe(kGeom, 9, 32);
  EXPECT_EQ(universe.size(), 32u);
  for (const auto& [a, b] : universe) {
    const auto& f1 = std::get<memsim::IdempotentCouplingFault>(a);
    const auto& f2 = std::get<memsim::IdempotentCouplingFault>(b);
    EXPECT_EQ(f1.victim, f2.victim);
    EXPECT_NE(f1.aggressor, f2.aggressor);
    EXPECT_NE(f1.aggressor, f1.victim);
    EXPECT_NE(f1.forced_value, f2.forced_value);
  }
  EXPECT_EQ(march::make_linked_cfid_universe(kGeom, 9, 32), universe);
}

TEST(Coverage, MatrixAndFormatting) {
  const std::vector<march::MarchAlgorithm> algs{march::march_c(),
                                                march::march_c_plus()};
  const std::vector<FaultClass> classes{FaultClass::SAF, FaultClass::DRF};
  const auto rows = march::coverage_matrix(algs, classes, kGeom, kOpts);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].algorithm, "March C");
  EXPECT_DOUBLE_EQ(rows[0].cells.at(FaultClass::DRF).ratio(), 0.0);
  EXPECT_DOUBLE_EQ(rows[1].cells.at(FaultClass::DRF).ratio(), 1.0);
  const std::string table = march::format_coverage_table(rows, classes);
  EXPECT_NE(table.find("March C+"), std::string::npos);
  EXPECT_NE(table.find("100%"), std::string::npos);
}

TEST(RunStream, CountsAndFailureCap) {
  memsim::FaultyMemory mem{kGeom, 1};
  mem.add_fault(memsim::StuckAtFault{{0, 0}, true});
  mem.add_fault(memsim::StuckAtFault{{1, 0}, true});
  const auto stream = march::expand(march::march_c(), kGeom);
  const auto r = march::run_stream(stream, mem, /*max_failures=*/1);
  EXPECT_EQ(r.failures.size(), 1u);  // capped, but the run completed
  EXPECT_EQ(r.reads + r.writes, stream.size());
}

}  // namespace
