// Diagnostics tests: fail bitmaps, the signature classifier, and the
// transparent (on-line) BIST transform — the applications the paper cites
// to justify programmable controllers.

#include <gtest/gtest.h>

#include "diag/bitmap.h"
#include "diag/classify.h"
#include "diag/transparent.h"
#include "march/library.h"

namespace {

using namespace pmbist;
using memsim::FaultClass;
using memsim::MemoryGeometry;

constexpr MemoryGeometry kGeom{.address_bits = 4, .word_bits = 4,
                               .num_ports = 1};

// --- bitmap -------------------------------------------------------------------

TEST(Bitmap, AccumulatesFailingBits) {
  diag::FailBitmap bm{kGeom};
  std::vector<march::Failure> failures;
  failures.push_back({0, march::MemOp::read(0, 3, 0xF), 0xD});  // bit 1
  failures.push_back({1, march::MemOp::read(0, 3, 0x0), 0x2});  // bit 1
  failures.push_back({2, march::MemOp::read(0, 7, 0x0), 0x9});  // bits 0,3
  bm.accumulate(failures);
  EXPECT_EQ(bm.fail_count(3, 1), 2);
  EXPECT_EQ(bm.fail_count(7, 0), 1);
  EXPECT_EQ(bm.fail_count(7, 3), 1);
  EXPECT_EQ(bm.fail_count(7, 1), 0);
  EXPECT_EQ(bm.total_events(), 4);
  EXPECT_EQ(bm.failing_cells().size(), 3u);
  EXPECT_EQ(bm.row_histogram().at(3), 2);
  EXPECT_EQ(bm.column_histogram().at(1), 2);
  const std::string art = bm.render();
  EXPECT_NE(art.find("addr 3"), std::string::npos);
  EXPECT_NE(art.find('X'), std::string::npos);
}

TEST(Bitmap, CleanRender) {
  diag::FailBitmap bm{kGeom};
  EXPECT_NE(bm.render().find("clean"), std::string::npos);
}

// --- classifier -----------------------------------------------------------------

diag::Diagnosis diagnose_fault(const memsim::Fault& fault) {
  memsim::FaultyMemory mem{kGeom, 5};
  mem.add_fault(fault);
  return diag::diagnose(mem);
}

TEST(Classify, CleanMemory) {
  memsim::FaultyMemory mem{kGeom, 5};
  const auto d = diag::diagnose(mem);
  EXPECT_FALSE(d.any_failure);
  EXPECT_TRUE(d.candidates.empty());
}

TEST(Classify, StuckAt0SignatureNamesCellAndCandidates) {
  const auto d = diagnose_fault(memsim::StuckAtFault{{9, 2}, false});
  EXPECT_TRUE(d.any_failure);
  EXPECT_TRUE(d.candidates.contains(FaultClass::SAF));
  EXPECT_TRUE(d.candidates.contains(FaultClass::TF));
  ASSERT_EQ(d.suspect_cells.size(), 1u);
  EXPECT_EQ(d.suspect_cells[0], (memsim::BitRef{9, 2}));
}

TEST(Classify, StuckAt1Signature) {
  const auto d = diagnose_fault(memsim::StuckAtFault{{2, 0}, true});
  EXPECT_TRUE(d.candidates.contains(FaultClass::SAF));
}

TEST(Classify, RetentionFaultOnlySeenAfterPause) {
  const auto d = diagnose_fault(memsim::DataRetentionFault{
      {4, 1}, /*leak_to=*/false, /*hold_time_ns=*/march::kDefaultPauseNs / 2});
  EXPECT_TRUE(d.any_failure);
  EXPECT_EQ(d.candidates,
            (std::set<FaultClass>{FaultClass::DRF}));
}

TEST(Classify, WeakCellOnlySeenByTripleReads) {
  const auto d =
      diagnose_fault(memsim::ReadDestructiveFault{{6, 3}, /*deceptive=*/true});
  EXPECT_TRUE(d.any_failure);
  EXPECT_EQ(d.candidates, (std::set<FaultClass>{FaultClass::DRDF}));
}

TEST(Classify, CouplingProducesMultiAddressCandidates) {
  const auto d = diagnose_fault(
      memsim::InversionCouplingFault{{3, 0}, {11, 0}, /*on_rising=*/true});
  EXPECT_TRUE(d.any_failure);
  EXPECT_TRUE(d.candidates.contains(FaultClass::CFin) ||
              d.candidates.contains(FaultClass::RDF));
}

TEST(Classify, AddressFaultSignature) {
  const auto d = diagnose_fault(memsim::AddressDecoderFault{6, {7}});
  EXPECT_TRUE(d.any_failure);
  EXPECT_TRUE(d.candidates.contains(FaultClass::AF));
  EXPECT_GE(d.suspect_cells.size(), 2u);
}

// --- transparent BIST -------------------------------------------------------------

TEST(Transparent, PreservesContentsOnFaultFreeMemory) {
  memsim::SramModel mem{kGeom, 77};
  std::vector<memsim::Word> before(kGeom.num_words());
  for (memsim::Address a = 0; a < kGeom.num_words(); ++a)
    before[a] = mem.read(0, a);

  const auto r = diag::run_transparent(march::march_c(), mem);
  EXPECT_TRUE(r.passed);
  EXPECT_TRUE(r.contents_preserved);
  for (memsim::Address a = 0; a < kGeom.num_words(); ++a)
    EXPECT_EQ(mem.read(0, a), before[a]) << "addr " << a;
}

TEST(Transparent, RestoresWhenAlgorithmEndsInD1) {
  // MATS leaves d=1; the transform appends a restore pass.
  memsim::SramModel mem{kGeom, 78};
  std::vector<memsim::Word> before(kGeom.num_words());
  for (memsim::Address a = 0; a < kGeom.num_words(); ++a)
    before[a] = mem.read(0, a);
  const auto r = diag::run_transparent(march::mats(), mem);
  EXPECT_TRUE(r.passed);
  EXPECT_TRUE(r.contents_preserved);
  for (memsim::Address a = 0; a < kGeom.num_words(); ++a)
    EXPECT_EQ(mem.read(0, a), before[a]);
}

TEST(Transparent, StillDetectsFaults) {
  memsim::FaultyMemory mem{kGeom, 9};
  mem.add_fault(memsim::StuckAtFault{{5, 1}, true});
  const auto r = diag::run_transparent(march::march_c(), mem);
  EXPECT_FALSE(r.passed);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_EQ(r.failures.front().op.addr, 5u);
}

TEST(Transparent, StreamXorsSeed) {
  const MemoryGeometry g{.address_bits = 1, .word_bits = 2};
  const std::vector<memsim::Word> seed{0b01, 0b10};
  const auto plain = march::expand(march::march_x(), g);
  const auto trans = diag::transparent_stream(march::march_x(), g, seed);
  ASSERT_EQ(plain.size(), trans.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(trans[i].data, (plain[i].data ^ seed[plain[i].addr]) & 0b11u);
    EXPECT_EQ(trans[i].addr, plain[i].addr);
  }
  EXPECT_THROW((void)diag::transparent_stream(march::march_x(), g, {0}),
               std::invalid_argument);
}

TEST(Transparent, PausesKeepTheirLength) {
  // A pause carries its length in MemOp::data, the field the transform
  // XORs with the seed: every pause must come through unchanged, in the
  // plain stream and with the restore pass.  The seeds set every bit a
  // masked XOR could touch.  MATS with a retention tail ends on d=1, so
  // only its stream gains the restore writes.
  const MemoryGeometry g{.address_bits = 2, .word_bits = 2};
  const std::vector<memsim::Word> seed{0b11, 0b01, 0b10, 0b11};
  for (const auto& alg :
       {march::with_retention(march::march_c(), 7'000, "C ret"),
        march::with_retention(march::mats(), 9'000'000'001, "MATS ret")}) {
    SCOPED_TRACE(alg.name());
    const auto plain = march::expand(alg, g);
    for (const auto& trans :
         {diag::transparent_stream(alg, g, seed),
          diag::transparent_stream_with_restore(alg, g, seed)}) {
      ASSERT_GE(trans.size(), plain.size());
      int pauses = 0;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        if (plain[i].kind != march::MemOp::Kind::Pause) continue;
        ++pauses;
        EXPECT_EQ(trans[i], plain[i]) << "op " << i;
        EXPECT_EQ(trans[i].pause_ns(), alg.name() == "C ret"
                                           ? 7'000u
                                           : 9'000'000'001u);
      }
      EXPECT_EQ(pauses, 4);  // two per background
    }
  }
}

}  // namespace
