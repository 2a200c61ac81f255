// MISR response-compaction tests: LFSR mechanics, golden-signature
// prediction, verdict agreement with the deterministic comparator across a
// fault zoo, and measured aliasing behavior.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "bist/misr.h"
#include "march/expand.h"
#include "march/library.h"
#include "mbist_ucode/controller.h"

namespace {

using namespace pmbist;
using bist::Misr;
using memsim::MemoryGeometry;

TEST(Misr, WidthValidation) {
  EXPECT_THROW((void)Misr::polynomial(0), std::invalid_argument);
  EXPECT_THROW((void)Misr::polynomial(65), std::invalid_argument);
  for (int w : {1, 2, 3, 4, 8, 9, 13, 16, 24, 32, 64}) {
    const auto poly = Misr::polynomial(w);
    EXPECT_NE(poly, 0u) << w;
    if (w < 64) {
      EXPECT_LT(poly, memsim::Word{1} << w) << w;
    }
  }
}

TEST(Misr, DeterministicAndSeedSensitive) {
  Misr a{8, 0}, b{8, 0}, c{8, 1};
  for (memsim::Word v : {0x12ull, 0x34ull, 0x56ull}) {
    a.absorb(v);
    b.absorb(v);
    c.absorb(v);
  }
  EXPECT_EQ(a.signature(), b.signature());
  EXPECT_NE(a.signature(), c.signature());
  EXPECT_EQ(a.absorbed(), 3u);
  a.reset();
  EXPECT_EQ(a.signature(), 0u);
  EXPECT_EQ(a.absorbed(), 0u);
}

TEST(Misr, OrderSensitivity) {
  // A signature register must distinguish permuted responses (a plain
  // XOR-accumulator would not).
  Misr a{8}, b{8};
  a.absorb(0x01);
  a.absorb(0x02);
  b.absorb(0x02);
  b.absorb(0x01);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, SingleBitErrorAlwaysChangesSignature) {
  // A single corrupted response can never alias (linearity of the LFSR:
  // the error syndrome of one flipped bit is non-zero).
  for (int flip_at : {0, 5, 9}) {
    Misr good{8}, bad{8};
    for (int i = 0; i < 10; ++i) {
      const memsim::Word v = static_cast<memsim::Word>(i * 37 % 256);
      good.absorb(v);
      bad.absorb(i == flip_at ? v ^ 0x10 : v);
    }
    EXPECT_NE(good.signature(), bad.signature()) << flip_at;
  }
}

TEST(Misr, MaximalLengthForTabulatedWidth) {
  // With a primitive polynomial and zero input, the LFSR cycles through
  // 2^w - 1 non-zero states.
  Misr m{8, 1};
  std::set<memsim::Word> seen;
  memsim::Word s = m.signature();
  for (int i = 0; i < 255; ++i) {
    EXPECT_TRUE(seen.insert(s).second) << "state repeated at step " << i;
    m.absorb(0);
    s = m.signature();
  }
  EXPECT_EQ(s, 1u);  // back to the seed after 2^8 - 1 steps
}

/// The MISR clock as first written: a branch on the feedback bit.
memsim::Word branchy_absorb(memsim::Word state, memsim::Word value, int width) {
  const memsim::Word mask =
      width >= 64 ? ~memsim::Word{0} : ((memsim::Word{1} << width) - 1);
  const bool feedback = state & 1u;
  state >>= 1;
  if (feedback) state ^= Misr::polynomial(width);
  return (state ^ value) & mask;
}

TEST(Misr, BranchlessAbsorbMatchesTheBranchyStep) {
  std::mt19937_64 rng{0x5EED'0001u};
  for (int width = 1; width <= 64; ++width) {
    Misr misr{width, rng()};
    memsim::Word reference = misr.signature();
    for (int i = 0; i < 2000; ++i) {
      const memsim::Word v = rng();
      misr.absorb(v);
      reference = branchy_absorb(reference, v, width);
      ASSERT_EQ(misr.signature(), reference) << "width " << width;
    }
  }
}

TEST(MisrAffine, PowerEqualsRepeatedAbsorbs) {
  std::mt19937_64 rng{0x5EED'0002u};
  for (const int width : {1, 5, 8, 13, 32, 64}) {
    for (const std::size_t run : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
      std::vector<memsim::Word> values(run);
      for (auto& v : values) v = rng();
      const auto step = bist::MisrAffine::absorbing(width, values);
      for (const std::uint64_t n : {0ull, 1ull, 2ull, 7ull, 64ull, 1000ull}) {
        const memsim::Word seed = rng();
        Misr serial{width, seed};
        for (std::uint64_t i = 0; i < n; ++i)
          for (const auto v : values) serial.absorb(v);
        EXPECT_EQ(step.power(n).apply(Misr{width, seed}.signature()),
                  serial.signature())
            << "width " << width << " run " << run << " n " << n;
      }
    }
  }
}

TEST(MisrAffine, ThenComposesInOrder) {
  const memsim::Word a[] = {0x12, 0x34};
  const memsim::Word b[] = {0x56};
  const memsim::Word ab[] = {0x12, 0x34, 0x56};
  for (const int width : {3, 8, 64}) {
    const auto first = bist::MisrAffine::absorbing(width, a);
    const auto second = bist::MisrAffine::absorbing(width, b);
    const auto both = bist::MisrAffine::absorbing(width, ab);
    for (const memsim::Word s : {0x0ull, 0x5ull, 0xFFull}) {
      const memsim::Word seed = Misr{width, s}.signature();
      EXPECT_EQ(first.then(second).apply(seed), both.apply(seed)) << width;
    }
  }
}

TEST(MisrSkip, SkipEqualsZeroAbsorbs) {
  std::mt19937_64 rng{0x5EED'0003u};
  for (const int width : {1, 2, 7, 16, 32, 64}) {
    const bist::MisrSkip skip{width, 5000};
    for (const std::uint64_t zeros :
         {0ull, 1ull, 3ull, 255ull, 256ull, 257ull, 4999ull, 5000ull}) {
      Misr serial{width, rng()};
      const memsim::Word start = serial.signature();
      for (std::uint64_t i = 0; i < zeros; ++i) serial.absorb(0);
      EXPECT_EQ(skip.skip(start, zeros), serial.signature())
          << "width " << width << " zeros " << zeros;
      const memsim::Word v = rng();
      serial.absorb(v);
      EXPECT_EQ(skip.absorb(skip.skip(start, zeros), v), serial.signature());
    }
  }
}

/// The golden signature as first written: a serial MISR over every read
/// of the full reference expansion.
memsim::Word expand_walk_golden(const march::MarchAlgorithm& alg,
                                const MemoryGeometry& g, int width) {
  Misr misr{width, 0};
  for (const auto& op : march::expand(alg, g))
    if (op.kind == march::MemOp::Kind::Read) misr.absorb(op.data);
  return misr.signature();
}

TEST(Misr, ClosedFormGoldenMatchesTheExpandWalk) {
  const MemoryGeometry geometries[] = {
      {.address_bits = 4, .word_bits = 1, .num_ports = 1},
      {.address_bits = 5, .word_bits = 8, .num_ports = 1},
      {.address_bits = 3, .word_bits = 4, .num_ports = 2},
      {.address_bits = 6, .word_bits = 64, .num_ports = 1},
  };
  for (const auto& alg : march::all_algorithms())
    for (const auto& g : geometries)
      for (const int width : {1, 8, 16, 32, 64})
        EXPECT_EQ(bist::golden_signature(alg, g, width),
                  expand_walk_golden(alg, g, width))
            << alg.name() << " a" << g.address_bits << " w" << g.word_bits
            << " p" << g.num_ports << " misr " << width;
}

TEST(Misr, GoldenSignatureMatchesFaultFreeRun) {
  const MemoryGeometry g{.address_bits = 5, .word_bits = 4, .num_ports = 1};
  const auto alg = march::march_c();
  const auto golden = bist::golden_signature(alg, g, 16);

  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(alg);
  memsim::SramModel mem{g, 99};
  const auto r = bist::run_session_misr(ctrl, mem, 16, golden);
  EXPECT_TRUE(r.signature_pass());
  EXPECT_TRUE(r.session.passed());
  EXPECT_EQ(r.signature, golden);
}

TEST(Misr, VerdictAgreesWithComparatorAcrossFaultZoo) {
  const MemoryGeometry g{.address_bits = 4, .word_bits = 4, .num_ports = 1};
  const auto alg = march::march_c_plus_plus();
  const int width = 16;
  const auto golden = bist::golden_signature(alg, g, width);

  mbist_ucode::MicrocodeController ctrl{{.geometry = g}};
  ctrl.load_algorithm(alg);

  int detected = 0;
  int aliased = 0;
  for (auto cls : memsim::all_fault_classes()) {
    for (const auto& fault :
         march::make_fault_universe(cls, g, 11, 8)) {
      memsim::FaultyMemory mem{g, 5};
      mem.add_fault(fault);
      const auto r = bist::run_session_misr(ctrl, mem, width, golden);
      ASSERT_TRUE(r.session.completed());
      if (r.session.passed()) {
        // Undetected by the comparator: the signature must match too
        // (reads were all as expected).
        EXPECT_TRUE(r.signature_pass()) << memsim::describe(fault);
      } else {
        ++detected;
        if (r.signature_pass()) ++aliased;
      }
    }
  }
  EXPECT_GT(detected, 40);
  // Aliasing probability ~ 2^-16 per faulty run: expect none here.
  EXPECT_EQ(aliased, 0) << "of " << detected;
}

TEST(Misr, AreaScalesWithWidth) {
  const auto lib = netlist::TechLibrary::cmos5s();
  EXPECT_LT(Misr::area(4).total_ge(lib), Misr::area(16).total_ge(lib));
  EXPECT_GT(Misr::area(8).count(netlist::Cell::ScanDff), 0);
}

}  // namespace
