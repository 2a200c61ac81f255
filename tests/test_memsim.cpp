// Memory substrate tests: golden SRAM behaviour and the observable
// semantics of every functional fault model.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "march/coverage.h"
#include "march/library.h"
#include "memsim/faulty_memory.h"

namespace {

using namespace pmbist::memsim;

constexpr MemoryGeometry kSmall{.address_bits = 4, .word_bits = 4,
                                .num_ports = 2};

TEST(Geometry, DerivedQuantities) {
  EXPECT_EQ(kSmall.num_words(), 16u);
  EXPECT_EQ(kSmall.word_mask(), 0xFu);
  EXPECT_FALSE(kSmall.bit_oriented());
  EXPECT_TRUE(kSmall.multiport());
  const MemoryGeometry bit{.address_bits = 10};
  EXPECT_TRUE(bit.bit_oriented());
  EXPECT_FALSE(bit.multiport());
  EXPECT_EQ(bit.word_mask(), 1u);
}

TEST(SramModel, ReadBackAndMasking) {
  SramModel mem{kSmall, std::uint64_t{42}};
  mem.write(0, 3, 0xFF);  // masked to 4 bits
  EXPECT_EQ(mem.read(1, 3), 0xFu);
  mem.write(1, 3, 0x5);
  EXPECT_EQ(mem.read(0, 3), 0x5u);
}

TEST(SramModel, PowerUpIsSeedDeterministic) {
  SramModel a{kSmall, std::uint64_t{7}};
  SramModel b{kSmall, std::uint64_t{7}};
  SramModel c{kSmall, std::uint64_t{8}};
  bool any_diff = false;
  for (Address i = 0; i < kSmall.num_words(); ++i) {
    EXPECT_EQ(a.read(0, i), b.read(0, i));
    if (a.read(0, i) != c.read(0, i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultDescriptors, ClassAndDescription) {
  EXPECT_EQ(fault_class(StuckAtFault{{1, 0}, true}), FaultClass::SAF);
  EXPECT_EQ(fault_class(ReadDestructiveFault{{1, 0}, true}),
            FaultClass::DRDF);
  EXPECT_EQ(fault_class(ReadDestructiveFault{{1, 0}, false}),
            FaultClass::RDF);
  EXPECT_EQ(fault_class_name(FaultClass::CFin), "CFin");
  EXPECT_NE(describe(StuckAtFault{{3, 2}, true}).find("stuck-at-1"),
            std::string::npos);
  EXPECT_EQ(all_fault_classes().size(), 12u);
}

TEST(FaultyMemory, RejectsOutOfRangeFaults) {
  FaultyMemory mem{kSmall};
  EXPECT_THROW(mem.add_fault(StuckAtFault{{99, 0}, true}),
               std::invalid_argument);
  EXPECT_THROW(mem.add_fault(StuckAtFault{{0, 9}, true}),
               std::invalid_argument);
  EXPECT_THROW(mem.add_fault(InversionCouplingFault{{1, 1}, {1, 1}, true}),
               std::invalid_argument);
}

TEST(FaultyMemory, StuckAt) {
  FaultyMemory mem{kSmall};
  mem.add_fault(StuckAtFault{{5, 2}, true});
  mem.write(0, 5, 0x0);
  EXPECT_EQ(mem.read(0, 5) & 0x4u, 0x4u);  // bit 2 reads 1
  mem.write(0, 5, 0xF);
  EXPECT_EQ(mem.read(0, 5), 0xFu);
}

TEST(FaultyMemory, TransitionFaultBlocksOneDirection) {
  FaultyMemory mem{kSmall};
  mem.add_fault(TransitionFault{{2, 0}, /*rising=*/true});
  mem.write(0, 2, 0x0);
  mem.write(0, 2, 0x1);  // 0->1 blocked
  EXPECT_EQ(mem.read(0, 2) & 1u, 0u);
  // Falling direction still works once the cell somehow holds 1: inject
  // the complementary case on another cell.
  mem.add_fault(TransitionFault{{3, 0}, /*rising=*/false});
  mem.write(0, 3, 0x1);
  mem.write(0, 3, 0x0);  // 1->0 blocked
  EXPECT_EQ(mem.read(0, 3) & 1u, 1u);
  mem.write(0, 3, 0x1);  // writing 1 again is fine
  EXPECT_EQ(mem.read(0, 3) & 1u, 1u);
}

TEST(FaultyMemory, InversionCoupling) {
  FaultyMemory mem{kSmall};
  mem.add_fault(InversionCouplingFault{{1, 0}, {9, 0}, /*on_rising=*/true});
  mem.write(0, 9, 0x0);
  mem.write(0, 1, 0x0);
  mem.write(0, 1, 0x1);  // aggressor rises -> victim inverts
  EXPECT_EQ(mem.read(0, 9) & 1u, 1u);
  mem.write(0, 1, 0x0);  // falling does nothing
  EXPECT_EQ(mem.read(0, 9) & 1u, 1u);
  mem.write(0, 1, 0x1);  // rises again -> inverts back
  EXPECT_EQ(mem.read(0, 9) & 1u, 0u);
}

TEST(FaultyMemory, IdempotentCoupling) {
  FaultyMemory mem{kSmall};
  mem.add_fault(IdempotentCouplingFault{{1, 1}, {2, 1}, /*on_rising=*/false,
                                        /*forced_value=*/true});
  mem.write(0, 2, 0x0);
  mem.write(0, 1, 0x2);
  mem.write(0, 1, 0x0);  // aggressor falls -> victim forced to 1
  EXPECT_EQ(mem.read(0, 2) & 0x2u, 0x2u);
  mem.write(0, 2, 0x0);  // victim is writable again
  EXPECT_EQ(mem.read(0, 2) & 0x2u, 0x0u);
}

TEST(FaultyMemory, StateCouplingForcesVictimWhileAggressorHolds) {
  FaultyMemory mem{kSmall};
  mem.add_fault(StateCouplingFault{{4, 0}, {8, 0}, /*aggressor_state=*/true,
                                   /*forced_value=*/false});
  mem.write(0, 4, 0x1);  // aggressor enters state 1
  mem.write(0, 8, 0x1);  // write to victim does not stick
  EXPECT_EQ(mem.read(0, 8) & 1u, 0u);
  mem.write(0, 4, 0x0);  // aggressor leaves the forcing state
  mem.write(0, 8, 0x1);
  EXPECT_EQ(mem.read(0, 8) & 1u, 1u);
}

TEST(FaultyMemory, AddressDecoderNoCell) {
  FaultyMemory mem{kSmall};
  mem.add_fault(AddressDecoderFault{6, {}});
  mem.write(0, 6, 0xF);          // lost
  EXPECT_EQ(mem.read(0, 6), 0u);  // precharged-bus constant
}

TEST(FaultyMemory, AddressDecoderWrongCell) {
  FaultyMemory mem{kSmall};
  mem.add_fault(AddressDecoderFault{6, {7}});
  mem.write(0, 7, 0x0);
  mem.write(0, 6, 0xA);  // actually writes cell 7
  EXPECT_EQ(mem.read(0, 7), 0xAu);
  EXPECT_EQ(mem.read(0, 6), 0xAu);
  EXPECT_EQ(mem.peek(7), 0xAu);
}

TEST(FaultyMemory, AddressDecoderMultiCellWiredAnd) {
  FaultyMemory mem{kSmall};
  mem.add_fault(AddressDecoderFault{2, {2, 3}});
  mem.write(0, 3, 0x3);
  // Write through the faulty address hits both cells.
  mem.write(0, 2, 0xC);
  EXPECT_EQ(mem.peek(2), 0xCu);
  EXPECT_EQ(mem.peek(3), 0xCu);
  // Make the two cells differ via the healthy address 3, then read 2.
  mem.write(0, 3, 0x5);
  EXPECT_EQ(mem.read(0, 2), 0xC & 0x5);
}

TEST(FaultyMemory, StuckOpenReadsSenseResidue) {
  FaultyMemory mem{kSmall};
  mem.add_fault(StuckOpenFault{{5, 0}});
  mem.write(0, 4, 0x1);
  mem.write(0, 5, 0x1);       // lost
  (void)mem.read(0, 4);       // residue on column 0 becomes 1
  EXPECT_EQ(mem.read(0, 5) & 1u, 1u);
  mem.write(0, 4, 0x0);
  (void)mem.read(0, 4);       // residue becomes 0
  EXPECT_EQ(mem.read(0, 5) & 1u, 0u);
}

TEST(FaultyMemory, DataRetentionDecaysAfterHoldTime) {
  FaultyMemory mem{kSmall};
  mem.add_fault(DataRetentionFault{{9, 3}, /*leak_to=*/false,
                                   /*hold_time_ns=*/1000});
  mem.write(0, 9, 0xF);
  mem.advance_time_ns(500);
  EXPECT_EQ(mem.read(0, 9), 0xFu);  // within hold time
  mem.advance_time_ns(600);
  EXPECT_EQ(mem.read(0, 9), 0x7u);  // bit 3 leaked to 0
  mem.write(0, 9, 0xF);             // refresh restores
  EXPECT_EQ(mem.read(0, 9), 0xFu);
}

TEST(FaultyMemory, ReadDestructiveFlipsEveryRead) {
  FaultyMemory mem{kSmall};
  mem.add_fault(ReadDestructiveFault{{1, 0}, /*deceptive=*/false});
  mem.write(0, 1, 0x0);
  EXPECT_EQ(mem.read(0, 1) & 1u, 1u);  // wrong value, cell flipped
  EXPECT_EQ(mem.read(0, 1) & 1u, 0u);  // flips back
}

TEST(FaultyMemory, WeakCellMisreadsOnlyBackToBack) {
  FaultyMemory mem{kSmall};
  mem.add_fault(ReadDestructiveFault{{1, 0}, /*deceptive=*/true});
  mem.write(0, 1, 0x1);
  EXPECT_EQ(mem.read(0, 1) & 1u, 1u);  // first read correct
  EXPECT_EQ(mem.read(0, 1) & 1u, 0u);  // back-to-back read misreads
  (void)mem.read(0, 2);                // intervening op: recovery
  EXPECT_EQ(mem.read(0, 1) & 1u, 1u);
  // A pause also recovers.
  (void)mem.read(0, 1);
  mem.advance_time_ns(10);
  EXPECT_EQ(mem.read(0, 1) & 1u, 1u);
}

TEST(FaultyMemory, MultipleFaultsCoexist) {
  FaultyMemory mem{kSmall};
  mem.add_fault(StuckAtFault{{0, 0}, true});
  mem.add_fault(StuckAtFault{{15, 3}, false});
  mem.write(0, 0, 0x0);
  mem.write(0, 15, 0xF);
  EXPECT_EQ(mem.read(0, 0) & 1u, 1u);
  EXPECT_EQ(mem.read(0, 15) & 0x8u, 0u);
  EXPECT_EQ(mem.faults().size(), 2u);
}

TEST(FaultyMemory, PortReadFaultIsPortSpecific) {
  FaultyMemory mem{kSmall};
  mem.add_fault(PortReadFault{/*port=*/1, /*bit=*/2});
  mem.write(0, 6, 0x0);
  EXPECT_EQ(mem.read(0, 6), 0x0u);  // healthy port
  EXPECT_EQ(mem.read(1, 6), 0x4u);  // defective port inverts bit 2
  // The array itself is untouched: a write through the bad port is fine.
  mem.write(1, 6, 0xF);
  EXPECT_EQ(mem.read(0, 6), 0xFu);
  EXPECT_EQ(mem.read(1, 6), 0xBu);
  EXPECT_THROW(mem.add_fault(PortReadFault{5, 0}), std::invalid_argument);
}

TEST(FaultyMemory, PortReadFaultNeedsThePortLoop) {
  // The paper's Inc. Port loop repeats the whole test per port; a
  // single-port pass can never see a defect in the other port's read path.
  using namespace pmbist;
  const MemoryGeometry g{.address_bits = 4, .word_bits = 4, .num_ports = 2};
  const auto alg = march::by_name("March C");

  FaultyMemory full{g, 3};
  full.add_fault(PortReadFault{1, 0});
  EXPECT_FALSE(
      march::run_stream(march::expand(alg, g), full, 1).passed());

  FaultyMemory port0_only{g, 3};
  port0_only.add_fault(PortReadFault{1, 0});
  EXPECT_TRUE(march::run_stream(
                  march::expand_single_pass(alg, g, /*port=*/0, 0),
                  port0_only, 1)
                  .passed());
}

TEST(FaultyMemory, PortsShareTheArray) {
  FaultyMemory mem{kSmall};
  mem.write(0, 3, 0x9);
  EXPECT_EQ(mem.read(1, 3), 0x9u);
  mem.write(1, 3, 0x6);
  EXPECT_EQ(mem.read(0, 3), 0x6u);
}

// The word path against the per-bit reference.  Memory `b` carries the
// same faults as `a` plus an inert DRF (its hold time never elapses) on
// every word, at a bit with no DRF of its own; that sends every access to
// `b` down the per-bit path, while `a` serves the words no fault names on
// the word path.  Both see one seeded stream of reads, writes and pauses.
TEST(FaultyMemory, WordPathMatchesPerBitPath) {
  using pmbist::march::make_fault_universe;
  for (const int word_bits : {1, 8, 64}) {
    for (const int ports : {1, 2}) {
      const MemoryGeometry g{.address_bits = 4, .word_bits = word_bits,
                             .num_ports = ports};
      std::vector<Fault> pool;
      for (const FaultClass cls : all_fault_classes())
        for (Fault& f : make_fault_universe(cls, g, 11, 24))
          pool.push_back(std::move(f));
      ASSERT_FALSE(pool.empty());

      std::mt19937_64 rng{static_cast<std::uint64_t>(word_bits * 4 + ports)};
      // Uniform in [0, n), of n's type.
      auto below = [&](auto n) {
        return static_cast<decltype(n)>(rng() %
                                        static_cast<std::uint64_t>(n));
      };
      auto random_bit = [&] {
        return BitRef{static_cast<Address>(below(g.num_words())),
                      below(word_bits)};
      };
      for (int trial = 0; trial < 300; ++trial) {
        std::vector<Fault> faults;
        const int n_faults = 1 + below(3);
        for (int i = 0; i < n_faults; ++i) {
          switch (below(8)) {
            case 0: {  // NPSF with 1..3 neighbours
              NeighborhoodPatternFault f;
              f.base = random_bit();
              std::set<BitRef> used{f.base};
              const std::size_t want = 1 + below(std::size_t{3});
              for (int tries = 0; f.neighbors.size() < want && tries < 16;
                   ++tries) {
                const BitRef n = random_bit();
                if (used.insert(n).second) f.neighbors.push_back(n);
              }
              f.pattern = below(8u);
              f.forced_value = below(2) != 0;
              faults.emplace_back(std::move(f));
              break;
            }
            case 1:
              faults.emplace_back(
                  PortReadFault{below(ports), below(word_bits)});
              break;
            default:
              faults.push_back(pool[below(pool.size())]);
          }
        }

        const std::uint64_t powerup = rng();
        FaultyMemory a{g, powerup};
        FaultyMemory b{g, powerup};
        for (const Fault& f : faults) {
          a.add_fault(f);
          b.add_fault(f);
        }
        for (Address w = 0; w < g.num_words(); ++w) {
          std::vector<bool> has_drf(static_cast<std::size_t>(word_bits));
          for (const Fault& f : faults)
            if (const auto* d = std::get_if<DataRetentionFault>(&f);
                d && d->cell.addr == w)
              has_drf[static_cast<std::size_t>(d->cell.bit)] = true;
          for (int bit = 0; bit < word_bits; ++bit)
            if (!has_drf[static_cast<std::size_t>(bit)]) {
              b.add_fault(DataRetentionFault{{w, bit}, false, UINT64_MAX});
              break;
            }
        }

        std::ostringstream out;
        out << "word_bits " << word_bits << ", ports " << ports << ", trial "
            << trial << ", faults:";
        for (const Fault& f : faults) out << ' ' << describe(f) << ';';
        const std::string context = out.str();

        Address last = 0;
        for (int op = 0; op < 200; ++op) {
          const int port = below(ports);
          // Repeat the last address often enough to excite weak cells.
          const Address addr = below(4) == 0
                                   ? last
                                   : static_cast<Address>(below(g.num_words()));
          last = addr;
          switch (below(8)) {
            case 0: {
              const std::uint64_t pause[] = {1, 1'000'000, 60'000'000};
              const std::uint64_t ns = pause[below(3u)];
              a.advance_time_ns(ns);
              b.advance_time_ns(ns);
              break;
            }
            case 1:
            case 2:
            case 3: {
              const Word data = rng();
              a.write(port, addr, data);
              b.write(port, addr, data);
              break;
            }
            default:
              ASSERT_EQ(a.read(port, addr), b.read(port, addr))
                  << context << " op " << op;
          }
        }
        for (Address w = 0; w < g.num_words(); ++w)
          ASSERT_EQ(a.peek(w), b.peek(w)) << context << " word " << w;
      }
    }
  }
}

}  // namespace
