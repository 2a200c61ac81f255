// The memory backends (backend/): HostRamBackend as a memsim::Memory, the
// host-RAM memtest engine, and the contracts the rest of the tree relies
// on —
//
//   * HostRamBackend maps real anonymous memory but honors the simulator's
//     geometry/masking semantics, so memsim machinery (sessions, repair
//     views) runs on it unchanged, and every library algorithm (and a
//     fuzzed corpus of generated ones) produces identical memtest
//     signatures and verdicts on both backends;
//   * memtest results are pure functions of (algorithm, size, passes,
//     backgrounds) — never of --jobs — and injected mismatches are caught
//     on both backends;
//   * the direct-mapped compare-only sweep (signature from MISR
//     linearity) equals the serial-MISR per-op walk, mismatches and all;
//   * the soc scheduler and field manager run fault-free chips on either
//     backend with identical reports, and reject hostram + fault injection;
//   * the calibrated power model anchors at the reference geometry and
//     pins old-vs-new schedule feasibility.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "backend/hostram_backend.h"
#include "backend/memtest.h"
#include "backend/sweep.h"
#include "bist/misr.h"
#include "bist/session.h"
#include "field/manager.h"
#include "field/profile.h"
#include "march/expand.h"
#include "march/library.h"
#include "march/march.h"
#include "march/parser.h"
#include "mbist_hardwired/controller.h"
#include "memsim/faulty_memory.h"
#include "memsim/memory.h"
#include "netlist/tech_library.h"
#include "repair/repaired_memory.h"
#include "soc/chip.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;
using backend::BackendKind;

// --- kind parsing -----------------------------------------------------

TEST(BackendKindTest, ParseAndPrintRoundTrip) {
  EXPECT_EQ(backend::parse_backend("sim"), BackendKind::Sim);
  EXPECT_EQ(backend::parse_backend("hostram"), BackendKind::HostRam);
  EXPECT_EQ(backend::parse_backend("frobnicate"), std::nullopt);
  EXPECT_EQ(backend::parse_backend(""), std::nullopt);
  for (const auto kind : {BackendKind::Sim, BackendKind::HostRam})
    EXPECT_EQ(backend::parse_backend(backend::to_string(kind)), kind);
}

TEST(BackendKindTest, ParseSizeBytes) {
  EXPECT_EQ(backend::parse_size_bytes("4096"), 4096u);
  EXPECT_EQ(backend::parse_size_bytes("64K"), 64u << 10);
  EXPECT_EQ(backend::parse_size_bytes("256M"), 256ull << 20);
  EXPECT_EQ(backend::parse_size_bytes("1G"), 1ull << 30);
  EXPECT_EQ(backend::parse_size_bytes("1GiB"), 1ull << 30);
  EXPECT_EQ(backend::parse_size_bytes("2Mb"), 2ull << 20);
  EXPECT_EQ(backend::parse_size_bytes(""), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("M"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("12Q"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("1.5G"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("99999999999999999999"), std::nullopt);
  EXPECT_EQ(backend::parse_size_bytes("99999999999G"), std::nullopt);
}

// --- memtest geometry / sharding --------------------------------------

TEST(MemtestGeometryTest, RoundsDownToPowerOfTwoWords) {
  // 1 MiB = 2^17 64-bit words.
  const auto g = backend::memtest_geometry(1ull << 20);
  EXPECT_EQ(g.word_bits, 64);
  EXPECT_EQ(g.num_ports, 1);
  EXPECT_EQ(g.address_bits, 17);
  // Non-power-of-two sizes round down.
  EXPECT_EQ(backend::memtest_geometry((1ull << 20) + 12345).address_bits, 17);
  // The floor: even tiny requests get the minimum geometry.
  EXPECT_EQ(backend::memtest_geometry(1).address_bits, 6);
}

TEST(MemtestGeometryTest, ShardCountIsAPureFunctionOfSize) {
  // Sharding depends on the geometry only — never on --jobs — so the
  // per-shard MISR fold (and hence the signature) is jobs-invariant.
  const auto small = backend::memtest_geometry(4096);  // 512 words
  EXPECT_EQ(backend::memtest_shards(small), 1);
  const auto big = backend::memtest_geometry(256ull << 20);
  const int shards = backend::memtest_shards(big);
  EXPECT_EQ(shards, 64);  // capped
  // Every shard holds at least 4096 words.
  EXPECT_GE(big.num_words() / static_cast<std::size_t>(shards), 4096u);
  // Power-of-two shard counts divide the power-of-two word count exactly.
  EXPECT_EQ(big.num_words() % static_cast<std::size_t>(shards), 0u);
}

// --- HostRamBackend ---------------------------------------------------

TEST(HostRamBackendTest, ReadWriteRoundTripWithMasking) {
  const memsim::MemoryGeometry g{.address_bits = 10, .word_bits = 16,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g};

  ram.write(0, 5, 0xFFFF'FFFF'FFFF'FFFFull);
  EXPECT_EQ(ram.read(0, 5), 0xFFFFu);  // stored masked to word_bits
  ram.write(0, 5, 0x1234u);
  EXPECT_EQ(ram.read(0, 5), 0x1234u);

  const auto words = ram.words();
  ASSERT_EQ(words.size(), g.num_words());
  EXPECT_EQ(words[5], 0x1234u);
  words[6] = 0xBEEF;  // the mapping is the storage
  EXPECT_EQ(ram.read(0, 6), 0xBEEFu);

  ram.advance_time_ns(100);  // nothing decays
  EXPECT_EQ(ram.read(0, 5), 0x1234u);
}

TEST(HostRamBackendTest, StartsZeroFilled) {
  const memsim::MemoryGeometry g{.address_bits = 12, .word_bits = 64,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g};
  for (const auto word : ram.words()) EXPECT_EQ(word, 0u);
}

TEST(HostRamBackendTest, RejectsMultiPortGeometries) {
  const memsim::MemoryGeometry g{.address_bits = 8, .word_bits = 1,
                                 .num_ports = 2};
  EXPECT_THROW((backend::HostRamBackend{g}), backend::BackendError);
}

TEST(HostRamBackendTest, HugePageRequestDegradesGracefully) {
  // The request must succeed whether or not the host grants huge pages;
  // huge_pages() reports what actually happened, and a plain mapping
  // never claims them.
  const memsim::MemoryGeometry g{.address_bits = 16, .word_bits = 64,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g, {.request_huge_pages = true}};
  EXPECT_EQ(ram.words().size(), g.num_words());
  ram.write(0, 0, 1);
  EXPECT_EQ(ram.read(0, 0), 1u);
  EXPECT_EQ(ram.words()[0], 1u);
  EXPECT_FALSE((backend::HostRamBackend{g}).huge_pages());
}

TEST(HostRamBackendTest, RepairedMemoryRunsOverHostRam) {
  // memsim machinery written against memsim::Memory runs on host RAM with
  // no adapter: a spare-row switch-in view redirects a replaced row's
  // accesses away from the mapped storage.
  const memsim::MemoryGeometry g{.address_bits = 8, .word_bits = 1,
                                 .num_ports = 1};
  backend::HostRamBackend ram{g};
  const memsim::ArrayTopology topology{
      g.address_bits, 4, memsim::AddressScrambler::identity(g.address_bits)};
  repair::RepairSolution solution;
  solution.repairable = true;
  solution.rows_replaced = {2};
  repair::RepairedMemory view{ram, topology, solution};
  EXPECT_EQ(view.geometry(), g);

  const memsim::Address outside = topology.at({.row = 0, .col = 3});
  const memsim::Address replaced = topology.at({.row = 2, .col = 3});
  view.write(0, outside, 1);
  view.write(0, replaced, 1);
  EXPECT_EQ(view.read(0, outside), 1u);
  EXPECT_EQ(view.read(0, replaced), 1u);
  EXPECT_EQ(ram.words()[outside], 1u);
  EXPECT_EQ(ram.words()[replaced], 0u);  // served by the spare row
}

// --- session parity ---------------------------------------------------

TEST(SessionParityTest, HostRamSessionMatchesSimOnFaultFreeMemory) {
  // A full march starts by writing every cell, so the undefined power-up
  // contents never reach a comparator: hostram (zero-filled) and the
  // simulator (seeded random fill) must agree on everything.
  const memsim::MemoryGeometry g{.address_bits = 8, .word_bits = 1,
                                 .num_ports = 1};
  const auto alg = march::march_c();

  memsim::SramModel sram{g, 42};
  mbist_hardwired::HardwiredController c1{
      alg, mbist_hardwired::HardwiredConfig{.geometry = g}};
  const auto on_sim = bist::run_session(c1, sram);

  backend::HostRamBackend ram{g};
  mbist_hardwired::HardwiredController c2{
      alg, mbist_hardwired::HardwiredConfig{.geometry = g}};
  const auto on_ram = bist::run_session(c2, ram);

  EXPECT_EQ(on_sim, on_ram);
  EXPECT_TRUE(on_ram.passed());
}

// --- memtest: cross-backend equivalence -------------------------------

backend::MemtestReport run_small(const march::MarchAlgorithm& alg,
                                 BackendKind kind, int jobs = 1,
                                 bool inject = false) {
  backend::MemtestOptions opts;
  opts.size_bytes = 256u << 10;  // 32K words: fast but multi-shard
  opts.backgrounds = 2;          // zeros + one alternating pattern
  opts.jobs = jobs;
  opts.backend = kind;
  opts.inject_error = inject;
  return backend::run_memtest(alg, opts);
}

TEST(MemtestEquivalenceTest, EveryLibraryAlgorithmAgreesAcrossBackends) {
  for (const auto& alg : march::all_algorithms()) {
    SCOPED_TRACE(alg.name());
    const auto sim = run_small(alg, BackendKind::Sim);
    const auto ram = run_small(alg, BackendKind::HostRam);
    EXPECT_EQ(sim.signature, ram.signature);
    EXPECT_EQ(sim.reads, ram.reads);
    EXPECT_EQ(sim.writes, ram.writes);
    EXPECT_EQ(sim.pauses, ram.pauses);
    EXPECT_EQ(sim.mismatches, 0u);
    EXPECT_EQ(ram.mismatches, 0u);
    EXPECT_TRUE(sim.passed());
    EXPECT_TRUE(ram.passed());
    // The deterministic reports differ only in the backend name line.
    EXPECT_EQ(sim.backend_name, "sim");
    EXPECT_EQ(ram.backend_name, "hostram");
  }
}

TEST(MemtestEquivalenceTest, FuzzedAlgorithmsAgreeAcrossBackends) {
  // A seeded corpus of generated algorithms: random element counts, op
  // sequences, and address orders, constrained only by the structural rule
  // (the first op of the first element is a write).
  std::mt19937_64 rng{0xB157'CAFEu};
  auto coin = [&](int denom) { return static_cast<int>(rng() % denom); };
  for (int iteration = 0; iteration < 24; ++iteration) {
    std::vector<march::MarchElement> elements;
    const int num_elements = 1 + coin(5);
    for (int e = 0; e < num_elements; ++e) {
      march::MarchElement element;
      element.order = static_cast<march::AddressOrder>(coin(3));
      const int num_ops = 1 + coin(4);
      for (int o = 0; o < num_ops; ++o) {
        march::MarchOp op;
        const bool must_write = e == 0 && o == 0;
        op.kind = must_write || coin(2) == 0 ? march::MarchOp::Kind::Write
                                             : march::MarchOp::Kind::Read;
        op.data = coin(2) == 1;
        element.ops.push_back(op);
      }
      elements.push_back(std::move(element));
    }
    march::MarchAlgorithm alg{"fuzz" + std::to_string(iteration),
                              std::move(elements)};
    ASSERT_TRUE(alg.validate().empty()) << alg.to_string();
    SCOPED_TRACE(alg.to_string());

    const auto sim = run_small(alg, BackendKind::Sim);
    auto ram = run_small(alg, BackendKind::HostRam);
    EXPECT_EQ(sim.signature, ram.signature);
    EXPECT_EQ(sim.reads, ram.reads);
    EXPECT_EQ(sim.writes, ram.writes);
    // A generated algorithm may read a value its own elements never wrote
    // at that point (e.g. r1 right after w0) — that is a legitimate FAIL,
    // but it must be the SAME fail on both backends: the sim leg clocks a
    // serial MISR per read, the hostram leg derives the signature from
    // its mismatches, and the whole report must agree.
    EXPECT_EQ(sim.mismatches, ram.mismatches);
    EXPECT_EQ(sim.passed(), ram.passed());
    EXPECT_EQ(sim.failures, ram.failures);
    ram.backend_name = sim.backend_name;
    EXPECT_EQ(backend::format_memtest_report(sim),
              backend::format_memtest_report(ram));
  }
}

// --- memtest: the direct-mapped sweep against the serial-MISR walk ----

/// The per-op reference walk of one element over one shard: every read
/// clocks a serial bist::Misr (the virtual-interface loop of run_memtest
/// over a plain word vector).
void reference_element(std::vector<backend::Word>& shard, backend::Address base,
                       const march::MarchElement& el, backend::Word bg,
                       int misr_width, std::size_t max_failures,
                       backend::detail::ShardState& st) {
  const backend::Word mask = ~backend::Word{0};
  bist::Misr misr{misr_width, st.signature};
  const std::size_t n = shard.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t offset =
        el.order == march::AddressOrder::Down ? n - 1 - i : i;
    for (const march::MarchOp& op : el.ops) {
      const backend::Word value = march::apply_background(op.data, bg, mask);
      if (!op.is_read()) {
        shard[offset] = value;
        ++st.writes;
      } else {
        const backend::Word actual = shard[offset];
        misr.absorb(actual);
        ++st.reads;
        if (actual != value) {
          ++st.mismatches;
          if (st.failures.size() < max_failures) {
            st.failures.push_back(march::Failure{
                st.op_index,
                march::MemOp::read(
                    0, static_cast<backend::Address>(base + offset), value),
                actual});
          }
        }
      }
      ++st.op_index;
    }
  }
  st.signature = misr.signature();
}

enum class Corruption { OneWord, Sparse, EveryWord };

/// Runs `alg` for 2 passes x 3 backgrounds over one shard of `words`
/// words through both the sweep and the reference walk, planting the same
/// corrupt words in both before elements, and requires identical state.
void expect_sweep_matches_reference(const march::MarchAlgorithm& alg,
                                    std::size_t words, int misr_width,
                                    Corruption corruption,
                                    std::size_t max_failures) {
  SCOPED_TRACE(alg.to_string() + " words=" + std::to_string(words) +
               " misr=" + std::to_string(misr_width) +
               " corruption=" + std::to_string(static_cast<int>(corruption)) +
               " cap=" + std::to_string(max_failures));
  const backend::Address base = 3 * static_cast<backend::Address>(words);
  std::vector<backend::Word> fast(words, 0);
  std::vector<backend::Word> slow(words, 0);
  backend::detail::ShardState fs;
  backend::detail::ShardState ss;
  std::vector<backend::Word> backgrounds = march::standard_backgrounds(64);
  backgrounds.resize(3);
  const bist::MisrSkip skip{
      misr_width, words * static_cast<std::size_t>(alg.reads_per_cell())};
  std::mt19937_64 rng{0xC0DE'0000u + words + misr_width};
  bool planted = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (const backend::Word bg : backgrounds) {
      for (std::size_t e = 0; e < alg.elements().size(); ++e) {
        const march::MarchElement& el = alg.elements()[e];
        if (el.is_pause) continue;
        const auto corrupt = [&](std::size_t i) {
          const backend::Word flip = rng() | 1;
          fast[i] ^= flip;
          slow[i] ^= flip;
        };
        if (e > 0) {
          switch (corruption) {
            case Corruption::OneWord:
              if (!planted) corrupt(words / 3);
              planted = true;
              break;
            case Corruption::Sparse:
              for (std::size_t k = 0; k < 1 + words / 200; ++k)
                corrupt(rng() % words);
              break;
            case Corruption::EveryWord:
              for (std::size_t i = 0; i < words; ++i) corrupt(i);
              break;
          }
        }
        const backend::detail::ElementSweep sweep{el, bg, ~backend::Word{0},
                                                  words, misr_width};
        sweep.run(fast, base, skip, max_failures, fs);
        reference_element(slow, base, el, bg, misr_width, max_failures, ss);
        ASSERT_EQ(fast, slow) << "memory differs after element " << e;
      }
    }
  }
  EXPECT_EQ(fs.signature, ss.signature);
  EXPECT_EQ(fs.reads, ss.reads);
  EXPECT_EQ(fs.writes, ss.writes);
  EXPECT_EQ(fs.mismatches, ss.mismatches);
  EXPECT_EQ(fs.op_index, ss.op_index);
  EXPECT_EQ(fs.failures, ss.failures);
  EXPECT_GT(fs.mismatches, 0u);
  EXPECT_EQ(fs.failures.size(),
            std::min<std::uint64_t>(fs.mismatches, max_failures));
  // The small cap truncates the log wherever more than one word is hit.
  if (corruption != Corruption::OneWord) {
    EXPECT_GT(fs.mismatches, 3u);
  }
}

TEST(MemtestSweepTest, MatchesTheSerialMisrWalkUnderCorruption) {
  const march::MarchAlgorithm algorithms[] = {
      // One read per address, Up and Down, fill/read-write/verify shapes.
      march::march_c(),
      // Two reads per address: compared-first (r,r,w), read after write
      // (r,w,r), repeated writes (r,w,w) and a two-read verify.
      march::parse("any(w1); down(r1,r1,w0); up(r0,w1,r1); down(r1,w0,w0); "
                   "up(r0,r0); down(r0,w1)",
                   "two-reads"),
  };
  for (const auto& alg : algorithms)
    for (const std::size_t words : {std::size_t{64}, std::size_t{1500}})
      for (const int width : {1, 7, 16, 32, 64})
        for (const auto corruption :
             {Corruption::OneWord, Corruption::Sparse, Corruption::EveryWord})
          for (const std::size_t cap : {std::size_t{3}, std::size_t{64}})
            expect_sweep_matches_reference(alg, words, width, corruption, cap);
}

TEST(MemtestSweepTest, ReadsThatCannotMatchAreAllLogged) {
  // r0 then r1 of the same word, or a read after a write that expects the
  // word from before it: one read always mismatches, so the sweep must
  // never take its compare-and-fill shortcut.
  const auto alg = march::parse(
      "any(w0); up(r0,r1); down(w1,r1,r0); down(r1,w0,r1)", "odd");
  for (const int width : {1, 32, 64})
    expect_sweep_matches_reference(alg, 1500, width, Corruption::OneWord, 64);
}

// --- memtest: determinism, reporting, injection -----------------------

TEST(MemtestTest, ReportIsByteIdenticalAcrossJobs) {
  const auto alg = march::march_c();
  for (const auto kind : {BackendKind::HostRam, BackendKind::Sim}) {
    SCOPED_TRACE(backend::to_string(kind));
    const auto reference = run_small(alg, kind, 1);
    for (const int jobs : {2, 4, 8}) {
      const auto report = run_small(alg, kind, jobs);
      EXPECT_EQ(backend::format_memtest_report(report),
                backend::format_memtest_report(reference))
          << "jobs=" << jobs;
    }
  }
}

TEST(MemtestTest, ReportCarriesTheContractLines) {
  const auto report = run_small(march::by_name("MATS+"), BackendKind::Sim);
  const auto text = backend::format_memtest_report(report);
  EXPECT_NE(text.find("memtest \"MATS+\" on sim"), std::string::npos);
  EXPECT_NE(text.find("signature: 0x"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
  // Throughput (timing, host noise) stays out of the deterministic report.
  EXPECT_EQ(text.find("GB/s"), std::string::npos);
  const auto timing = backend::format_memtest_throughput(report);
  EXPECT_NE(timing.find("sustained: read "), std::string::npos);
  EXPECT_NE(timing.find("wall "), std::string::npos);
}

TEST(MemtestTest, PhasesCoverEveryMarchElement) {
  const auto alg = march::march_c();
  const auto report = run_small(alg, BackendKind::HostRam);
  ASSERT_EQ(report.phases.size(), alg.elements().size());
  std::uint64_t reads = 0, writes = 0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(report.phases[i].element, alg.elements()[i].to_string());
    reads += report.phases[i].reads;
    writes += report.phases[i].writes;
  }
  EXPECT_EQ(reads, report.reads);
  EXPECT_EQ(writes, report.writes);
}

TEST(MemtestTest, InjectedErrorFailsOnBothBackends) {
  const auto alg = march::march_c();
  for (const auto kind : {BackendKind::Sim, BackendKind::HostRam}) {
    SCOPED_TRACE(backend::to_string(kind));
    const auto clean = run_small(alg, kind);
    const auto injected = run_small(alg, kind, 1, true);
    EXPECT_TRUE(clean.passed());
    EXPECT_FALSE(injected.passed());
    EXPECT_EQ(injected.mismatches, 1u);
    ASSERT_EQ(injected.failures.size(), 1u);
    EXPECT_NE(injected.signature, clean.signature);
  }
}

TEST(MemtestTest, InjectionNeedsAReadLedElement) {
  // An algorithm that never leads an element with a read has no point at
  // which a flipped bit is guaranteed to be observed.
  const auto alg = march::parse("up(w0); up(w1)", "writes-only");
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.backgrounds = 1;
  opts.inject_error = true;
  EXPECT_THROW((void)backend::run_memtest(alg, opts), backend::BackendError);
}

TEST(MemtestTest, RejectsInvalidRequests) {
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.passes = 0;
  EXPECT_THROW((void)backend::run_memtest(march::march_c(), opts),
               backend::BackendError);
  opts.passes = 1;
  opts.misr_width = 0;
  EXPECT_THROW((void)backend::run_memtest(march::march_c(), opts),
               backend::BackendError);
  // Structurally invalid algorithm (first op reads undefined power-up).
  opts.misr_width = 32;
  EXPECT_THROW(
      (void)backend::run_memtest(march::parse("up(r0,w0)", "bad"), opts),
      backend::BackendError);
}

TEST(MemtestTest, PauseElementsAccountTimeNotOps) {
  const auto alg = march::parse("any(w0); pause(500ns); any(r0)", "retention");
  backend::MemtestOptions opts;
  opts.size_bytes = 64u << 10;
  opts.backgrounds = 1;
  const auto report = backend::run_memtest(alg, opts);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.pauses, 1u);
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_TRUE(report.phases[1].is_pause);
  EXPECT_EQ(report.phases[1].reads + report.phases[1].writes, 0u);
}

// --- soc / field on either backend ------------------------------------

/// A small fault-free chip both backends must agree on.
soc::SocDescription clean_chip() {
  soc::SocDescription chip{"clean"};
  soc::MemoryInstance a;
  a.name = "sram0";
  a.geometry = {.address_bits = 6, .word_bits = 8, .num_ports = 1};
  chip.add(a);
  soc::MemoryInstance b;
  b.name = "sram1";
  b.geometry = {.address_bits = 7, .word_bits = 4, .num_ports = 1};
  chip.add(b);
  return chip;
}

soc::TestPlan clean_plan() {
  soc::TestPlan plan;
  soc::TestAssignment a;
  a.memory = "sram0";
  a.algorithm = "March C";
  a.controller = soc::ControllerKind::Ucode;
  plan.assign(a);
  soc::TestAssignment b;
  b.memory = "sram1";
  b.algorithm = "MATS+";
  b.controller = soc::ControllerKind::Hardwired;
  plan.assign(b);
  return plan;
}

TEST(SocBackendTest, FaultFreeChipAgreesAcrossBackends) {
  const auto chip = clean_chip();
  const auto plan = clean_plan();
  const auto sim = soc::run_soc(chip, plan, {.jobs = 1});
  const auto ram = soc::run_soc(chip, plan,
                                {.jobs = 1, .backend = BackendKind::HostRam});
  EXPECT_EQ(sim, ram);
  EXPECT_TRUE(ram.all_healthy());
  EXPECT_EQ(soc::format_soc_report(chip, plan, sim),
            soc::format_soc_report(chip, plan, ram));
}

TEST(SocBackendTest, HostRamRejectsFaultInjection) {
  // The demo chip injects manufacturing defects; real host memory cannot.
  EXPECT_THROW((void)soc::run_soc(soc::demo_soc(), soc::demo_plan(),
                                  {.jobs = 1,
                                   .backend = BackendKind::HostRam}),
               soc::SocError);
}

TEST(FieldBackendTest, FaultFreeChipAgreesAcrossBackends) {
  const auto chip = clean_chip();
  const auto plan = clean_plan();
  const auto profile = field::parse_profile_text(
      "profile clean\n"
      "horizon 40000\n"
      "bus_budget 2\n"
      "window sram0 start=0 end=9000\n"
      "window sram0 start=10000 end=19000\n"
      "window sram1 start=0 end=16000\n");
  const auto sim = field::run_field(chip, plan, profile, {.jobs = 1});
  const auto ram = field::run_field(
      chip, plan, profile, {.jobs = 1, .backend = BackendKind::HostRam});
  EXPECT_EQ(sim, ram);
  EXPECT_EQ(field::format_field_report(sim), field::format_field_report(ram));
}

TEST(FieldBackendTest, HostRamRejectsFaultInjection) {
  EXPECT_THROW((void)field::run_field(soc::demo_soc(), soc::demo_plan(),
                                      field::demo_profile(),
                                      {.jobs = 1,
                                       .backend = BackendKind::HostRam}),
               soc::SocError);
}

// --- calibrated power model -------------------------------------------

TEST(PowerCalibrationTest, AnchorsAtTheReferenceGeometry) {
  // The calibration is normalized so the reference bit-oriented 1K
  // geometry keeps its heuristic weight — heuristic and calibrated models
  // agree exactly there, and diverge smoothly elsewhere.
  const memsim::MemoryGeometry reference{};
  EXPECT_DOUBLE_EQ(soc::PowerModel::calibrated_weight(reference),
                   soc::PowerModel::default_weight(reference));
  EXPECT_DOUBLE_EQ(soc::PowerModel::default_weight(reference), 11.0);
}

TEST(PowerCalibrationTest, WeightGrowsWithTheDatapath) {
  const memsim::MemoryGeometry small{.address_bits = 8, .word_bits = 1,
                                     .num_ports = 1};
  const memsim::MemoryGeometry wide{.address_bits = 8, .word_bits = 64,
                                    .num_ports = 1};
  const memsim::MemoryGeometry deep{.address_bits = 16, .word_bits = 1,
                                    .num_ports = 1};
  EXPECT_GT(soc::PowerModel::calibrated_weight(wide),
            soc::PowerModel::calibrated_weight(small));
  EXPECT_GT(soc::PowerModel::calibrated_weight(deep),
            soc::PowerModel::calibrated_weight(small));
}

TEST(PowerCalibrationTest, ModelSelectsTheWeightFunction) {
  soc::PowerModel model;
  const memsim::MemoryGeometry g{.address_bits = 12, .word_bits = 32,
                                 .num_ports = 1};
  EXPECT_DOUBLE_EQ(model.weight(g), soc::PowerModel::default_weight(g));
  model.calibrated = true;
  EXPECT_DOUBLE_EQ(model.weight(g), soc::PowerModel::calibrated_weight(g));
  // An explicit per-assignment override still wins over either model.
  soc::TestPlan plan;
  soc::TestAssignment a;
  a.memory = "m";
  a.algorithm = "March C";
  a.power_weight = 3.5;
  plan.assign(a);
  plan.set_power_calibrated(true);
  soc::MemoryInstance m;
  m.name = "m";
  m.geometry = g;
  EXPECT_DOUBLE_EQ(plan.effective_weight(plan.assignments()[0], m), 3.5);
}

TEST(PowerCalibrationTest, OldVsNewScheduleFeasibilityIsPinned) {
  // The carried-over ROADMAP item: switching the demo plan from the
  // heuristic to the calibrated model must (a) keep the chip testable once
  // the budget accommodates the recalibrated weights and (b) never change
  // any verdict — power shapes the schedule, not the results.
  const auto chip = soc::demo_soc();
  auto heuristic = soc::demo_plan();
  const auto before = soc::run_soc(chip, heuristic, {.jobs = 1});
  EXPECT_TRUE(before.all_healthy());

  auto calibrated = soc::demo_plan();
  calibrated.set_power_calibrated(true);
  // Scale the budget by the worst per-instance weight ratio so every
  // single session still fits (validate() would reject an impossible one).
  double ratio = 1.0;
  for (const auto& m : chip.memories()) {
    const double h = soc::PowerModel::default_weight(m.geometry);
    const double c = soc::PowerModel::calibrated_weight(m.geometry);
    ratio = std::max(ratio, c / h);
  }
  calibrated.set_power_budget(heuristic.power().budget * ratio);
  EXPECT_NO_THROW(calibrated.validate(chip));
  const auto after = soc::run_soc(chip, calibrated, {.jobs = 1});
  EXPECT_TRUE(after.all_healthy());

  // Same verdicts and repairs, instance by instance — only the schedule's
  // start cycles may move.
  ASSERT_EQ(before.instances.size(), after.instances.size());
  for (std::size_t i = 0; i < before.instances.size(); ++i) {
    EXPECT_EQ(before.instances[i].session, after.instances[i].session);
    EXPECT_EQ(before.instances[i].repair, after.instances[i].repair);
    EXPECT_EQ(before.instances[i].healthy(), after.instances[i].healthy());
  }
}

TEST(PowerCalibrationTest, ChipFileRoundTripsThePowerModelDirective) {
  auto chip = soc::parse_chip_text(
      "soc t\n"
      "power_budget 64\n"
      "power_model calibrated\n"
      "mem a addr_bits=6 word_bits=8\n"
      "assign a \"March C\" ucode\n");
  EXPECT_TRUE(chip.plan.power().calibrated);
  const auto printed = soc::to_chip_text(chip.description, chip.plan);
  EXPECT_NE(printed.find("power_model calibrated"), std::string::npos);
  const auto again = soc::parse_chip_text(printed);
  EXPECT_EQ(again.plan, chip.plan);
  // heuristic (the default) serializes to no directive at all.
  chip.plan.set_power_calibrated(false);
  EXPECT_EQ(soc::to_chip_text(chip.description, chip.plan)
                .find("power_model"),
            std::string::npos);
  EXPECT_THROW(
      (void)soc::parse_chip_text("soc t\npower_model frobnicate\n"
                                 "mem a addr_bits=6\nassign a \"MATS\" ucode\n"),
      soc::SocError);
}

}  // namespace
