// Campaign engine: serial-vs-parallel equivalence, edge cases, the
// expanded-stream cache, the thread pool underneath, and the cheap
// FaultyMemory reset the workers rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "march/campaign.h"
#include "march/coverage.h"
#include "march/library.h"

namespace {

using namespace pmbist;
using march::CampaignConfig;
using march::CampaignRunner;
using memsim::FaultClass;

constexpr memsim::MemoryGeometry kGeom{.address_bits = 5, .word_bits = 1,
                                       .num_ports = 1};

// --- serial vs parallel equivalence -----------------------------------

// The algorithm is a std::string, not a const char*: gtest prints a char
// pointer's address into the listed test name, so the name would change
// from build to build.
class CampaignEquivalence
    : public testing::TestWithParam<std::tuple<std::string, FaultClass>> {};

TEST_P(CampaignEquivalence, JobsDoNotChangeDetections) {
  const auto [name, cls] = GetParam();
  const auto alg = march::by_name(name);
  const auto universe = march::make_fault_universe(cls, kGeom, 99, 48);
  ASSERT_FALSE(universe.empty());

  const auto serial = march::run_campaign(alg, kGeom, universe, {.jobs = 1});
  EXPECT_EQ(serial.total(), static_cast<int>(universe.size()));
  for (const int jobs : {2, 8}) {
    const auto parallel =
        march::run_campaign(alg, kGeom, universe, {.jobs = jobs});
    EXPECT_EQ(serial.records, parallel.records)
        << name << " x " << memsim::fault_class_name(cls) << " jobs="
        << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndClasses, CampaignEquivalence,
    testing::Combine(testing::Values("MATS+", "March C", "March C++",
                                     "March SS"),
                     testing::Values(FaultClass::SAF, FaultClass::TF,
                                     FaultClass::CFid, FaultClass::AF,
                                     FaultClass::DRDF)));

TEST(Campaign, GroupUniverseEquivalence) {
  const auto alg = march::march_lr();
  const auto pairs = march::make_linked_cfid_universe(kGeom, 7, 32);
  std::vector<march::FaultGroup> groups;
  for (const auto& [a, b] : pairs)
    groups.push_back(march::FaultGroup{a, b});

  const auto stream = march::expand(alg, kGeom);
  const auto serial =
      CampaignRunner{{.jobs = 1}}.run_groups(stream, kGeom, groups);
  for (const int jobs : {2, 8}) {
    const auto parallel =
        CampaignRunner{CampaignConfig{.jobs = jobs}}.run_groups(stream, kGeom,
                                                                groups);
    EXPECT_EQ(serial.records, parallel.records) << "jobs=" << jobs;
  }
  // March LR owns linked CFid pairs.
  EXPECT_EQ(serial.detected(), serial.total());
}

TEST(Campaign, RecordsAreOrderedByFaultIndex) {
  const auto universe =
      march::make_fault_universe(FaultClass::SAF, kGeom, 3, 48);
  const auto result =
      march::run_campaign(march::march_c(), kGeom, universe, {.jobs = 8});
  ASSERT_EQ(result.total(), static_cast<int>(universe.size()));
  for (std::size_t i = 0; i < result.records.size(); ++i)
    EXPECT_EQ(result.records[i].fault_index, i);
}

// --- edge cases -------------------------------------------------------

TEST(Campaign, EmptyUniverse) {
  const std::vector<memsim::Fault> none;
  for (const int jobs : {0, 1, 8}) {
    const auto result =
        march::run_campaign(march::march_c(), kGeom, none, {.jobs = jobs});
    EXPECT_EQ(result.total(), 0);
    EXPECT_EQ(result.detected(), 0);
    EXPECT_TRUE(result.records.empty());
  }
}

TEST(Campaign, SingleFault) {
  const std::vector<memsim::Fault> one{
      memsim::StuckAtFault{{5, 0}, true}};
  for (const int jobs : {1, 8}) {
    const auto result =
        march::run_campaign(march::march_c(), kGeom, one, {.jobs = jobs});
    ASSERT_EQ(result.total(), 1);
    EXPECT_TRUE(result.records[0].detected);
    EXPECT_NE(result.records[0].first_failure_op,
              march::DetectionRecord::kNoFailure);
  }
}

TEST(Campaign, UndetectedFaultHasNoFailureOp) {
  // March C has no pause, so a DRF can never decay within the run.
  const std::vector<memsim::Fault> drf{
      memsim::DataRetentionFault{{3, 0}, true, 1}};
  const auto result = march::run_campaign(march::march_c(), kGeom, drf, {});
  ASSERT_EQ(result.total(), 1);
  EXPECT_FALSE(result.records[0].detected);
  EXPECT_EQ(result.records[0].first_failure_op,
            march::DetectionRecord::kNoFailure);
}

TEST(Campaign, MatchesLegacySerialEvaluation) {
  // The campaign-backed evaluate_coverage must agree with a hand-rolled
  // serial loop over run_stream (the pre-engine reference semantics).
  const march::CoverageOptions opts{.seed = 11,
                                    .max_instances_per_class = 32};
  for (const FaultClass cls : {FaultClass::SAF, FaultClass::SOF,
                               FaultClass::CFin}) {
    const auto universe = march::make_fault_universe(
        cls, kGeom, opts.seed, opts.max_instances_per_class);
    const auto stream = march::expand(march::march_y(), kGeom);
    int detected = 0;
    for (const auto& fault : universe) {
      memsim::FaultyMemory mem{kGeom, opts.seed};
      mem.add_fault(fault);
      if (!march::run_stream(stream, mem, 1).passed()) ++detected;
    }
    const auto cell =
        march::evaluate_coverage(march::march_y(), cls, kGeom, opts);
    EXPECT_EQ(cell.detected, detected)
        << memsim::fault_class_name(cls);
    EXPECT_EQ(cell.total, static_cast<int>(universe.size()));
  }
}

// --- stream cache -----------------------------------------------------

TEST(StreamCache, HitsAfterFirstExpansion) {
  march::StreamCache cache;

  const auto alg = march::march_u();
  const auto s1 = cache.get(alg, kGeom);
  const auto mid = cache.stats();
  EXPECT_EQ(mid.misses, 1u);
  EXPECT_EQ(mid.hits, 0u);

  const auto s2 = cache.get(alg, kGeom);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.hits, 1u);
  EXPECT_EQ(s1.get(), s2.get());  // the same shared immutable stream
  EXPECT_EQ(*s1, march::expand(alg, kGeom));
}

TEST(StreamCache, GeometryIsPartOfTheKey) {
  march::StreamCache cache;
  const auto alg = march::march_x();
  (void)cache.get(alg, kGeom);
  constexpr memsim::MemoryGeometry other{.address_bits = 4, .word_bits = 8,
                                         .num_ports = 1};
  (void)cache.get(alg, other);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(StreamCache, NameIsNotPartOfTheKey) {
  march::StreamCache cache;
  (void)cache.get(march::march_c(), kGeom);
  // Same canonical text under a different name re-uses the entry.
  march::MarchAlgorithm renamed{"renamed", march::march_c().elements()};
  (void)cache.get(renamed, kGeom);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.hits, 1u);
}

TEST(StreamCache, TwoInstancesShareNothing) {
  // The reentrancy contract: caches are per-owner, so a second cache
  // re-expands and neither sees the other's counters.
  march::StreamCache a;
  march::StreamCache b;
  const auto sa = a.get(march::march_c(), kGeom);
  const auto sb = b.get(march::march_c(), kGeom);
  EXPECT_NE(sa.get(), sb.get());
  EXPECT_EQ(*sa, *sb);
  EXPECT_EQ(a.stats().misses, 1u);
  EXPECT_EQ(b.stats().misses, 1u);
  EXPECT_EQ(a.stats().hits, 0u);
}

TEST(StreamCache, LruEvictionUnderByteBudget) {
  // Budget for barely more than one March C expansion: inserting a second
  // algorithm must evict the least-recently-used entry, deterministically.
  const auto stream_bytes = [&](const march::MarchAlgorithm& alg) {
    return march::expand(alg, kGeom).size() * sizeof(march::MemOp);
  };
  const auto budget = stream_bytes(march::march_c()) +
                      stream_bytes(march::march_x()) / 2;
  march::StreamCache cache{budget};

  (void)cache.get(march::march_c(), kGeom);
  EXPECT_EQ(cache.stats().evictions, 0u);
  (void)cache.get(march::march_x(), kGeom);  // busts the budget
  const auto after = cache.stats();
  EXPECT_EQ(after.evictions, 1u);
  EXPECT_LE(after.bytes, budget);

  // March C was evicted (LRU), so asking again is a miss, not a hit.
  (void)cache.get(march::march_c(), kGeom);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(StreamCache, SoleEntryLargerThanBudgetIsKept) {
  // A stream bigger than the whole budget must still be served and must
  // not be evicted while it is the only entry (eviction keeps >= 1).
  march::StreamCache cache{1};
  const auto s = cache.get(march::march_c(), kGeom);
  ASSERT_NE(s, nullptr);
  const auto again = cache.get(march::march_c(), kGeom);
  EXPECT_EQ(s.get(), again.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(StreamCache, EvictedStreamStaysValidForHolders) {
  march::StreamCache cache{1};  // evicts on every second insert
  const auto held = cache.get(march::march_c(), kGeom);
  (void)cache.get(march::march_x(), kGeom);  // evicts March C
  // The shared_ptr we hold is unaffected by the eviction.
  EXPECT_EQ(*held, march::expand(march::march_c(), kGeom));
}

// --- FaultyMemory::reset ---------------------------------------------

TEST(FaultyMemoryReset, EquivalentToFreshConstruction) {
  constexpr memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 8,
                                     .num_ports = 1};
  memsim::FaultyMemory reused{g, 123};
  // Dirty it thoroughly: fault, writes, time, reads.
  reused.add_fault(memsim::StuckAtFault{{2, 1}, true});
  reused.write(0, 2, 0xFF);
  reused.advance_time_ns(1'000'000);
  (void)reused.read(0, 2);

  reused.reset(456);
  memsim::FaultyMemory fresh{g, 456};
  EXPECT_TRUE(reused.faults().empty());
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    EXPECT_EQ(reused.peek(a), fresh.peek(a)) << "addr " << a;
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    EXPECT_EQ(reused.read(0, a), fresh.read(0, a)) << "addr " << a;
}

TEST(FaultyMemoryReset, ClearsEveryFaultKind) {
  constexpr memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 2,
                                     .num_ports = 2};
  memsim::FaultyMemory mem{g, 9};
  mem.add_fault(memsim::StuckAtFault{{1, 0}, false});
  mem.add_fault(memsim::TransitionFault{{2, 0}, true});
  mem.add_fault(memsim::InversionCouplingFault{{3, 0}, {4, 0}, true});
  mem.add_fault(memsim::AddressDecoderFault{5, {}});
  mem.add_fault(memsim::PortReadFault{1, 0});
  mem.reset(9);
  // A reset memory behaves fault-free: write/read-back everywhere on
  // every port.
  for (memsim::Address a = 0; a < g.num_words(); ++a) {
    for (int port = 0; port < g.num_ports; ++port) {
      mem.write(port, a, a & 3u);
      EXPECT_EQ(mem.read(port, a), (a & 3u)) << "addr " << a;
    }
  }
}

// --- thread pool ------------------------------------------------------

TEST(ThreadPool, ResolveJobs) {
  EXPECT_GE(common::resolve_jobs(0), 1);
  EXPECT_EQ(common::resolve_jobs(3), 3);
  EXPECT_GE(common::resolve_jobs(-5), 1);
}

TEST(ThreadPool, ParallelShardsCoversEveryShardOnce) {
  for (const int jobs : {1, 2, 8}) {
    constexpr int kShards = 100;
    std::vector<std::atomic<int>> touched(kShards);
    common::parallel_shards(jobs, kShards,
                            [&](int s) { touched[s].fetch_add(1); });
    for (int s = 0; s < kShards; ++s)
      EXPECT_EQ(touched[s].load(), 1) << "shard " << s << " jobs " << jobs;
  }
}

TEST(ThreadPool, ParallelShardsPropagatesExceptions) {
  EXPECT_THROW(
      common::parallel_shards(4, 16,
                              [](int s) {
                                if (s == 7) throw std::runtime_error{"boom"};
                              }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitRunsTasks) {
  common::ThreadPool pool{2};
  EXPECT_EQ(pool.size(), 2);
  std::atomic<int> sum{0};
  std::atomic<int> remaining{32};
  for (int i = 0; i < 32; ++i)
    pool.submit([&, i] {
      sum.fetch_add(i);
      remaining.fetch_sub(1);
    });
  while (remaining.load() != 0) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 32 * 31 / 2);
}

TEST(Campaign, JobsZeroMeansHardwareAndStaysIdentical) {
  // jobs=0 resolves to hardware concurrency inside the engine (there is
  // no process-wide default any more); results stay identical to serial.
  const auto universe =
      march::make_fault_universe(FaultClass::TF, kGeom, 5, 24);
  const auto via_hardware =
      march::run_campaign(march::march_x(), kGeom, universe, {.jobs = 0});
  const auto explicit_serial =
      march::run_campaign(march::march_x(), kGeom, universe, {.jobs = 1});
  EXPECT_EQ(via_hardware.records, explicit_serial.records);
}

TEST(Campaign, CancellationThrowsAndLeavesEngineReusable) {
  const auto universe =
      march::make_fault_universe(FaultClass::SAF, kGeom, 5, 64);
  std::atomic<bool> cancel{true};  // pre-set: first shard poll throws
  EXPECT_THROW(march::run_campaign(march::march_c(), kGeom, universe,
                                   {.jobs = 2, .cancel = &cancel}),
               common::Cancelled);
  // A cancelled campaign must not poison the next one.
  cancel.store(false);
  const auto rerun = march::run_campaign(march::march_c(), kGeom, universe,
                                         {.jobs = 2, .cancel = &cancel});
  const auto reference =
      march::run_campaign(march::march_c(), kGeom, universe, {.jobs = 1});
  EXPECT_EQ(rerun.records, reference.records);
}

// --- scalar vs packed kernel equivalence ------------------------------
//
// The packed PPSFP kernel must be bit-identical to the scalar reference:
// same verdicts AND same detecting-op positions, for every fault class,
// every library algorithm, any jobs value, and ragged final lane-packs.

using march::CampaignKernel;

march::CampaignResult run_with(const march::MarchAlgorithm& alg,
                               const memsim::MemoryGeometry& geom,
                               std::span<const memsim::Fault> universe,
                               CampaignKernel kernel, int jobs = 1) {
  return march::run_campaign(alg, geom, universe,
                             {.jobs = jobs, .kernel = kernel});
}

TEST(Kernel, NameParseRoundTrip) {
  for (const auto k : {CampaignKernel::Auto, CampaignKernel::Scalar,
                       CampaignKernel::Packed})
    EXPECT_EQ(march::parse_kernel(march::kernel_name(k)), k);
  EXPECT_EQ(march::parse_kernel("vectorized"), std::nullopt);
  EXPECT_EQ(march::parse_kernel(""), std::nullopt);
}

TEST(Kernel, ResolveIsPureAndAutoMeansPacked) {
  // No process-wide kernel default exists: resolution is a pure function.
  EXPECT_EQ(march::resolve_kernel(CampaignKernel::Auto),
            CampaignKernel::Packed);
  EXPECT_EQ(march::resolve_kernel(CampaignKernel::Scalar),
            CampaignKernel::Scalar);
  EXPECT_EQ(march::resolve_kernel(CampaignKernel::Packed),
            CampaignKernel::Packed);
}

TEST(Kernel, FullLibraryAllClassesEquivalence) {
  // 96 instances per class: one full lane-pack plus a ragged 32-lane one.
  const memsim::MemoryGeometry geom{.address_bits = 4, .word_bits = 2,
                                    .num_ports = 1};
  for (const auto& alg : march::all_algorithms()) {
    for (const FaultClass cls : memsim::all_fault_classes()) {
      const auto universe = march::make_fault_universe(cls, geom, 17, 96);
      ASSERT_FALSE(universe.empty());
      const auto scalar =
          run_with(alg, geom, universe, CampaignKernel::Scalar);
      const auto packed =
          run_with(alg, geom, universe, CampaignKernel::Packed);
      EXPECT_EQ(scalar.records, packed.records)
          << alg.name() << " x " << memsim::fault_class_name(cls);
    }
  }
}

TEST(Kernel, PackedInvariantUnderJobs) {
  const auto universe =
      march::make_fault_universe(FaultClass::CFid, kGeom, 23, 96);
  const auto reference =
      run_with(march::march_c(), kGeom, universe, CampaignKernel::Scalar);
  for (const int jobs : {1, 2, 8}) {
    const auto packed = run_with(march::march_c(), kGeom, universe,
                                 CampaignKernel::Packed, jobs);
    EXPECT_EQ(reference.records, packed.records) << "jobs=" << jobs;
  }
}

TEST(Kernel, RaggedFinalPack) {
  // Universe sizes around the lane-pack boundary, including a single-lane
  // pack and an exactly-full pack.
  const memsim::MemoryGeometry geom{.address_bits = 6, .word_bits = 2,
                                    .num_ports = 1};
  const auto base = march::make_fault_universe(FaultClass::TF, geom, 31, 130);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{130}}) {
    ASSERT_LE(n, base.size());
    const std::span<const memsim::Fault> universe{base.data(), n};
    const auto scalar =
        run_with(march::march_b(), geom, universe, CampaignKernel::Scalar);
    const auto packed =
        run_with(march::march_b(), geom, universe, CampaignKernel::Packed);
    EXPECT_EQ(scalar.records, packed.records) << "n=" << n;
  }
}

TEST(Kernel, GroupUniversesMatch) {
  // Linked CFid pairs plus heavier mixed groups: several faults of
  // different classes sharing one lane.
  const auto pairs = march::make_linked_cfid_universe(kGeom, 13, 70);
  std::vector<march::FaultGroup> groups;
  for (const auto& [a, b] : pairs) groups.push_back({a, b});
  groups.push_back({memsim::StuckAtFault{{1, 0}, true},
                    memsim::TransitionFault{{9, 0}, false},
                    memsim::ReadDestructiveFault{{12, 0}, true}});
  groups.push_back({memsim::AddressDecoderFault{4, {}},
                    memsim::ReadDestructiveFault{{20, 0}, true}});
  groups.push_back({memsim::AddressDecoderFault{6, {7, 8}},
                    memsim::InversionCouplingFault{{7, 0}, {25, 0}, true}});

  const auto stream = march::expand(march::march_lr(), kGeom);
  const auto scalar =
      CampaignRunner{{.jobs = 1, .kernel = CampaignKernel::Scalar}}
          .run_groups(stream, kGeom, groups);
  for (const int jobs : {1, 4}) {
    const auto packed =
        CampaignRunner{{.jobs = jobs, .kernel = CampaignKernel::Packed}}
            .run_groups(stream, kGeom, groups);
    EXPECT_EQ(scalar.records, packed.records) << "jobs=" << jobs;
  }
}

TEST(Kernel, ClassesOutsideTheStandardUniverse) {
  // PF, NPSF, intra-word coupling and pause-driven DRF don't appear in
  // make_fault_universe(all_fault_classes()); pin them explicitly.
  const memsim::MemoryGeometry geom{.address_bits = 3, .word_bits = 4,
                                    .num_ports = 2};
  std::vector<memsim::Fault> universe =
      march::make_intra_word_cf_universe(geom, 3, 40);
  universe.push_back(memsim::PortReadFault{1, 2});
  universe.push_back(memsim::PortReadFault{0, 0});
  universe.push_back(memsim::NeighborhoodPatternFault{
      {3, 1}, {{2, 1}, {4, 1}, {3, 0}}, 0b101, true});
  universe.push_back(memsim::DataRetentionFault{{5, 2}, false, 1});
  universe.push_back(memsim::DataRetentionFault{{5, 2}, true, 1});

  // March G carries pauses (DRF excitation); A++ has back-to-back reads.
  for (const char* name : {"March G", "March A++"}) {
    const auto alg = march::by_name(name);
    const auto scalar =
        run_with(alg, geom, universe, CampaignKernel::Scalar);
    const auto packed =
        run_with(alg, geom, universe, CampaignKernel::Packed);
    EXPECT_EQ(scalar.records, packed.records) << name;
  }
}

TEST(Kernel, EmptyDecoderLaneDivergesWeakCellTracking) {
  // Regression for the subtlest packed corner: a read through an
  // AF-to-nowhere lane completes no read, so that lane's back-to-back
  // (DRDF) tracking must lag the other lanes'.  Build a stream where the
  // divergence changes the verdict and check both kernels agree.
  const memsim::MemoryGeometry geom{.address_bits = 2, .word_bits = 1,
                                    .num_ports = 1};
  std::vector<march::FaultGroup> groups;
  // Lane 0: plain weak cell at 0 — detected by a read sandwiched around
  // an innocuous read of 1 only if the decoder maps 1 somewhere.
  groups.push_back({memsim::ReadDestructiveFault{{0, 0}, true}});
  // Lane 1: same weak cell, but address 1 reads nowhere, so r0 r1 r0 IS
  // back-to-back on cell 0 for this lane only.
  groups.push_back({memsim::ReadDestructiveFault{{0, 0}, true},
                    memsim::AddressDecoderFault{1, {}}});

  march::OpStream stream;
  stream.push_back(march::MemOp::write(0, 0, 0));
  stream.push_back(march::MemOp::write(0, 1, 0));
  stream.push_back(march::MemOp::read(0, 0, 0));
  stream.push_back(march::MemOp::read(0, 1, 0));  // lane 1: reads nowhere
  stream.push_back(march::MemOp::read(0, 0, 0));  // b2b only in lane 1

  const auto scalar =
      CampaignRunner{{.jobs = 1, .kernel = CampaignKernel::Scalar}}
          .run_groups(stream, geom, groups);
  const auto packed =
      CampaignRunner{{.jobs = 1, .kernel = CampaignKernel::Packed}}
          .run_groups(stream, geom, groups);
  EXPECT_EQ(scalar.records, packed.records);
  // Lane 1 must detect (on the AF read at op 3: expected 0 is actually
  // what nothing-read returns, so the weak-cell read at op 4 detects);
  // lane 0 must not — the intervening read of cell 1 resets its weak
  // cell.  If the packed kernel tracked last-read uniformly, lane 1
  // would wrongly mirror lane 0.
  EXPECT_FALSE(packed.records[0].detected);
  EXPECT_TRUE(packed.records[1].detected);
}

// --- sparse projection -------------------------------------------------
//
// The packed kernel replays only the ops at addresses a lane-pack's faults
// involve.  At 16-64 words a 64-lane pack involves nearly every address,
// so the cases below use larger arrays (or hand-built streams) where the
// projection skips ops, and pin the state carried across skipped ops.

// Scalar records, then packed records under each jobs value.
void expect_kernels_agree(std::span<const march::MemOp> stream,
                          const memsim::MemoryGeometry& geom,
                          std::span<const march::FaultGroup> groups,
                          std::initializer_list<int> jobs_values = {1, 2},
                          std::uint64_t seed = 1) {
  const auto scalar = CampaignRunner{{.jobs = 1,
                                      .powerup_seed = seed,
                                      .kernel = CampaignKernel::Scalar}}
                          .run_groups(stream, geom, groups);
  for (const int jobs : jobs_values) {
    const auto packed = CampaignRunner{{.jobs = jobs,
                                        .powerup_seed = seed,
                                        .kernel = CampaignKernel::Packed}}
                            .run_groups(stream, geom, groups);
    EXPECT_EQ(scalar.records, packed.records) << "jobs=" << jobs;
  }
}

std::vector<march::FaultGroup> singletons(
    const std::vector<memsim::Fault>& universe) {
  std::vector<march::FaultGroup> groups;
  for (const auto& f : universe) groups.push_back({f});
  return groups;
}

TEST(Projection, FullLibraryAllClassesAtSparseGeometry) {
  // 256 words: a pack of 64 single-cell faults involves at most a quarter
  // of the addresses.  72 instances per class: one full pack plus a
  // ragged 8-lane one.
  const memsim::MemoryGeometry geom{.address_bits = 8, .word_bits = 1,
                                    .num_ports = 1};
  for (const auto& alg : march::all_algorithms()) {
    const auto stream = march::expand(alg, geom);
    for (const FaultClass cls : memsim::all_fault_classes()) {
      const auto universe = march::make_fault_universe(cls, geom, 41, 72);
      ASSERT_FALSE(universe.empty());
      const auto scalar = CampaignRunner{{.jobs = 1,
                                          .kernel = CampaignKernel::Scalar}}
                              .run(stream, geom, universe);
      for (const int jobs : {1, 2, 8}) {
        const auto packed =
            CampaignRunner{{.jobs = jobs, .kernel = CampaignKernel::Packed}}
                .run(stream, geom, universe);
        EXPECT_EQ(scalar.records, packed.records)
            << alg.name() << " x " << memsim::fault_class_name(cls)
            << " jobs=" << jobs;
      }
    }
  }
}

TEST(Projection, BenchmarkScaleRecordsMatchScalar) {
  // 4096 words, as the perfbench campaign runs: a pack involves about 2%
  // of the stream.  March C+ adds the pauses (DRF).  Records, not the
  // rounded coverage table, so one flipped verdict or a moved
  // first_failure_op fails the case.  64 instances per class, one class
  // per pack, all classes in one run() so 4 workers share 12 packs.
  const memsim::MemoryGeometry geom{.address_bits = 12, .word_bits = 1,
                                    .num_ports = 1};
  std::vector<memsim::Fault> universe;
  for (const FaultClass cls : memsim::all_fault_classes()) {
    const auto faults = march::make_fault_universe(cls, geom, 11, 64);
    universe.insert(universe.end(), faults.begin(), faults.end());
  }
  for (const char* name : {"March C", "March C+"}) {
    const auto stream = march::expand(march::by_name(name), geom);
    const auto scalar =
        CampaignRunner{{.jobs = 4, .kernel = CampaignKernel::Scalar}}.run(
            stream, geom, universe);
    const auto packed =
        CampaignRunner{{.jobs = 4, .kernel = CampaignKernel::Packed}}.run(
            stream, geom, universe);
    EXPECT_EQ(scalar.records, packed.records) << name;
  }
}

constexpr memsim::MemoryGeometry kSparse{.address_bits = 6, .word_bits = 1,
                                         .num_ports = 1};

// w0 over the whole array: every later op at an uninvolved address is
// skipped by a pack whose faults sit elsewhere.
march::OpStream zero_fill(const memsim::MemoryGeometry& geom) {
  march::OpStream stream;
  for (memsim::Address a = 0; a < geom.num_words(); ++a)
    stream.push_back(march::MemOp::write(0, a, 0));
  return stream;
}

TEST(Projection, StuckOpenReadsTheResidueOfASkippedRead) {
  // The open cell at 5 senses the column residue, which a skipped read of
  // address 40 set to 1: only carrying that residue detects at op n+3.
  auto stream = zero_fill(kSparse);
  const std::size_t n = stream.size();
  stream.push_back(march::MemOp::read(0, 5, 0));   // residue 0
  stream.push_back(march::MemOp::write(0, 40, 1));  // skipped
  stream.push_back(march::MemOp::read(0, 40, 1));   // skipped: residue 1
  stream.push_back(march::MemOp::read(0, 5, 0));    // senses 1
  const std::vector<march::FaultGroup> groups{
      {memsim::StuckOpenFault{{5, 0}}}, {memsim::StuckAtFault{{7, 0}, true}}};
  expect_kernels_agree(stream, kSparse, groups);
  const auto packed = CampaignRunner{{.jobs = 1}}.run_groups(stream, kSparse,
                                                             groups);
  EXPECT_TRUE(packed.records[0].detected);
  EXPECT_EQ(packed.records[0].first_failure_op, n + 3);
}

TEST(Projection, WeakCellTrackingForgetsSkippedOps) {
  // Weak cell at 5.  A skipped read or write between two reads of 5 makes
  // them non-consecutive; the triple read after a skipped op is the only
  // back-to-back pair.
  for (const bool skipped_read : {true, false}) {
    auto stream = zero_fill(kSparse);
    const std::size_t n = stream.size();
    stream.push_back(march::MemOp::read(0, 5, 0));
    stream.push_back(skipped_read ? march::MemOp::read(0, 33, 0)
                                  : march::MemOp::write(0, 33, 0));
    stream.push_back(march::MemOp::read(0, 5, 0));   // not back-to-back
    stream.push_back(march::MemOp::write(0, 34, 0));  // skipped
    stream.push_back(march::MemOp::read(0, 5, 0));
    stream.push_back(march::MemOp::read(0, 5, 0));   // back-to-back
    stream.push_back(march::MemOp::read(0, 5, 0));
    const std::vector<march::FaultGroup> groups{
        {memsim::ReadDestructiveFault{{5, 0}, true}}};
    expect_kernels_agree(stream, kSparse, groups);
    const auto packed = CampaignRunner{{.jobs = 1}}.run_groups(
        stream, kSparse, groups);
    EXPECT_EQ(packed.records[0].first_failure_op, n + 5) << skipped_read;
  }
}

TEST(Projection, EmptyDecoderLanesAcrossSkippedOps) {
  // Lane 1's decoder maps 3 to nowhere, so r7 r3 r7 is back-to-back on its
  // weak cell only; a skipped read between them breaks the pair for every
  // lane.
  for (const bool gap : {false, true}) {
    auto stream = zero_fill(kSparse);
    const std::size_t n = stream.size();
    stream.push_back(march::MemOp::read(0, 7, 0));
    if (gap) stream.push_back(march::MemOp::read(0, 50, 0));
    stream.push_back(march::MemOp::read(0, 3, 0));
    stream.push_back(march::MemOp::read(0, 7, 0));
    const std::vector<march::FaultGroup> groups{
        {memsim::ReadDestructiveFault{{7, 0}, true}},
        {memsim::ReadDestructiveFault{{7, 0}, true},
         memsim::AddressDecoderFault{3, {}}},
        {memsim::AddressDecoderFault{9, {}},
         memsim::ReadDestructiveFault{{7, 0}, true}}};
    expect_kernels_agree(stream, kSparse, groups);
    const auto packed = CampaignRunner{{.jobs = 1}}.run_groups(
        stream, kSparse, groups);
    EXPECT_FALSE(packed.records[0].detected);
    EXPECT_EQ(packed.records[1].detected, !gap);
    if (!gap) {
      EXPECT_EQ(packed.records[1].first_failure_op, n + 2);
    }
  }
}

TEST(Projection, RetentionDecayAcrossPausesAndSkippedGaps) {
  // Pauses are never skipped: the DRF cell decays over the pause however
  // many skipped ops surround it, unless it is rewritten first.
  march::OpStream stream = zero_fill(kSparse);
  stream.push_back(march::MemOp::write(0, 5, 1));
  stream.push_back(march::MemOp::write(0, 6, 1));
  for (memsim::Address a = 10; a < 60; ++a)
    stream.push_back(march::MemOp::write(0, a, 1));
  stream.push_back(march::MemOp::pause(2'000));
  for (memsim::Address a = 10; a < 60; ++a)
    stream.push_back(march::MemOp::read(0, a, 1));
  stream.push_back(march::MemOp::write(0, 6, 1));
  stream.push_back(march::MemOp::read(0, 5, 1));
  stream.push_back(march::MemOp::read(0, 6, 1));
  const std::vector<march::FaultGroup> groups{
      {memsim::DataRetentionFault{{5, 0}, false, 1'000}},
      {memsim::DataRetentionFault{{6, 0}, false, 1'000}},
      {memsim::DataRetentionFault{{5, 0}, false, 5'000}}};
  expect_kernels_agree(stream, kSparse, groups);
  const auto packed = CampaignRunner{{.jobs = 1}}.run_groups(stream, kSparse,
                                                             groups);
  EXPECT_TRUE(packed.records[0].detected);
  EXPECT_FALSE(packed.records[1].detected);
  EXPECT_FALSE(packed.records[2].detected);
}

TEST(Projection, WordOrientedMultiportLibrary) {
  const memsim::MemoryGeometry geom{.address_bits = 7, .word_bits = 4,
                                    .num_ports = 2};
  // March C++ has triple reads, March G pauses.
  for (const char* name : {"March C++", "March G"}) {
    const auto stream = march::expand(march::by_name(name), geom);
    for (const FaultClass cls : {FaultClass::CFin, FaultClass::AF,
                                 FaultClass::SOF, FaultClass::DRF,
                                 FaultClass::DRDF}) {
      SCOPED_TRACE(std::string{name} + " x " +
                   std::string{memsim::fault_class_name(cls)});
      expect_kernels_agree(
          stream, geom,
          singletons(march::make_fault_universe(cls, geom, 5, 70)));
    }
    SCOPED_TRACE(name);
    expect_kernels_agree(
        stream, geom,
        singletons(march::make_intra_word_cf_universe(geom, 9, 70)));
  }
}

TEST(Projection, ReadsThatFailInAFaultFreeMemory) {
  // Raw streams only: a read before any write (power-up contents) and a
  // read expecting the wrong word fail in every lane, at whatever address
  // — involved by the pack or not — so every pack replays densely.
  march::OpStream stream;
  stream.push_back(march::MemOp::write(0, 5, 0));
  stream.push_back(march::MemOp::read(0, 5, 0));
  for (memsim::Address a = 20; a < 40; ++a)
    stream.push_back(march::MemOp::read(0, a, 0));  // power-up contents
  for (memsim::Address a = 0; a < kSparse.num_words(); ++a)
    stream.push_back(march::MemOp::write(0, a, 1));
  stream.push_back(march::MemOp::read(0, 44, 0));  // wrong word
  stream.push_back(march::MemOp::read(0, 5, 1));
  const std::vector<march::FaultGroup> groups{
      {memsim::StuckAtFault{{5, 0}, true}},
      {memsim::StuckAtFault{{5, 0}, false}},
      {memsim::StuckAtFault{{22, 0}, false}},
      {memsim::StuckAtFault{{44, 0}, true}},
      {memsim::TransitionFault{{60, 0}, true}}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u})
    expect_kernels_agree(stream, kSparse, groups, {1, 2}, seed);
}

TEST(Projection, ExpectedWordWiderThanTheMemoryFailsEveryLane) {
  const memsim::MemoryGeometry geom{.address_bits = 6, .word_bits = 2,
                                    .num_ports = 1};
  march::OpStream stream = zero_fill(geom);
  stream.push_back(march::MemOp::read(0, 3, 0));
  stream.push_back(march::MemOp::read(0, 3, 0b100));  // bit 2 of a 2-bit word
  stream.push_back(march::MemOp::read(0, 50, 0b100));
  const std::vector<march::FaultGroup> groups{
      {memsim::StuckAtFault{{3, 1}, false}},
      {memsim::StuckAtFault{{9, 0}, false}}};
  expect_kernels_agree(stream, geom, groups);
  const auto packed =
      CampaignRunner{{.jobs = 1}}.run_groups(stream, geom, groups);
  EXPECT_EQ(packed.records[0].first_failure_op, geom.num_words() + 1);
  EXPECT_EQ(packed.records[1].first_failure_op, geom.num_words() + 1);
}

TEST(Projection, ResetRestoresCellsThePreviousPackChanged) {
  // reset() restores only what changed since the last reset.  Pack 0
  // changes cell 9 without writing it — by SAF injection or by a coupling
  // force — and ends on the IRF read before anything else touches 9; the
  // one-lane pack 1 then reads 9 on the same worker's memory.
  constexpr std::uint64_t kSeed = 3;
  memsim::SramModel power_up{kSparse, kSeed};
  const memsim::Word p3 = power_up.read(0, 3);
  const memsim::Word p9 = power_up.read(0, 9);
  const march::OpStream stream{
      march::MemOp::write(0, 5, 0), march::MemOp::write(0, 5, 1),
      march::MemOp::read(0, 3, p3), march::MemOp::read(0, 9, p9)};
  const std::vector<memsim::Fault> changes_9{
      memsim::StuckAtFault{{9, 0}, p9 == 0},
      memsim::IdempotentCouplingFault{{5, 0}, {9, 0}, true, p9 == 0}};
  for (const memsim::Fault& change : changes_9) {
    std::vector<march::FaultGroup> groups(
        64, {memsim::IncorrectReadFault{{3, 0}}, change});
    groups.push_back({memsim::TransitionFault{{9, 0}, true}});
    expect_kernels_agree(stream, kSparse, groups, {1}, kSeed);
  }
}

TEST(Projection, AddressSharedByTwoPacksDetectsInBoth) {
  // Address 5 is involved by lane 0 of both packs, so its ops go to two
  // lists; both lanes detect at the same op.  The other lanes sit at 9
  // (pack 0) and 20 (pack 1), which only one pack involves.
  auto stream = zero_fill(kSparse);
  const std::size_t n = stream.size();
  stream.push_back(march::MemOp::write(0, 5, 1));
  stream.push_back(march::MemOp::read(0, 5, 1));   // SAF0 at 5 detects
  stream.push_back(march::MemOp::read(0, 9, 0));   // SAF1 at 9 detects
  stream.push_back(march::MemOp::write(0, 20, 1));  // TF at 20 blocks
  stream.push_back(march::MemOp::read(0, 20, 1));
  std::vector<march::FaultGroup> groups{{memsim::StuckAtFault{{5, 0}, false}}};
  groups.resize(64, {memsim::StuckAtFault{{9, 0}, true}});
  groups.push_back({memsim::StuckAtFault{{5, 0}, false}});
  groups.push_back({memsim::TransitionFault{{20, 0}, true}});
  expect_kernels_agree(stream, kSparse, groups, {1, 4});
  const auto packed =
      CampaignRunner{{.jobs = 4}}.run_groups(stream, kSparse, groups);
  EXPECT_EQ(packed.records[0].first_failure_op, n + 1);
  EXPECT_EQ(packed.records[64].first_failure_op, n + 1);
  EXPECT_EQ(packed.records[1].first_failure_op, n + 2);
  EXPECT_EQ(packed.records[65].first_failure_op, n + 4);
}

TEST(Projection, PackWhoseAddressesTheStreamNeverTouches) {
  // The stream reaches addresses 0..31 only and the pack's faults sit at
  // 40..60, so the pack keeps nothing but the pauses; nothing is detected.
  march::OpStream stream{march::MemOp::pause(500)};
  for (memsim::Address a = 0; a < 32; ++a)
    stream.push_back(march::MemOp::write(0, a, 1));
  stream.push_back(march::MemOp::pause(5'000));
  for (memsim::Address a = 0; a < 32; ++a)
    stream.push_back(march::MemOp::read(0, a, 1));
  const std::vector<march::FaultGroup> groups{
      {memsim::StuckAtFault{{40, 0}, true}},
      {memsim::DataRetentionFault{{41, 0}, false, 1'000}},
      {memsim::StuckOpenFault{{42, 0}}},
      {memsim::IdempotentCouplingFault{{50, 0}, {60, 0}, true, true}},
      {memsim::AddressDecoderFault{45, {}}}};
  expect_kernels_agree(stream, kSparse, groups, {1, 4});
  const auto packed =
      CampaignRunner{{.jobs = 1}}.run_groups(stream, kSparse, groups);
  for (const auto& record : packed.records) {
    EXPECT_FALSE(record.detected);
    EXPECT_EQ(record.first_failure_op,
              march::DetectionRecord::kNoFailure);
  }
}

TEST(Projection, PausesAtBothEndsAndASkippedRunBeforeAnyRead) {
  // The first kept op after the opening pause follows a skipped run with
  // no read in it, so the sense residue is still the initial 0: the open
  // cell at 5 senses 0 where 1 was written.  The open cell at 6 senses the
  // 1 of the skipped read of 30.  The stream ends on a pause.
  march::OpStream stream{march::MemOp::pause(100)};
  for (memsim::Address a = 30; a < 40; ++a)
    stream.push_back(march::MemOp::write(0, a, 1));  // skipped, no read
  stream.push_back(march::MemOp::write(0, 5, 1));
  stream.push_back(march::MemOp::write(0, 6, 1));
  stream.push_back(march::MemOp::pause(2'000));
  stream.push_back(march::MemOp::read(0, 5, 1));
  stream.push_back(march::MemOp::read(0, 30, 1));  // skipped read
  stream.push_back(march::MemOp::read(0, 6, 1));
  stream.push_back(march::MemOp::pause(100));
  const std::vector<march::FaultGroup> groups{
      {memsim::StuckOpenFault{{5, 0}}},
      {memsim::DataRetentionFault{{6, 0}, false, 1'000}},
      {memsim::StuckOpenFault{{6, 0}}},
      {memsim::StuckAtFault{{7, 0}, true}}};
  for (const std::uint64_t seed : {1u, 2u})
    expect_kernels_agree(stream, kSparse, groups, {1, 4}, seed);
  const auto packed =
      CampaignRunner{{.jobs = 1}}.run_groups(stream, kSparse, groups);
  EXPECT_EQ(packed.records[0].first_failure_op, 14u);
  EXPECT_EQ(packed.records[1].first_failure_op, 16u);  // decayed over 2 us
  EXPECT_FALSE(packed.records[2].detected);
  EXPECT_FALSE(packed.records[3].detected);
}

TEST(Projection, LinkedCouplingGroupsAtBenchmarkScale) {
  // run_groups at the benchmark's 4096 words: each group is a linked CFid
  // pair, so a lane involves up to three addresses and packs share some.
  const memsim::MemoryGeometry geom{.address_bits = 12, .word_bits = 1,
                                    .num_ports = 1};
  std::vector<march::FaultGroup> groups;
  for (const auto& [a, b] : march::make_linked_cfid_universe(geom, 5, 200))
    groups.push_back({a, b});
  for (const char* name : {"March C", "March LR"}) {
    SCOPED_TRACE(name);
    expect_kernels_agree(march::expand(march::by_name(name), geom), geom,
                         groups, {1, 4});
  }
}

TEST(Projection, PortAndNeighborhoodPacksTakeTheDenseReplay) {
  // A port fault misreads at every address and an NPSF neighbour pattern
  // can form anywhere, so their packs replay every op.  The companions
  // are faults the projection would otherwise replay sparsely.
  const memsim::MemoryGeometry geom{.address_bits = 7, .word_bits = 2,
                                    .num_ports = 2};
  const auto stream = march::expand(march::march_c(), geom);
  std::vector<memsim::Fault> universe =
      march::make_fault_universe(FaultClass::SAF, geom, 3, 70);
  universe[10] = memsim::PortReadFault{1, 1};
  universe[67] = memsim::NeighborhoodPatternFault{
      {100, 0}, {{20, 1}, {90, 0}}, 0b11, false};
  expect_kernels_agree(stream, geom, singletons(universe));
  const auto packed = CampaignRunner{{.jobs = 1}}.run(stream, geom, universe);
  EXPECT_TRUE(packed.records[10].detected);
}

}  // namespace
