// In-field online test manager: mission-profile parsing, the segmenting
// engine's exact-cost contract, and the headline acceptance bar — N
// checkpointed segments produce bit-identical fault verdicts and
// signatures to one uninterrupted run, for every library algorithm,
// across window-shape sweeps and fuzzed profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bist/misr.h"
#include "bist/session.h"
#include "diag/transparent.h"
#include "field/manager.h"
#include "field/profile.h"
#include "field/segment.h"
#include "march/coverage.h"
#include "march/library.h"
#include "memsim/faulty_memory.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;

// --- profiles ---------------------------------------------------------

TEST(MissionProfile, ParsesMinimalProfile) {
  const auto p = field::parse_profile_text(
      "profile night_shift\n"
      "horizon 50000\n"
      "bus_budget 3\n"
      "window ram0 start=0 end=1000\n"
      "window ram0 start=2000 end=3000\n"
      "window ram1 start=500 end=1500\n");
  EXPECT_EQ(p.name, "night_shift");
  EXPECT_EQ(p.horizon, 50000u);
  EXPECT_EQ(p.bus_budget, 3u);
  ASSERT_NE(p.find("ram0"), nullptr);
  ASSERT_EQ(p.find("ram0")->windows.size(), 2u);
  EXPECT_EQ(p.find("ram0")->windows[1], (field::IdleWindow{2000, 3000}));
  EXPECT_EQ(p.find("nope"), nullptr);
  EXPECT_EQ(p.effective_horizon(), 50000u);
}

TEST(MissionProfile, HorizonDefaultsToLastWindowEnd) {
  const auto p = field::parse_profile_text(
      "window a start=0 end=100\n"
      "window b start=50 end=7500\n");
  EXPECT_EQ(p.horizon, 0u);
  EXPECT_EQ(p.effective_horizon(), 7500u);
}

TEST(MissionProfile, ReportsLineNumbers) {
  const auto expect_line = [](const std::string& text, const char* needle) {
    try {
      (void)field::parse_profile_text(text);
      FAIL() << "expected ProfileError for: " << text;
    } catch (const field::ProfileError& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_line("profile a\nbogus x\n", "line 2");
  expect_line("profile a\nwindow m start=zap end=9\n", "bad number");
  expect_line("profile a\nwindow m start=5 stop=9\n", "missing end=");
  expect_line("profile a\nwindow m start=9 end=5\n", "before start");
  expect_line("profile a\nprofile b\n", "duplicate profile");
  expect_line("window m start=1 end=2 start=3\n", "duplicate key");
  expect_line("horizon nope\n", "bad horizon");
}

TEST(MissionProfile, ValidateCatchesEveryMistake) {
  field::MissionProfile overlap;
  overlap.add_window("m", {0, 100}).add_window("m", {50, 150});
  EXPECT_THROW(overlap.validate(), field::FieldError);

  field::MissionProfile empty_window;
  empty_window.add_window("m", {10, 10});
  EXPECT_THROW(empty_window.validate(), field::FieldError);

  field::MissionProfile no_bus;
  no_bus.bus_budget = 0;
  no_bus.add_window("m", {0, 100});
  EXPECT_THROW(no_bus.validate(), field::FieldError);

  field::MissionProfile unknown;
  unknown.add_window("no_such_mem", {0, 100});
  EXPECT_NO_THROW(unknown.validate());  // standalone: names unchecked
  EXPECT_THROW(unknown.validate(soc::demo_soc()), field::FieldError);

  // Adjacent windows are fine ([a,b) then [b,c)), and so is the demo.
  field::MissionProfile adjacent;
  adjacent.add_window("m", {0, 100}).add_window("m", {100, 200});
  EXPECT_NO_THROW(adjacent.validate());
  EXPECT_NO_THROW(field::demo_profile().validate(soc::demo_soc()));
}

TEST(MissionProfile, RoundTripsThroughText) {
  const auto p = field::demo_profile();
  const auto text = field::to_profile_text(p);
  const auto parsed = field::parse_profile_text(text);
  EXPECT_EQ(parsed, p);
  EXPECT_EQ(field::to_profile_text(parsed), text);  // fixed point
}

TEST(MissionProfile, NamesThatAreNotBareTokensRoundTrip) {
  // Names that are not bare tokens are written quoted and re-parse.
  for (const std::string name : {"a b", "tab\there", "hash#tag"}) {
    field::MissionProfile p;
    p.name = name;
    p.add_window(name, {0, 10}).add_window("plain", {5, 9});
    const auto text = field::to_profile_text(p);
    EXPECT_EQ(field::parse_profile_text(text), p) << text;
  }
}

TEST(MissionProfile, ErrorsCarryTheirLine) {
  try {
    (void)field::parse_profile_text("profile p\n# note\nwindow m start=1\n");
    FAIL() << "expected ProfileError";
  } catch (const field::ProfileError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(std::string{e.what()},
              "profile line 3: usage: window <mem> start=N end=N");
  }
  // Numbers take C prefixes, like the chip file's.
  EXPECT_EQ(field::parse_profile_text("horizon 0x10\n").horizon, 16u);
}

// --- segmenting engine ------------------------------------------------

TEST(SegmentPlan, CutsAreContiguousAndCostsAreExact) {
  const memsim::MemoryGeometry g{.address_bits = 5, .word_bits = 8,
                                 .num_ports = 2};
  for (const auto& alg : march::all_algorithms()) {
    for (const auto kind :
         {soc::ControllerKind::Ucode, soc::ControllerKind::Hardwired}) {
      const auto plan = field::segment_algorithm(alg, g, kind);
      ASSERT_FALSE(plan.segments.empty()) << alg.name();
      std::uint64_t sum = 0;
      std::size_t cursor = 0;
      for (const auto& s : plan.segments) {
        EXPECT_EQ(s.op_begin, cursor) << alg.name();
        EXPECT_LT(s.op_begin, s.op_end) << alg.name();
        cursor = s.op_end;
        sum += s.cycles;
      }
      // Acceptance: per-segment costs sum to the uninterrupted run.
      EXPECT_EQ(sum, plan.total_cycles) << alg.name();
      std::uint64_t load = 0;
      auto ctrl = soc::make_plan_controller(kind, alg, g, &load);
      EXPECT_EQ(plan.total_cycles, bist::count_cycles(*ctrl, 1'000'000'000))
          << alg.name();
      EXPECT_EQ(plan.reload_cycles, load) << alg.name();
      if (kind == soc::ControllerKind::Hardwired)
        EXPECT_EQ(plan.reload_cycles, 0u) << alg.name();
      else
        EXPECT_GT(plan.reload_cycles, 0u) << alg.name();
    }
  }
}

TEST(SegmentPlan, TransparentPlanAddsRestoreExactlyWhenNeeded) {
  const memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 1,
                                 .num_ports = 1};
  for (const auto& alg : march::all_algorithms()) {
    const auto base = field::segment_algorithm(alg, g,
                                               soc::ControllerKind::Ucode);
    const auto t = field::segment_transparent(alg, g,
                                              soc::ControllerKind::Ucode);
    if (diag::transparent_restore_needed(alg, g.word_bits)) {
      ASSERT_EQ(t.segments.size(), base.segments.size() + 1) << alg.name();
      const auto& r = t.segments.back();
      EXPECT_TRUE(r.restore);
      EXPECT_EQ(r.op_count(), g.num_words());
      EXPECT_EQ(t.total_cycles, base.total_cycles + g.num_words());
      // The op ranges index the transparent stream 1:1.
      memsim::FaultyMemory mem{g, 5};
      std::vector<memsim::Word> seed(g.num_words());
      for (memsim::Address a = 0; a < g.num_words(); ++a)
        seed[a] = mem.read(0, a);
      EXPECT_EQ(t.total_ops(),
                diag::transparent_stream_with_restore(alg, g, seed).size());
    } else {
      EXPECT_EQ(t, base) << alg.name();
    }
  }
}

// --- segmented-equivalence acceptance suite ---------------------------

soc::TestAssignment task(std::string mem, std::string alg,
                         soc::ControllerKind kind, std::string group = {},
                         double weight = 0.0) {
  soc::TestAssignment a;
  a.memory = std::move(mem);
  a.algorithm = std::move(alg);
  a.controller = kind;
  a.share_group = std::move(group);
  a.power_weight = weight;
  return a;
}

struct OneMemRig {
  soc::SocDescription chip{"rig"};
  soc::TestPlan plan;
  field::SegmentPlan segments;
};

OneMemRig make_rig(const march::MarchAlgorithm& alg,
                   const memsim::MemoryGeometry& g,
                   std::vector<memsim::Fault> faults,
                   std::uint64_t seed = 7) {
  OneMemRig rig;
  soc::MemoryInstance m;
  m.name = "m";
  m.geometry = g;
  m.powerup_seed = seed;
  m.faults = std::move(faults);
  rig.chip.add(std::move(m));
  rig.plan.assign(task("m", alg.name(), soc::ControllerKind::Ucode));
  rig.segments =
      field::segment_transparent(alg, g, soc::ControllerKind::Ucode);
  return rig;
}

/// Independent reference: the uninterrupted transparent pass computed
/// directly from diag/march/bist primitives, bypassing src/field entirely.
struct Reference {
  std::uint64_t mismatches = 0;
  memsim::Word signature = 0;
  std::vector<march::Failure> failures;
  bool contents_preserved = false;
};

Reference reference_pass(const march::MarchAlgorithm& alg,
                         const memsim::MemoryGeometry& g,
                         const std::vector<memsim::Fault>& faults,
                         std::uint64_t seed, std::size_t max_failures) {
  memsim::FaultyMemory memory{g, seed};
  for (const auto& f : faults) memory.add_fault(f);
  std::vector<memsim::Word> initial(g.num_words());
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    initial[a] = memory.read(0, a);
  const auto stream = diag::transparent_stream_with_restore(alg, g, initial);
  Reference ref;
  bist::Misr misr{16};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& op = stream[i];
    switch (op.kind) {
      case march::MemOp::Kind::Pause:
        memory.advance_time_ns(op.pause_ns());
        break;
      case march::MemOp::Kind::Write:
        memory.write(op.port, op.addr, op.data);
        break;
      case march::MemOp::Kind::Read: {
        const auto actual = memory.read(op.port, op.addr);
        misr.absorb(actual);
        if (actual != op.data) {
          ++ref.mismatches;
          if (ref.failures.size() < max_failures)
            ref.failures.push_back(march::Failure{i, op, actual});
        }
        break;
      }
    }
  }
  ref.signature = misr.signature();
  ref.contents_preserved = true;
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    if (memory.read(0, a) != initial[a]) ref.contents_preserved = false;
  return ref;
}

void expect_pass_matches_reference(const field::FieldReport& report,
                                   const Reference& ref,
                                   const std::string& label) {
  ASSERT_EQ(report.instances.size(), 1u) << label;
  const auto& inst = report.instances[0];
  ASSERT_FALSE(inst.passes.empty()) << label;
  const auto& p0 = inst.passes[0];
  ASSERT_TRUE(p0.completed()) << label;
  // Acceptance: bit-identical verdicts and signature vs the power-on run.
  EXPECT_EQ(p0.mismatches, ref.mismatches) << label;
  ASSERT_TRUE(p0.signature.has_value()) << label;
  EXPECT_EQ(*p0.signature, ref.signature) << label;
  EXPECT_EQ(inst.failures, ref.failures) << label;
  // Faulty cells may defeat the restoring write, so preservation is part
  // of the reference verdict, not an unconditional invariant.
  EXPECT_EQ(p0.contents_preserved, ref.contents_preserved) << label;
}

/// A profile whose i-th window exactly fits the i-th segment burst — the
/// maximally chopped schedule: one reload + one segment per window.
field::MissionProfile one_segment_per_window(const field::SegmentPlan& plan,
                                             std::uint64_t gap) {
  field::MissionProfile profile;
  profile.name = "chopped";
  std::uint64_t t = 0;
  for (const auto& s : plan.segments) {
    const auto width = plan.reload_cycles + s.cycles;
    profile.add_window("m", {t, t + width});
    t += width + gap;
  }
  profile.horizon = t + 1;
  return profile;
}

TEST(FieldEquivalence, MaximallyChoppedRunMatchesUninterruptedRun) {
  // Acceptance sweep: EVERY library algorithm, fault present, the session
  // split into as many windows as it has segments.
  const memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 1,
                                 .num_ports = 1};
  const std::vector<memsim::Fault> faults{
      memsim::StuckAtFault{{5, 0}, true},
      memsim::TransitionFault{{11, 0}, false}};
  for (const auto& alg : march::all_algorithms()) {
    const auto rig = make_rig(alg, g, faults);
    const auto ref = reference_pass(alg, g, faults, 7, 1024);
    const auto profile = one_segment_per_window(rig.segments, 37);
    const auto report = field::run_field(rig.chip, rig.plan, profile,
                                         {.jobs = 1, .repeat_passes = false});
    expect_pass_matches_reference(report, ref, alg.name());
    // Really chopped: as many bursts as segments, each one segment long.
    ASSERT_EQ(report.sessions.size(), rig.segments.segments.size())
        << alg.name();
    for (std::size_t i = 0; i < report.sessions.size(); ++i) {
      EXPECT_EQ(report.sessions[i].segment_begin, i) << alg.name();
      EXPECT_EQ(report.sessions[i].segment_end, i + 1) << alg.name();
    }
  }
}

TEST(FieldEquivalence, WindowWidthSweepMatchesUninterruptedRun) {
  const memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 4,
                                 .num_ports = 1};
  const std::vector<memsim::Fault> faults{
      memsim::StuckAtFault{{3, 2}, false}};
  const auto alg = march::by_name("March C+");
  const auto rig = make_rig(alg, g, faults);
  const auto ref = reference_pass(alg, g, faults, 7, 1024);

  std::uint64_t min_width = 0;
  for (const auto& s : rig.segments.segments)
    min_width = std::max(min_width, rig.segments.reload_cycles + s.cycles);
  std::map<std::size_t, bool> burst_counts;
  for (const auto mult : {1.0, 1.3, 1.9, 2.8, 4.0, 9.0}) {
    const auto width = static_cast<std::uint64_t>(
        static_cast<double>(min_width) * mult);
    field::MissionProfile profile;
    profile.name = "sweep";
    // Generous horizon: total work plus a reload per conceivable burst.
    profile.horizon = 4 * rig.segments.total_cycles +
                      64 * (rig.segments.reload_cycles + width);
    for (std::uint64_t t = 0; t < profile.horizon; t += 2 * width)
      profile.add_window("m", {t, t + width});
    const auto report = field::run_field(rig.chip, rig.plan, profile,
                                         {.jobs = 1, .repeat_passes = false});
    expect_pass_matches_reference(report, ref,
                                  "width x" + std::to_string(mult));
    burst_counts[report.sessions.size()] = true;
  }
  // The sweep genuinely exercised different chunkings.
  EXPECT_GE(burst_counts.size(), 3u);
}

TEST(FieldEquivalence, FuzzedWindowShapesMatchUninterruptedRun) {
  const memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 1,
                                 .num_ports = 1};
  const auto alg = march::by_name("March C");
  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 24; ++round) {
    std::vector<memsim::Fault> faults;
    if (round % 3 != 0)
      faults.push_back(memsim::StuckAtFault{
          {static_cast<memsim::Address>(next() % 16), 0}, (round & 1) != 0});
    const std::uint64_t seed = next() | 1;
    const auto rig = make_rig(alg, g, faults, seed);
    const auto ref = reference_pass(alg, g, faults, seed, 1024);

    std::uint64_t min_width = 0;
    for (const auto& s : rig.segments.segments)
      min_width = std::max(min_width, rig.segments.reload_cycles + s.cycles);
    field::MissionProfile profile;
    profile.name = "fuzz";
    std::uint64_t t = next() % 100;
    std::uint64_t covered = 0;
    while (covered < 3 * rig.segments.total_cycles) {
      const auto width = min_width + next() % (3 * min_width);
      profile.add_window("m", {t, t + width});
      covered += width;
      t += width + 1 + next() % 500;
    }
    profile.horizon = t + 1;
    const auto report = field::run_field(rig.chip, rig.plan, profile,
                                         {.jobs = 1, .repeat_passes = false});
    expect_pass_matches_reference(report, ref,
                                  "round " + std::to_string(round));
  }
}

// --- interruption semantics -------------------------------------------

TEST(FieldManager, InterruptedPassEmitsNoSignature) {
  const memsim::MemoryGeometry g{.address_bits = 5, .word_bits = 1,
                                 .num_ports = 1};
  const auto alg = march::by_name("March C");
  const auto rig = make_rig(alg, g, {});
  // One window holding only the first segment; the horizon then closes
  // mid-session — the pass must surface as Interrupted with NO signature
  // (the MISR prediction covers the whole stream, a partial signature
  // would be garbage a tester could mistake for a verdict).
  field::MissionProfile profile;
  profile.name = "cut";
  const auto width =
      rig.segments.reload_cycles + rig.segments.segments[0].cycles;
  profile.add_window("m", {0, width});
  profile.horizon = width + 10;
  const auto report = field::run_field(rig.chip, rig.plan, profile,
                                       {.jobs = 1, .repeat_passes = false});
  const auto& inst = report.instances[0];
  ASSERT_EQ(inst.passes.size(), 1u);
  EXPECT_EQ(inst.passes[0].state, bist::SessionState::Interrupted);
  EXPECT_FALSE(inst.passes[0].completed());
  EXPECT_FALSE(inst.passes[0].signature.has_value());
  EXPECT_FALSE(inst.healthy());  // no completed pass -> not proven healthy
  EXPECT_EQ(inst.first_pass_cycle, report.horizon);
  EXPECT_EQ(inst.staleness_cycles, report.horizon);
}

TEST(FieldManager, SessionStateDefaultsToInterrupted) {
  // The bist-level pin for the same contract: a session result that never
  // ran to completion must not read as Completed.
  const bist::SessionResult fresh;
  EXPECT_EQ(fresh.state, bist::SessionState::Interrupted);
  EXPECT_FALSE(fresh.completed());
  EXPECT_FALSE(fresh.passed());  // even with zero mismatches
}

// --- scheduling constraints and metrics -------------------------------

TEST(FieldManager, DemoRunHonorsEveryConstraint) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto profile = field::demo_profile();
  const auto report = field::run_field(chip, plan, profile, {.jobs = 2});

  EXPECT_EQ(report.horizon, profile.effective_horizon());
  EXPECT_TRUE(report.all_healthy());
  EXPECT_GT(report.window_utilization, 0.0);
  EXPECT_LE(report.window_utilization, 1.0);

  // Session bursts sit inside an idle window of their memory...
  for (const auto& s : report.sessions) {
    const auto* set = profile.find(s.memory);
    ASSERT_NE(set, nullptr) << s.memory;
    const bool inside = std::any_of(
        set->windows.begin(), set->windows.end(), [&](const auto& w) {
          return w.start <= s.start_cycle && s.end_cycle <= w.end;
        });
    EXPECT_TRUE(inside) << s.memory << " burst at " << s.start_cycle;
    EXPECT_LT(s.segment_begin, s.segment_end) << s.memory;
  }
  // ...never more concurrent streams than bus lanes, never over the power
  // budget, and share-group seats are exclusive.  Concurrency is
  // piecewise-constant, so burst starts cover all instants.
  std::map<std::string, double> weight;
  for (const auto& a : plan.assignments())
    weight[a.memory] = plan.effective_weight(a, *chip.find(a.memory));
  std::map<std::string, std::string> group;
  for (const auto& a : plan.assignments()) group[a.memory] = a.share_group;
  for (const auto& s : report.sessions) {
    std::uint64_t lanes = 0;
    double power = 0.0;
    std::map<std::string, int> group_load;
    for (const auto& o : report.sessions) {
      if (o.start_cycle <= s.start_cycle && s.start_cycle < o.end_cycle) {
        ++lanes;
        power += weight[o.memory];
        if (!group[o.memory].empty()) ++group_load[group[o.memory]];
      }
    }
    EXPECT_LE(lanes, profile.bus_budget) << "at " << s.start_cycle;
    EXPECT_LE(power, plan.power().budget + 1e-9) << "at " << s.start_cycle;
    for (const auto& [name, load] : group_load)
      EXPECT_LE(load, 1) << "group " << name << " at " << s.start_cycle;
  }
  EXPECT_LE(report.peak_power, plan.power().budget + 1e-9);

  // Sorted output, and busy/stall metrics line up with the session list.
  EXPECT_TRUE(std::is_sorted(
      report.sessions.begin(), report.sessions.end(),
      [](const auto& x, const auto& y) {
        return std::tie(x.start_cycle, x.memory) <
               std::tie(y.start_cycle, y.memory);
      }));
  std::map<std::string, std::uint64_t> busy;
  for (const auto& s : report.sessions) busy[s.memory] += s.duration();
  for (const auto& inst : report.instances)
    EXPECT_EQ(inst.busy_cycles, busy[inst.memory]) << inst.memory;
}

TEST(FieldManager, ResultsAreIdenticalForAnyWorkerCount) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto profile = field::demo_profile();
  const auto serial = field::run_field(chip, plan, profile, {.jobs = 1});
  EXPECT_EQ(serial, field::run_field(chip, plan, profile, {.jobs = 2}));
  EXPECT_EQ(serial, field::run_field(chip, plan, profile, {.jobs = 8}));
}

TEST(FieldManager, FoldsBisrRetestIntoLaterWindow) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto report = field::run_field(chip, plan, field::demo_profile(),
                                       {.jobs = 2, .repeat_passes = false});
  // Transparent detection is seed-dependent (the paper's known caveat):
  // a fault the stream never excites with these contents stays latent and
  // the instance tests clean.  rom_patch's stuck-at, however, must always
  // be caught — one of the two complementary reads hits the stuck value.
  int retested = 0;
  for (const auto& inst : report.instances) {
    const auto* m = chip.find(inst.memory);
    ASSERT_NE(m, nullptr);
    if (m->faults.empty() || !inst.repair.has_value()) continue;
    EXPECT_TRUE(inst.repair->repairable) << inst.memory;
    EXPECT_TRUE(inst.repair->retest_passed) << inst.memory;
    // The retest is a *scheduled* second pass in a later window, not a
    // same-window re-run: its first burst starts after the first pass
    // completed.
    ASSERT_EQ(inst.passes.size(), 2u) << inst.memory;
    EXPECT_TRUE(inst.passes[1].retest) << inst.memory;
    std::uint64_t first_done = 0, retest_start = 0;
    for (const auto& s : report.sessions) {
      if (s.memory != inst.memory) continue;
      if (s.pass == 0) first_done = std::max(first_done, s.end_cycle);
      if (s.retest && retest_start == 0) retest_start = s.start_cycle;
    }
    EXPECT_GE(retest_start, first_done) << inst.memory;
    ++retested;
  }
  EXPECT_GE(retested, 1);
  const auto rom = std::find_if(
      report.instances.begin(), report.instances.end(),
      [](const auto& r) { return r.memory == "rom_patch"; });
  ASSERT_NE(rom, report.instances.end());
  EXPECT_TRUE(rom->repair.has_value());
  EXPECT_TRUE(report.all_healthy());
}

TEST(FieldManager, TighterBusBudgetTradesStallsForUtilization) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  auto profile = field::demo_profile();
  std::map<std::uint64_t, std::uint64_t> stalls;
  for (const std::uint64_t lanes : {1u, 2u, 9u}) {
    profile.bus_budget = lanes;
    const auto report = field::run_field(chip, plan, profile, {.jobs = 2});
    stalls[lanes] = report.bus_stall_cycles;
  }
  // One shared lane must contend; nine lanes (one per memory) cannot.
  EXPECT_GT(stalls[1], stalls[9]);
  EXPECT_EQ(stalls[9], 0u);
  EXPECT_GE(stalls[1], stalls[2]);
}

TEST(FieldManager, MemoriesWithoutWindowsStayUntested) {
  const memsim::MemoryGeometry g{.address_bits = 4, .word_bits = 1,
                                 .num_ports = 1};
  const auto alg = march::by_name("MATS");
  auto rig = make_rig(alg, g, {});
  field::MissionProfile profile;
  profile.name = "empty";
  profile.horizon = 10'000;
  const auto report = field::run_field(rig.chip, rig.plan, profile,
                                       {.jobs = 1});
  ASSERT_EQ(report.instances.size(), 1u);
  EXPECT_TRUE(report.instances[0].passes.empty());
  EXPECT_EQ(report.instances[0].staleness_cycles, 10'000u);
  EXPECT_FALSE(report.instances[0].healthy());
  EXPECT_EQ(report.window_utilization, 0.0);
}

TEST(FieldManager, RejectsInvalidInputs) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  field::MissionProfile unknown;
  unknown.add_window("no_such_mem", {0, 1000});
  EXPECT_THROW((void)field::run_field(chip, plan, unknown, {}),
               field::FieldError);
  field::MissionProfile overlapping;
  overlapping.add_window("cpu_l2", {0, 100});
  overlapping.add_window("cpu_l2", {50, 150});
  EXPECT_THROW((void)field::run_field(chip, plan, overlapping, {}),
               field::FieldError);
}

}  // namespace
