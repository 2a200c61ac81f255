// SoC orchestration: chip catalog, chip-file parsing, plan validation, and
// the scheduler's contracts — share-group mutual exclusion, power-budget
// compliance, exact durations, and jobs-independent (bit-identical) results.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "soc/chip.h"
#include "soc/chip_json.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;

// --- description ------------------------------------------------------

TEST(SocDescription, RejectsBadInstances) {
  soc::SocDescription chip{"t"};
  EXPECT_THROW(chip.add({}), soc::SocError);  // empty name
  soc::MemoryInstance m;
  m.name = "a";
  m.geometry = {.address_bits = 0, .word_bits = 1, .num_ports = 1};
  EXPECT_THROW(chip.add(m), soc::SocError);  // degenerate geometry
  m.geometry = {.address_bits = 4, .word_bits = 1, .num_ports = 1};
  m.row_bits = 4;  // must be < address_bits
  EXPECT_THROW(chip.add(m), soc::SocError);
  m.row_bits = 2;
  chip.add(m);
  EXPECT_THROW(chip.add(m), soc::SocError);  // duplicate name
  EXPECT_NE(chip.find("a"), nullptr);
  EXPECT_EQ(chip.find("b"), nullptr);
  EXPECT_THROW(chip.add_fault("b", memsim::StuckAtFault{{0, 0}, true}),
               soc::SocError);
}

TEST(SocDescription, DemoChipShape) {
  const auto chip = soc::demo_soc();
  EXPECT_GE(chip.memories().size(), 8u);  // acceptance: >= 8 instances
  int with_defects = 0, repairable = 0;
  for (const auto& m : chip.memories()) {
    if (!m.faults.empty()) ++with_defects;
    if (m.repair.any()) ++repairable;
  }
  EXPECT_GE(with_defects, 2);
  EXPECT_GE(repairable, 2);
}

// --- plan validation --------------------------------------------------

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

TEST(SocPlan, ValidateCatchesEveryMistake) {
  const auto chip = soc::demo_soc();

  soc::TestPlan unknown_mem;
  unknown_mem.assign(task("nope", "March C", soc::ControllerKind::Ucode));
  EXPECT_THROW(unknown_mem.validate(chip), soc::SocError);

  soc::TestPlan dup;
  dup.assign(task("cpu_l2", "March C", soc::ControllerKind::Ucode));
  EXPECT_THROW(
      dup.assign(task("cpu_l2", "MATS+", soc::ControllerKind::Ucode)),
      soc::SocError);

  soc::TestPlan bad_alg;
  bad_alg.assign(task("cpu_l2", "March Zeta", soc::ControllerKind::Ucode));
  EXPECT_THROW(bad_alg.validate(chip), soc::SocError);

  soc::TestPlan unmappable;  // March B does not map onto the pFSM SMs
  unmappable.assign(task("cpu_l2", "March B", soc::ControllerKind::Pfsm));
  EXPECT_THROW(unmappable.validate(chip), soc::SocError);

  soc::TestPlan hardwired_shared;  // a hardwired engine cannot be retargeted
  hardwired_shared.assign(
      task("cpu_l2", "March C", soc::ControllerKind::Hardwired, "grp"));
  EXPECT_THROW(hardwired_shared.validate(chip), soc::SocError);

  soc::TestPlan tight;  // budget below a single session's weight
  tight.assign(task("cpu_l2", "March C", soc::ControllerKind::Ucode));
  tight.set_power_budget(1.0);
  EXPECT_THROW(tight.validate(chip), soc::SocError);

  soc::TestPlan negative;
  negative.assign(task("cpu_l2", "March C", soc::ControllerKind::Ucode));
  negative.set_power_budget(-2.0);
  EXPECT_THROW(negative.validate(chip), soc::SocError);

  EXPECT_NO_THROW(soc::demo_plan().validate(chip));
}

TEST(SocPlan, DefaultWeightIsWordPlusAddressBits) {
  const auto chip = soc::demo_soc();
  const soc::TestPlan plan;
  const auto* l2 = chip.find("cpu_l2");
  ASSERT_NE(l2, nullptr);
  EXPECT_DOUBLE_EQ(
      plan.effective_weight(task("cpu_l2", "March C",
                                 soc::ControllerKind::Ucode),
                            *l2),
      10 + 8);
  EXPECT_DOUBLE_EQ(
      plan.effective_weight(
          task("cpu_l2", "March C", soc::ControllerKind::Ucode, {}, 3.5),
          *l2),
      3.5);
}

// --- chip files -------------------------------------------------------

TEST(ChipFile, ParsesMinimalChip) {
  const auto chip = soc::parse_chip_text(
      "soc tiny\n"
      "mem a addr_bits=4\n"
      "assign a \"MATS\" ucode\n");
  EXPECT_EQ(chip.description.name(), "tiny");
  ASSERT_EQ(chip.description.memories().size(), 1u);
  const auto& m = chip.description.memories()[0];
  EXPECT_EQ(m.geometry.word_bits, 1);  // defaults
  EXPECT_EQ(m.geometry.num_ports, 1);
  EXPECT_EQ(m.powerup_seed, 1u);
  EXPECT_EQ(m.row_bits, -1);
  ASSERT_EQ(chip.plan.assignments().size(), 1u);
  EXPECT_EQ(chip.plan.assignments()[0].algorithm, "MATS");
}

TEST(ChipFile, ReportsLineNumbers) {
  const auto expect_line = [](const std::string& text, const char* needle) {
    try {
      (void)soc::parse_chip_text(text);
      FAIL() << "expected ChipError for: " << text;
    } catch (const soc::ChipError& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_line("soc t\nbogus x\n", "line 2");
  expect_line("soc t\nmem a addr_bits=zap\n", "line 2");
  expect_line("soc t\n\nmem a addr_bits=4 addr_bits=5\n", "duplicate key");
  expect_line("soc t\nassign a \"MATS\n", "unterminated quote");
  expect_line("fault a SAF cell=0:0 value=1\n", "unknown memory");
  expect_line("soc t\nmem a addr_bits=4\nfault a SAF cell=99:0 value=1\n",
              "outside the geometry");
  expect_line("soc t\nmem a addr_bits=4\nassign a \"MATS\" warpdrive\n",
              "line 3");
  // Validation failures surface as ChipError too (plan vs description).
  expect_line("soc t\nmem a addr_bits=4\nassign b \"MATS\" ucode\n", "b");
}

TEST(ChipFile, SampleFaultDrawsFromDeterministicUniverse) {
  const char* text =
      "soc t\n"
      "mem a addr_bits=5\n"
      "fault a sample class=CFid seed=7 index=3\n"
      "assign a \"March C\" ucode\n";
  const auto once = soc::parse_chip_text(text);
  const auto again = soc::parse_chip_text(text);
  ASSERT_EQ(once.description.memories()[0].faults.size(), 1u);
  EXPECT_EQ(once.description, again.description);
}

TEST(ChipFile, RoundTripsTheDemoChip) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto text = soc::to_chip_text(chip, plan);
  const auto parsed = soc::parse_chip_text(text);
  EXPECT_EQ(parsed.description, chip);
  EXPECT_EQ(parsed.plan, plan);
  // And the round-trip is a fixed point.
  EXPECT_EQ(soc::to_chip_text(parsed.description, parsed.plan), text);
}

/// A two-memory chip whose names and reals stress the writers: `name`
/// names the chip, the first memory and the share group.
std::pair<soc::SocDescription, soc::TestPlan> writer_stress_chip(
    const std::string& name, double budget, double weight) {
  soc::SocDescription chip{name};
  soc::MemoryInstance m;
  m.name = name;
  m.geometry = {.address_bits = 4, .word_bits = 1, .num_ports = 1};
  m.faults.push_back(memsim::StuckAtFault{{3, 0}, true});
  chip.add(m);
  m.name = "plain";
  m.faults.clear();
  chip.add(m);
  soc::TestPlan plan;
  plan.set_power_budget(budget);
  plan.assign(task(name, "March C", soc::ControllerKind::Ucode, name, weight));
  plan.assign(task("plain", "MATS+", soc::ControllerKind::Ucode, name));
  return {chip, plan};
}

TEST(ChipFile, RealsRoundTripExactly) {
  // Reals are written exactly, so the plan compares equal after a trip
  // through either format.
  for (const double weight : {1.234567891, 0.1 + 0.2, 9.5, 1e-7, 123456789.0}) {
    const auto [chip, plan] =
        writer_stress_chip("m", 2e9 + 0.123456789, weight);
    const auto text = soc::parse_chip_text(soc::to_chip_text(chip, plan));
    EXPECT_EQ(text.plan, plan) << soc::to_chip_text(chip, plan);
    const auto json = soc::parse_chip_json(soc::serialize_chip_json(chip, plan));
    EXPECT_EQ(json.plan, plan) << soc::serialize_chip_json(chip, plan);
  }
  // Reals "%g" already renders exactly keep their short form.
  const auto [chip, plan] = writer_stress_chip("m", 40, 3.5);
  const auto text = soc::to_chip_text(chip, plan);
  EXPECT_NE(text.find("power_budget 40\n"), std::string::npos) << text;
  EXPECT_NE(text.find(" weight=3.5\n"), std::string::npos) << text;
}

TEST(ChipFile, NamesThatAreNotBareTokensRoundTrip) {
  // A name with a blank or '#' (legal through quoting or the JSON mirror)
  // is written quoted, so the text re-parses to the same chip.
  for (const std::string name : {"a b", "tab\there", "hash#tag"}) {
    const auto [chip, plan] = writer_stress_chip(name, 30, 2);
    const auto text = soc::to_chip_text(chip, plan);
    const auto parsed = soc::parse_chip_text(text);
    EXPECT_EQ(parsed.description, chip) << text;
    EXPECT_EQ(parsed.plan, plan) << text;
    EXPECT_EQ(soc::to_chip_text(parsed.description, parsed.plan), text);
    const auto json = soc::parse_chip_json(soc::serialize_chip_json(chip, plan));
    EXPECT_EQ(json.description, chip);
    EXPECT_EQ(json.plan, plan);
  }
}

TEST(ChipFile, ReaderRulesAreSharedAndStrict) {
  const auto error = [](const std::string& text) {
    try {
      (void)soc::parse_chip_text(text);
    } catch (const soc::ChipError& e) {
      return std::make_pair(e.line(), std::string{e.what()});
    }
    return std::make_pair(0, std::string{"parsed"});
  };
  // The error carries its line as a number, and what() keeps the prefix.
  EXPECT_EQ(error("soc t\n\nbogus\n"),
            std::make_pair(3, std::string{
                                  "chip file line 3: unknown directive 'bogus'"}));
  EXPECT_EQ(error("soc t\nmem a addr_bits=4 word_bit=8\n"),
            std::make_pair(2, std::string{
                                  "chip file line 2: unknown key 'word_bit'"}));
  EXPECT_EQ(error("soc t\npower_budget 6abc\n").first, 2);
  EXPECT_EQ(error("soc t\nmem a addr_bits=4\nfault a SAF cell=1x:0 value=1\n")
                .second,
            "chip file line 3: bad cell reference '1x:0'");
  // Plan validation has no line.
  EXPECT_EQ(error("soc t\nmem a addr_bits=4\nassign b \"MATS\" ucode\n").first,
            -1);
  // Quotes may sit inside a token: group="g 1" is one argument.
  const auto chip = soc::parse_chip_text(
      "soc t\nmem a addr_bits=0x4\nassign a \"MATS\" ucode group=\"g 1\"\n");
  EXPECT_EQ(chip.description.memories()[0].geometry.address_bits, 4);
  EXPECT_EQ(chip.plan.assignments()[0].share_group, "g 1");
}

// --- the JSON mirror (soc/chip_json.h) --------------------------------

TEST(ChipJson, RoundTripsTheDemoChip) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto text = soc::serialize_chip_json(chip, plan);
  const auto parsed = soc::parse_chip_json(text);
  EXPECT_EQ(parsed.description, chip);
  EXPECT_EQ(parsed.plan, plan);
  // The serialization is a fixed point of the round-trip.
  EXPECT_EQ(soc::serialize_chip_json(parsed.description, parsed.plan), text);
}

TEST(ChipJson, AgreesWithTheTextFormat) {
  // Both formats funnel into the same validated back end: serializing a
  // chip both ways and re-parsing yields equal ChipFiles.
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto from_text = soc::parse_chip_text(soc::to_chip_text(chip, plan));
  const auto from_json =
      soc::parse_chip_json(soc::serialize_chip_json(chip, plan));
  EXPECT_EQ(from_text.description, from_json.description);
  EXPECT_EQ(from_text.plan, from_json.plan);
}

TEST(ChipJson, ParseChipSniffsTheFormat) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto as_json = soc::parse_chip(soc::serialize_chip_json(chip, plan));
  const auto as_text = soc::parse_chip(soc::to_chip_text(chip, plan));
  EXPECT_EQ(as_json.description, as_text.description);
  EXPECT_EQ(as_json.plan, as_text.plan);
}

TEST(ChipJson, RejectsMalformedPayloads) {
  EXPECT_THROW((void)soc::parse_chip_json("{not json"), soc::ChipError);
  EXPECT_THROW((void)soc::parse_chip_json("[]"), soc::ChipError);
  EXPECT_THROW((void)soc::parse_chip_json(R"({"soc":"t","bogus":1})"),
               soc::ChipError);
  EXPECT_THROW(
      (void)soc::parse_chip_json(
          R"({"soc":"t","memories":[{"name":"a","addr_bits":4,"frob":1}]})"),
      soc::ChipError);
}

// --- scheduler --------------------------------------------------------

double power_at(const std::vector<soc::ScheduledSession>& schedule,
                std::uint64_t t) {
  double sum = 0.0;
  for (const auto& s : schedule)
    if (s.start_cycle <= t && t < s.end_cycle()) sum += s.power_weight;
  return sum;
}

TEST(SocScheduler, ScheduleRespectsEveryConstraint) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto schedule = soc::Scheduler{}.compute_schedule(chip, plan);
  ASSERT_EQ(schedule.size(), plan.assignments().size());

  const double budget = plan.power().budget;
  ASSERT_GT(budget, 0.0);
  for (const auto& s : schedule) {
    // Acceptance: summed weight never exceeds the budget at any instant
    // (power is piecewise-constant, so session starts cover all instants).
    EXPECT_LE(power_at(schedule, s.start_cycle), budget + 1e-9) << s.memory;
  }
  // Acceptance: two sessions of one share group never overlap.
  for (const auto& a : schedule)
    for (const auto& b : schedule) {
      if (&a == &b || a.share_group.empty() ||
          a.share_group != b.share_group)
        continue;
      const bool overlap =
          a.start_cycle < b.end_cycle() && b.start_cycle < a.end_cycle();
      EXPECT_FALSE(overlap) << a.memory << " and " << b.memory
                            << " overlap in group " << a.share_group;
    }
  // Output ordering: by start cycle, then name.
  EXPECT_TRUE(std::is_sorted(
      schedule.begin(), schedule.end(), [](const auto& x, const auto& y) {
        return std::tie(x.start_cycle, x.memory) <
               std::tie(y.start_cycle, y.memory);
      }));
  // Programmable controllers pay a reload; hardwired engines do not.
  for (const auto& s : schedule) {
    if (s.controller == soc::ControllerKind::Hardwired)
      EXPECT_EQ(s.load_cycles, 0u) << s.memory;
    else
      EXPECT_GT(s.load_cycles, 0u) << s.memory;
  }
}

soc::ChipFile example_chip() {
  std::ifstream in{std::string{PMBIST_SOURCE_DIR} + "/examples/soc_demo.chip"};
  std::stringstream text;
  text << in.rdbuf();
  return soc::parse_chip_text(text.str());
}

// run() takes its durations from its own first-pass sessions and
// compute_schedule() from bist::count_cycles; the two must agree exactly,
// for both demo chips, unconstrained and tight power budgets, folded and
// immediate retests, and any worker count.
TEST(SocScheduler, RunMatchesScheduleAndCycleCountsExactly) {
  const auto file = example_chip();
  const std::pair<soc::SocDescription, soc::TestPlan> chips[] = {
      {soc::demo_soc(), soc::demo_plan()}, {file.description, file.plan}};
  for (const auto& [chip, base_plan] : chips) {
    double max_weight = 0.0;
    for (const auto& a : base_plan.assignments())
      max_weight = std::max(
          max_weight, base_plan.effective_weight(a, *chip.find(a.memory)));
    for (const double budget :
         {0.0, max_weight, 1.5 * max_weight, 3.0 * max_weight}) {
      auto plan = base_plan;
      plan.set_power_budget(budget);
      for (const bool fold : {false, true}) {
        std::optional<soc::SocResult> serial;
        for (const int jobs : {1, 4}) {
          SCOPED_TRACE(chip.name() + " budget " + std::to_string(budget) +
                       " fold " + std::to_string(fold) + " jobs " +
                       std::to_string(jobs));
          const soc::Scheduler scheduler{{.jobs = jobs,
                                          .fold_retests = fold}};
          const auto result = scheduler.run(chip, plan);
          if (serial)
            EXPECT_EQ(result, *serial);
          else
            serial = result;

          auto first_pass = result.schedule;
          std::erase_if(first_pass, [](const auto& s) { return s.retest; });
          EXPECT_EQ(first_pass, scheduler.compute_schedule(chip, plan));

          std::uint64_t max_end = 0;
          for (const auto& s : result.schedule) {
            max_end = std::max(max_end, s.end_cycle());
            // The modeled test duration is EXACT: the executed session
            // took precisely the scheduled cycle count.
            const auto it = std::find_if(
                result.instances.begin(), result.instances.end(),
                [&](const auto& r) { return r.memory == s.memory; });
            ASSERT_NE(it, result.instances.end());
            EXPECT_TRUE(it->session.completed());
            EXPECT_EQ(it->session.cycles, s.test_cycles) << s.memory;
          }
          EXPECT_EQ(result.makespan_cycles, max_end);
          double peak = 0.0;
          for (const auto& s : result.schedule)
            peak = std::max(peak, power_at(result.schedule, s.start_cycle));
          EXPECT_DOUBLE_EQ(result.peak_power, peak);
        }
      }
    }
  }
}

// The demo plan's exact controller cycle counts, in assignment order.
TEST(SocScheduler, DemoDurationsArePinned) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  std::map<std::string, std::uint64_t> cycles;
  for (const auto& s : soc::Scheduler{{.jobs = 1}}.compute_schedule(chip, plan))
    cycles[s.memory] = s.test_cycles;
  const std::uint64_t expected[] = {10253, 28730, 40973, 3887, 5167,
                                    7703,  5176,  644,   164};
  ASSERT_EQ(plan.assignments().size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(cycles[plan.assignments()[i].memory], expected[i]) << i;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "no error";
}

// A session stopped by max_cycles fails run() with the text count_cycles
// gives compute_schedule(): the first assignment in plan order that
// overruns, whatever the worker count.  A bound equal to the longest run
// is not an overrun.
TEST(SocScheduler, RunAndScheduleReportTheSameCycleBound) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const std::string expected = error_of([&] {
    (void)soc::Scheduler{{.jobs = 1, .max_cycles = 100}}.compute_schedule(
        chip, plan);
  });
  EXPECT_EQ(expected, "controller 'microcode-based' exceeded the cycle bound");
  for (const int jobs : {1, 4}) {
    EXPECT_EQ(error_of([&] {
                (void)soc::Scheduler{{.jobs = jobs, .max_cycles = 100}}.run(
                    chip, plan);
              }),
              expected)
        << jobs;
  }
  EXPECT_EQ(error_of([&] {
              (void)soc::Scheduler{{.jobs = 4, .max_cycles = 40972}}.run(
                  chip, plan);
            }),
            expected);
  const auto bounded =
      soc::Scheduler{{.jobs = 4, .max_cycles = 40973}}.run(chip, plan);
  EXPECT_EQ(bounded, soc::run_soc(chip, plan, {.jobs = 4}));
}

TEST(SocScheduler, ResultsAreIdenticalForAnyWorkerCount) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  // Acceptance: bit-identical SocResult (instances, schedule, makespan,
  // peak power — operator== covers them all) for jobs in {1, 2, 8}.
  const auto serial = soc::run_soc(chip, plan, {.jobs = 1});
  EXPECT_EQ(serial, soc::run_soc(chip, plan, {.jobs = 2}));
  EXPECT_EQ(serial, soc::run_soc(chip, plan, {.jobs = 8}));
}

TEST(SocScheduler, DetectsRepairsAndRetests) {
  const auto chip = soc::demo_soc();
  const auto result = soc::run_soc(chip, soc::demo_plan(), {.jobs = 2});
  ASSERT_EQ(result.instances.size(), chip.memories().size());
  int repaired = 0;
  for (const auto& r : result.instances) {
    const auto* m = chip.find(r.memory);
    ASSERT_NE(m, nullptr);
    if (m->faults.empty()) {
      EXPECT_TRUE(r.session.passed()) << r.memory;
      EXPECT_FALSE(r.repair.has_value()) << r.memory;
    } else {
      // Every demo defect is detectable by its assigned March test.
      EXPECT_FALSE(r.session.passed()) << r.memory;
      ASSERT_TRUE(r.repair.has_value()) << r.memory;
      EXPECT_TRUE(r.repair->repairable) << r.memory;
      EXPECT_TRUE(r.repair->retest_passed) << r.memory;
      ++repaired;
    }
  }
  EXPECT_GE(repaired, 2);
  EXPECT_TRUE(result.all_healthy());
  EXPECT_EQ(result.healthy_count(),
            static_cast<int>(result.instances.size()));
}

TEST(SocScheduler, FoldedRetestsMatchImmediateRetestVerdicts) {
  const auto chip = soc::demo_soc();
  const auto plan = soc::demo_plan();
  const auto immediate = soc::run_soc(chip, plan, {.jobs = 2});
  const auto folded =
      soc::run_soc(chip, plan, {.jobs = 2, .fold_retests = true});

  // Same per-instance verdicts either way: folding only moves WHEN the
  // retest runs, never what it concludes.
  ASSERT_EQ(folded.instances.size(), immediate.instances.size());
  for (std::size_t i = 0; i < folded.instances.size(); ++i)
    EXPECT_EQ(folded.instances[i], immediate.instances[i])
        << folded.instances[i].memory;
  EXPECT_TRUE(folded.all_healthy());

  // The folded retests surface as scheduled second-pass sessions that
  // start only after the whole first pass has drained.
  std::uint64_t first_pass_end = 0;
  for (const auto& s : folded.schedule)
    if (!s.retest) first_pass_end = std::max(first_pass_end, s.end_cycle());
  int retests = 0;
  for (const auto& s : folded.schedule) {
    if (!s.retest) continue;
    ++retests;
    EXPECT_GE(s.start_cycle, first_pass_end) << s.memory;
  }
  EXPECT_GE(retests, 2);  // both demo defects are detected and repaired
  EXPECT_GE(folded.makespan_cycles, immediate.makespan_cycles);
  for (const auto& s : immediate.schedule)
    EXPECT_FALSE(s.retest) << s.memory;  // default mode stays as it was

  // Determinism pin: bit-identical folded results for any worker count.
  const auto serial = soc::run_soc(chip, plan, {.jobs = 1,
                                                .fold_retests = true});
  EXPECT_EQ(serial, folded);
  EXPECT_EQ(serial, soc::run_soc(chip, plan, {.jobs = 8,
                                              .fold_retests = true}));
}

TEST(SocScheduler, UnrepairableWithoutSpares) {
  auto chip = soc::demo_soc();
  soc::TestPlan plan;
  plan.assign(task("gpu_tile", "March C", soc::ControllerKind::Ucode));
  chip.add_fault("gpu_tile", memsim::StuckAtFault{{3, 1}, true});
  const auto result = soc::run_soc(chip, plan, {.jobs = 1});
  ASSERT_EQ(result.instances.size(), 1u);
  EXPECT_FALSE(result.instances[0].session.passed());
  EXPECT_FALSE(result.instances[0].repair.has_value());  // no spares
  EXPECT_FALSE(result.all_healthy());
}

TEST(SocScheduler, TighterBudgetNeverShortensTheChipTest) {
  const auto chip = soc::demo_soc();
  auto plan = soc::demo_plan();
  const soc::Scheduler scheduler{};
  std::uint64_t previous = 0;
  // 0 = unconstrained; then progressively tighter budgets.
  for (const double budget : {0.0, 96.0, 48.0, 30.0, 23.0}) {
    plan.set_power_budget(budget);
    const auto schedule = scheduler.compute_schedule(chip, plan);
    std::uint64_t makespan = 0;
    for (const auto& s : schedule)
      makespan = std::max(makespan, s.end_cycle());
    EXPECT_GE(makespan, previous) << "budget " << budget;
    previous = makespan;
  }
  // The tightest budget above admits only one heavy session at a time, so
  // the chip test degenerates towards the serial sum.
  std::uint64_t serial_sum = 0;
  plan.set_power_budget(0.0);
  for (const auto& s : scheduler.compute_schedule(chip, plan))
    serial_sum += s.duration();
  EXPECT_LT(previous, serial_sum);  // groups of light sessions still overlap
}

TEST(SocScheduler, UnconstrainedScheduleParallelizesAcrossControllers) {
  const auto chip = soc::demo_soc();
  auto plan = soc::demo_plan();
  plan.set_power_budget(0.0);
  const auto schedule = soc::Scheduler{}.compute_schedule(chip, plan);
  std::uint64_t makespan = 0, total = 0;
  for (const auto& s : schedule) {
    makespan = std::max(makespan, s.end_cycle());
    total += s.duration();
  }
  EXPECT_LT(makespan, total);  // strictly better than one-at-a-time
}

}  // namespace
