#include "lint/certify.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "bist/session.h"
#include "field/segment.h"
#include "march/library.h"
#include "soc/scheduler.h"

namespace pmbist::lint {
namespace {

/// The scheduler's own power comparison slack (scheduler.cpp / manager.cpp
/// use `sum > budget + 1e-9`): a certified schedule must satisfy exactly
/// the constraint the engines enforce, no tighter and no looser.
constexpr double kPowerTolerance = 1e-9;

/// One re-derived occupation interval [start, end) for the overlap / power
/// sweeps.  `end` always comes from re-derived costs, never the file.
struct Interval {
  std::string memory;
  std::string group;  ///< empty = dedicated controller seat
  double weight = 0.0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int line = -1;
};

std::string cycles_of(const Interval& iv) {
  std::string text = "[";
  text += std::to_string(iv.start);
  text += ", ";
  text += std::to_string(iv.end);
  text += ")";
  return text;
}

/// SC02: within every named share group, session intervals must be
/// pairwise disjoint — one controller seat cannot run two programs.
void check_seats(const std::vector<Interval>& intervals,
                 const std::string& unit, Report& report) {
  std::map<std::string, std::vector<const Interval*>> groups;
  for (const auto& iv : intervals)
    if (!iv.group.empty()) groups[iv.group].push_back(&iv);
  for (auto& [group, members] : groups) {
    std::sort(members.begin(), members.end(),
              [](const Interval* a, const Interval* b) {
                return std::tie(a->start, a->end, a->memory) <
                       std::tie(b->start, b->end, b->memory);
              });
    for (std::size_t i = 1; i < members.size(); ++i) {
      const Interval* prev = members[i - 1];
      const Interval* cur = members[i];
      if (cur->start < prev->end)
        report.add("SC02", unit, cur->line,
                   "share group '" + group + "': '" + cur->memory + "' " +
                       cycles_of(*cur) + " overlaps '" + prev->memory + "' " +
                       cycles_of(*prev) +
                       " on the same controller seat",
                   "sessions of one share group must serialize");
    }
  }
}

/// SC03: at every session start instant, the summed re-derived weights of
/// the sessions covering it must fit the budget (0 = unconstrained).
void check_power(const std::vector<Interval>& intervals, double budget,
                 const std::string& unit, Report& report) {
  if (budget <= 0.0) return;
  std::set<std::uint64_t> reported;
  for (const auto& at : intervals) {
    if (at.start == at.end) continue;
    if (reported.count(at.start)) continue;
    double sum = 0.0;
    for (const auto& iv : intervals)
      if (iv.start <= at.start && at.start < iv.end) sum += iv.weight;
    if (sum > budget + kPowerTolerance) {
      reported.insert(at.start);
      std::ostringstream os;
      os << "at cycle " << at.start << " the running sessions sum to toggle "
         << "weight " << sum << ", over the chip budget " << budget;
      report.add("SC03", unit, at.line, os.str(),
                 "stagger the overlapping sessions");
    }
  }
}

/// SC10: at every burst start instant, at most bus_budget bursts may
/// stream concurrently (each active burst holds one test-bus lane).
void check_bus(const std::vector<Interval>& intervals, std::uint64_t lanes,
               const std::string& unit, Report& report) {
  std::set<std::uint64_t> reported;
  for (const auto& at : intervals) {
    if (at.start == at.end) continue;
    if (reported.count(at.start)) continue;
    std::uint64_t streaming = 0;
    for (const auto& iv : intervals)
      if (iv.start <= at.start && at.start < iv.end) ++streaming;
    if (streaming > lanes) {
      reported.insert(at.start);
      report.add("SC10", unit, at.line,
                 "at cycle " + std::to_string(at.start) + ", " +
                     std::to_string(streaming) +
                     " bursts stream concurrently but the profile grants " +
                     std::to_string(lanes) + " test-bus lane(s)",
                 "serialize bursts or raise bus_budget");
    }
  }
}

/// Everything the certifier re-derives about one SoC plan assignment.
struct SocDerived {
  const soc::TestAssignment* assignment = nullptr;
  std::uint64_t load = 0;  ///< program (re)load cycles, from the controller
  std::uint64_t test = 0;  ///< exact run cycles, from bist::count_cycles
  double weight = 0.0;
  bool can_retest = false;  ///< spares + bit-oriented + injected defects
};

/// Everything the certifier re-derives about one field participant.
struct FieldDerived {
  const soc::TestAssignment* assignment = nullptr;
  field::SegmentPlan plan;
  double weight = 0.0;
  std::vector<field::IdleWindow> windows;  ///< horizon-clipped, sorted
  bool can_retest = false;
};

}  // namespace

Report certify_soc(const soc::SocDescription& chip, const soc::TestPlan& plan,
                   const std::vector<soc::ScheduleEntry>& entries,
                   std::string unit, const CertifyOptions& options) {
  Report report;
  std::map<std::string, SocDerived> derived;
  try {
    plan.validate(chip);
    for (const auto& a : plan.assignments()) {
      const auto* mem = chip.find(a.memory);
      SocDerived d;
      d.assignment = &a;
      const auto alg = march::resolve_algorithm(a.algorithm);
      const auto controller =
          soc::make_plan_controller(a.controller, alg, mem->geometry, &d.load);
      d.test = bist::count_cycles(*controller, options.max_cycles);
      d.weight = plan.effective_weight(a, *mem);
      d.can_retest = mem->repair.any() && mem->geometry.bit_oriented() &&
                     !mem->faults.empty();
      derived.emplace(a.memory, std::move(d));
    }
  } catch (const std::exception& e) {
    report.add("SC00", std::move(unit), -1,
               std::string{"chip/plan context is not certifiable: "} +
                   e.what(),
               "fix the chip file first (pmbist lint CHIP)");
    return report;
  }

  // Per-session checks + the re-derived interval list for the sweeps.
  std::vector<Interval> intervals;
  std::map<std::pair<std::string, bool>, const soc::ScheduleEntry*> seen;
  for (const auto& e : entries) {
    const auto it = derived.find(e.memory);
    if (it == derived.end()) {
      report.add("SC01", unit, e.line,
                 "session names '" + e.memory +
                     "' but the plan assigns no test to it",
                 "every session must match an assign directive");
      continue;
    }
    const SocDerived& d = it->second;
    if (const auto [pos, fresh] = seen.emplace(
            std::make_pair(e.memory, e.retest), &e);
        !fresh) {
      report.add("SC01", unit, e.line,
                 "duplicate " + std::string{e.retest ? "retest " : ""} +
                     "session for '" + e.memory + "' (first on line " +
                     std::to_string(pos->second->line) + ")",
                 "one session per memory per pass");
      continue;
    }
    if (e.load != d.load || e.test != d.test)
      report.add("SC04", unit, e.line,
                 "'" + e.memory + "' claims load=" + std::to_string(e.load) +
                     " test=" + std::to_string(e.test) +
                     " but the controller re-costs to load=" +
                     std::to_string(d.load) + " test=" +
                     std::to_string(d.test),
                 "the stored cycle costs must equal the re-derived ones");
    if (e.has_weight && std::abs(e.weight - d.weight) > kPowerTolerance) {
      std::ostringstream os;
      os << "'" << e.memory << "' claims weight " << e.weight
         << " but the plan's effective weight is " << d.weight;
      report.add("SC05", unit, e.line, os.str(),
                 "drop weight= to inherit the plan's value");
    }
    intervals.push_back(Interval{e.memory, d.assignment->share_group,
                                 d.weight, e.start, e.start + d.load + d.test,
                                 e.line});
  }

  // SC06: the power-on sweep must test every assignment.
  for (const auto& [memory, d] : derived) {
    (void)d;
    if (!seen.count({memory, false}))
      report.add("SC06", unit, -1,
                 "assigned memory '" + memory +
                     "' has no first-pass session: it ships untested",
                 "every assignment needs a session");
  }

  // SC07: a BISR retest must follow its triggering first pass and target
  // an instance on which repair can engage at all.
  for (const auto& [key, entry] : seen) {
    if (!key.second) continue;
    const SocDerived& d = derived.at(key.first);
    if (!d.can_retest) {
      report.add("SC07", unit, entry->line,
                 "retest session for '" + key.first +
                     "' but repair can never engage (needs spare resources, "
                     "a bit-oriented array and injected defects)",
                 "drop the retest session");
      continue;
    }
    const auto first = seen.find({key.first, false});
    if (first == seen.end()) continue;  // SC06 already reported
    const std::uint64_t first_end =
        first->second->start + d.load + d.test;
    if (entry->start < first_end)
      report.add("SC07", unit, entry->line,
                 "retest of '" + key.first + "' starts at cycle " +
                     std::to_string(entry->start) +
                     ", before its triggering session ends at " +
                     std::to_string(first_end),
                 "repair needs the first-pass fail bitmap");
  }

  check_seats(intervals, unit, report);
  check_power(intervals, plan.power().budget, unit, report);
  return report;
}

Report certify_soc(const soc::SocDescription& chip, const soc::TestPlan& plan,
                   const std::vector<soc::ScheduledSession>& schedule,
                   std::string unit, const CertifyOptions& options) {
  return certify_soc(chip, plan, soc::schedule_entries(schedule),
                     std::move(unit), options);
}

Report certify_field(const soc::SocDescription& chip,
                     const soc::TestPlan& plan,
                     const field::MissionProfile& profile,
                     const std::vector<field::FieldScheduleEntry>& entries,
                     std::string unit, const CertifyOptions& options) {
  Report report;
  std::uint64_t horizon = 0;
  std::map<std::string, FieldDerived> derived;
  try {
    plan.validate(chip);
    profile.validate(chip);
    horizon = profile.effective_horizon();
    for (const auto& a : plan.assignments()) {
      const auto* set = profile.find(a.memory);
      if (set == nullptr) continue;  // not a field participant
      const auto* mem = chip.find(a.memory);
      FieldDerived d;
      d.assignment = &a;
      d.plan = field::segment_transparent(
          march::resolve_algorithm(a.algorithm), mem->geometry, a.controller,
          options.max_cycles);
      d.weight = plan.effective_weight(a, *mem);
      d.can_retest = mem->repair.any() && mem->geometry.bit_oriented() &&
                     !mem->faults.empty();
      for (auto w : set->windows) {
        if (w.start >= horizon) continue;
        w.end = std::min(w.end, horizon);
        if (w.start < w.end) d.windows.push_back(w);
      }
      std::sort(d.windows.begin(), d.windows.end(),
                [](const field::IdleWindow& a_, const field::IdleWindow& b_) {
                  return a_.start < b_.start;
                });
      derived.emplace(a.memory, std::move(d));
    }
  } catch (const std::exception& e) {
    report.add("SC00", std::move(unit), -1,
               std::string{"chip/plan/profile context is not certifiable: "} +
                   e.what(),
               "fix the chip and profile files first");
    return report;
  }

  std::vector<Interval> intervals;
  std::map<std::string, std::vector<const field::FieldScheduleEntry*>>
      by_memory;
  for (const auto& entry : entries) {
    const auto& s = entry.session;
    const auto it = derived.find(s.memory);
    if (it == derived.end()) {
      report.add("SC01", unit, entry.line,
                 "burst names '" + s.memory +
                     "' but it is not a field participant (no assignment or "
                     "no idle windows)",
                 "every burst must match an assigned, windowed memory");
      continue;
    }
    const FieldDerived& d = it->second;
    const auto& segs = d.plan.segments;
    if (s.segment_begin >= s.segment_end || s.segment_end > segs.size()) {
      report.add("SC09", unit, entry.line,
                 "'" + s.memory + "' burst names segments [" +
                     std::to_string(s.segment_begin) + ", " +
                     std::to_string(s.segment_end) +
                     ") but the segment plan has " +
                     std::to_string(segs.size()) + " segment(s)",
                 "segment indices must form a non-empty in-range window");
      continue;
    }
    std::uint64_t cost = d.plan.reload_cycles;
    for (std::size_t i = s.segment_begin; i < s.segment_end; ++i)
      cost += segs[i].cycles;
    if (s.reload_cycles != d.plan.reload_cycles ||
        s.end_cycle - s.start_cycle != cost)
      report.add("SC04", unit, entry.line,
                 "'" + s.memory + "' burst claims reload=" +
                     std::to_string(s.reload_cycles) + " duration=" +
                     std::to_string(s.end_cycle - s.start_cycle) +
                     " but the segments re-cost to reload=" +
                     std::to_string(d.plan.reload_cycles) + " duration=" +
                     std::to_string(cost),
                 "burst duration = reload + sum of its segment cycles");
    bool inside = false;
    for (const auto& w : d.windows)
      if (w.start <= s.start_cycle && s.end_cycle <= w.end) {
        inside = true;
        break;
      }
    if (!inside)
      report.add("SC08", unit, entry.line,
                 "'" + s.memory + "' burst [" +
                     std::to_string(s.start_cycle) + ", " +
                     std::to_string(s.end_cycle) +
                     ") lies outside every declared idle window "
                     "(horizon-clipped)",
                 "bursts may only run while the memory is idle");
    if (s.retest && s.pass == 0)
      report.add("SC07", unit, entry.line,
                 "'" + s.memory + "' flags pass 0 as a retest: the retest "
                 "must follow the triggering first pass",
                 "repair needs the first-pass fail bitmap");
    else if (s.retest && !d.can_retest)
      report.add("SC07", unit, entry.line,
                 "retest burst for '" + s.memory +
                     "' but repair can never engage (needs spare resources, "
                     "a bit-oriented array and injected defects)",
                 "drop the retest flag");
    by_memory[s.memory].push_back(&entry);
    intervals.push_back(Interval{s.memory, d.assignment->share_group,
                                 d.weight, s.start_cycle, s.end_cycle,
                                 entry.line});
  }

  // SC09: per instance, bursts must chain — time-ordered, non-overlapping,
  // each resuming exactly where the previous one checkpointed, passes
  // strictly sequential from (pass 0, segment 0).
  for (auto& [memory, bursts] : by_memory) {
    const FieldDerived& d = derived.at(memory);
    std::sort(bursts.begin(), bursts.end(),
              [](const field::FieldScheduleEntry* a,
                 const field::FieldScheduleEntry* b) {
                return std::tie(a->session.start_cycle,
                                a->session.end_cycle) <
                       std::tie(b->session.start_cycle, b->session.end_cycle);
              });
    int expected_pass = 0;
    std::size_t expected_seg = 0;
    std::uint64_t prev_end = 0;
    for (const auto* entry : bursts) {
      const auto& s = entry->session;
      if (s.segment_begin >= s.segment_end ||
          s.segment_end > d.plan.segments.size())
        break;  // SC09 already reported above; the chain is unrecoverable
      if (s.start_cycle < prev_end) {
        report.add("SC09", unit, entry->line,
                   "'" + memory + "' burst starts at cycle " +
                       std::to_string(s.start_cycle) +
                       " while the previous burst runs until " +
                       std::to_string(prev_end),
                   "one instance streams one burst at a time");
        break;
      }
      if (s.pass != expected_pass || s.segment_begin != expected_seg) {
        report.add("SC09", unit, entry->line,
                   "'" + memory + "' burst claims pass " +
                       std::to_string(s.pass) + " segment " +
                       std::to_string(s.segment_begin) +
                       " but the resume chain expects pass " +
                       std::to_string(expected_pass) + " segment " +
                       std::to_string(expected_seg),
                   "bursts must resume exactly at the previous checkpoint");
        break;
      }
      expected_seg = s.segment_end;
      if (expected_seg == d.plan.segments.size()) {
        ++expected_pass;
        expected_seg = 0;
      }
      prev_end = s.end_cycle;
    }
  }

  check_seats(intervals, unit, report);
  check_power(intervals, plan.power().budget, unit, report);
  check_bus(intervals, profile.bus_budget, unit, report);
  return report;
}

Report certify_field(const soc::SocDescription& chip,
                     const soc::TestPlan& plan,
                     const field::MissionProfile& profile,
                     const field::FieldReport& fieldreport, std::string unit,
                     const CertifyOptions& options) {
  Report report = certify_field(chip, plan, profile,
                                field::field_schedule_entries(
                                    fieldreport.sessions),
                                unit, options);
  // SC11: an interrupted transparent pass must not carry a signature —
  // the MISR prediction covers the whole stream, so a partial signature
  // would let a truncated run masquerade as a completed one.
  for (const auto& inst : fieldreport.instances)
    for (const auto& pass : inst.passes)
      if (pass.state == bist::SessionState::Interrupted &&
          pass.signature.has_value())
        report.add("SC11", unit, -1,
                   "'" + inst.memory + "' pass " + std::to_string(pass.pass) +
                       " was interrupted but carries a MISR signature",
                   "signatures are only valid for completed passes");
  return report;
}

}  // namespace pmbist::lint
