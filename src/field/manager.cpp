#include "field/manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <set>

#include "bist/misr.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "diag/bitmap.h"
#include "diag/transparent.h"
#include "march/library.h"
#include "memsim/faulty_memory.h"
#include "repair/repaired_memory.h"

namespace pmbist::field {
namespace {

using memsim::Word;

constexpr std::uint64_t kNoEvent = std::numeric_limits<std::uint64_t>::max();

/// Scheduling state of one windowed plan assignment.
struct Participant {
  std::size_t assign_index = 0;
  const soc::TestAssignment* assignment = nullptr;
  const soc::MemoryInstance* instance = nullptr;
  SegmentPlan plan;
  double weight = 0.0;
  std::vector<IdleWindow> windows;  ///< sorted, clipped to the horizon

  bool needs_retest = false;  ///< probe verdict: BISR will engage + repair

  // Event-simulation state.
  std::size_t win = 0;  ///< current/next window
  std::size_t seg = 0;  ///< next segment of the current pass
  int pass = 0;
  bool active = false;
  bool blocked = false;  ///< in-window, work fits, resource-contended now
  bool blocked_by_bus = false;
  bool finished = false;  ///< no further passes schedulable
  std::uint64_t busy = 0;
  std::uint64_t stall = 0;
  std::vector<std::uint64_t> completions;  ///< pass completion cycles
};

/// One planned pass of one participant, for the execution phase: the
/// stream prefix its scheduled bursts cover.
struct PassExec {
  int pass = 0;
  bool retest = false;
  std::size_t op_end = 0;
  bool completed = false;
  std::uint64_t complete_cycle = 0;
};

/// Reference uninterrupted first pass: decides — deterministically, from
/// (faults, power-up seed, algorithm) alone — whether BISR will engage and
/// repair, i.e. whether a retest pass must be folded into the schedule.
bool probe_needs_retest(const soc::MemoryInstance& inst,
                        const march::MarchAlgorithm& alg,
                        const FieldOptions& options) {
  if (!inst.repair.any() || !inst.geometry.bit_oriented() ||
      inst.faults.empty())
    return false;
  const auto& g = inst.geometry;
  memsim::FaultyMemory memory{g, inst.powerup_seed};
  for (const auto& f : inst.faults) memory.add_fault(f);
  std::vector<Word> initial(g.num_words());
  for (memsim::Address a = 0; a < g.num_words(); ++a)
    initial[a] = memory.read(0, a);
  const auto stream = diag::transparent_stream_with_restore(alg, g, initial);
  const auto run = march::run_stream(stream, memory, options.max_failures);
  if (run.failures.empty()) return false;
  diag::FailBitmap bitmap{g};
  bitmap.accumulate(run.failures);
  const auto topology = inst.topology();
  const auto solution = repair::allocate_redundancy(
      bitmap, topology,
      {.spare_rows = inst.repair.spare_rows,
       .spare_cols = inst.repair.spare_cols});
  return solution.repairable;
}

/// Executes every planned pass of one participant against a fresh memory.
/// Chunk boundaries never appear here: a pass is the stream prefix its
/// bursts covered, played in order — segmented execution is equivalent to
/// uninterrupted execution by construction (pinned by test_field.cpp).
void execute_participant(const Participant& p,
                         const march::MarchAlgorithm& alg,
                         const std::vector<PassExec>& passes,
                         const FieldOptions& options,
                         FieldInstanceResult& out) {
  const auto& inst = *p.instance;
  const auto& g = inst.geometry;
  // run() has already rejected hostram+faults.
  const auto base = soc::make_instance_memory(inst, options.backend);
  struct RepairState {
    memsim::ArrayTopology topology;
    repair::RepairSolution solution;
    std::unique_ptr<repair::RepairedMemory> view;
  };
  std::unique_ptr<RepairState> repaired;
  memsim::Memory* view = base.get();

  for (const auto& pe : passes) {
    // Seed capture (the hardware's signature-prediction read pass), then
    // the transparent stream for *these* contents.
    std::vector<Word> initial(g.num_words());
    for (memsim::Address a = 0; a < g.num_words(); ++a)
      initial[a] = view->read(0, a);
    const auto stream = diag::transparent_stream_with_restore(alg, g, initial);
    bist::Misr misr{options.misr_width};
    PassResult pr;
    pr.pass = pe.pass;
    pr.retest = pe.retest;
    const std::size_t limit = std::min(pe.op_end, stream.size());
    for (std::size_t i = 0; i < limit; ++i) {
      const auto& op = stream[i];
      switch (op.kind) {
        case march::MemOp::Kind::Pause:
          view->advance_time_ns(op.pause_ns());
          break;
        case march::MemOp::Kind::Write:
          view->write(op.port, op.addr, op.data);
          break;
        case march::MemOp::Kind::Read: {
          const Word actual = view->read(op.port, op.addr);
          misr.absorb(actual);
          if (actual != op.data) {
            ++pr.mismatches;
            if (pe.pass == 0 && out.failures.size() < options.max_failures)
              out.failures.push_back(march::Failure{i, op, actual});
          }
          break;
        }
      }
    }
    if (pe.completed) {
      pr.state = bist::SessionState::Completed;
      pr.complete_cycle = pe.complete_cycle;
      pr.signature = misr.signature();
      pr.contents_preserved = true;
      for (memsim::Address a = 0; a < g.num_words(); ++a) {
        if (view->read(0, a) != initial[a]) {
          pr.contents_preserved = false;
          break;
        }
      }
    }
    // BISR after the first completed pass; later passes (the folded
    // retest first) run through the spare switch-in view.
    if (pe.pass == 0 && pe.completed && inst.repair.any() &&
        g.bit_oriented() && !out.failures.empty()) {
      soc::RepairOutcome outcome;
      diag::FailBitmap bitmap{g};
      bitmap.accumulate(out.failures);
      auto rs = std::make_unique<RepairState>(
          RepairState{inst.topology(), {}, nullptr});
      rs->solution = repair::allocate_redundancy(
          bitmap, rs->topology,
          {.spare_rows = inst.repair.spare_rows,
           .spare_cols = inst.repair.spare_cols});
      outcome.repairable = rs->solution.repairable;
      if (rs->solution.repairable) {
        outcome.spare_rows_used =
            static_cast<int>(rs->solution.rows_replaced.size());
        outcome.spare_cols_used =
            static_cast<int>(rs->solution.cols_replaced.size());
        rs->view = std::make_unique<repair::RepairedMemory>(
            *base, rs->topology, rs->solution);
        repaired = std::move(rs);
        view = repaired->view.get();
      }
      out.repair = outcome;
    }
    if (pr.retest && pr.completed() && out.repair)
      out.repair->retest_passed = pr.mismatches == 0;
    out.passes.push_back(std::move(pr));
  }
}

}  // namespace

int FieldInstanceResult::completed_passes() const noexcept {
  int count = 0;
  for (const auto& p : passes)
    if (p.completed()) ++count;
  return count;
}

bool FieldInstanceResult::healthy() const noexcept {
  if (passes.empty() || !passes.front().completed()) return false;
  if (passes.front().mismatches == 0) return true;
  return repair && repair->retest_passed;
}

int FieldReport::healthy_count() const noexcept {
  int count = 0;
  for (const auto& r : instances)
    if (r.healthy()) ++count;
  return count;
}

FieldReport FieldManager::run(const soc::SocDescription& chip,
                              const soc::TestPlan& plan,
                              const MissionProfile& profile) const {
  const auto t0 = std::chrono::steady_clock::now();
  plan.validate(chip);
  profile.validate(chip);
  soc::check_backend_supports(chip, options_.backend);

  const std::uint64_t horizon = profile.effective_horizon();
  const auto& assignments = plan.assignments();
  const auto n = assignments.size();

  FieldReport report;
  report.chip = chip.name();
  report.profile = profile.name;
  report.horizon = horizon;
  report.bus_budget = profile.bus_budget;
  report.instances.resize(n);

  std::vector<march::MarchAlgorithm> algs(n);
  for (std::size_t i = 0; i < n; ++i)
    algs[i] = march::resolve_algorithm(assignments[i].algorithm);

  // Participants: assignments whose memory has idle windows before the
  // horizon.  Assignments without windows stay in the report untested
  // (staleness = horizon) — the profile linter warns about them (FP05).
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < n; ++i) {
    report.instances[i].memory = assignments[i].memory;
    report.instances[i].first_pass_cycle = horizon;
    report.instances[i].staleness_cycles = horizon;
    const auto* set = profile.find(assignments[i].memory);
    if (set == nullptr) continue;
    Participant p;
    p.assign_index = i;
    p.assignment = &assignments[i];
    p.instance = chip.find(assignments[i].memory);
    p.weight = plan.effective_weight(assignments[i], *p.instance);
    for (auto w : set->windows) {
      if (w.start >= horizon) continue;
      w.end = std::min(w.end, horizon);
      if (w.start < w.end) p.windows.push_back(w);
    }
    if (p.windows.empty()) continue;
    std::sort(p.windows.begin(), p.windows.end(),
              [](const IdleWindow& a, const IdleWindow& b) {
                return a.start < b.start;
              });
    parts.push_back(std::move(p));
  }

  // Phase 1 (parallel): segment every transparent session on its real
  // controller; probe repair-capable instances for the retest decision.
  // Both are pure functions of (chip, plan) — deterministic.
  common::parallel_shards(
      options_.jobs, static_cast<int>(parts.size()), [&](int pi) {
        common::throw_if_cancelled(options_.cancel);
        auto& p = parts[static_cast<std::size_t>(pi)];
        p.plan =
            segment_transparent(algs[p.assign_index], p.instance->geometry,
                                p.assignment->controller, options_.max_cycles);
        p.needs_retest =
            probe_needs_retest(*p.instance, algs[p.assign_index], options_);
      });

  // Phase 2 (serial): deterministic event-driven packing of segment bursts
  // into idle windows under bus, power and controller-seat constraints.
  std::vector<std::size_t> by_name(parts.size());
  std::iota(by_name.begin(), by_name.end(), std::size_t{0});
  std::sort(by_name.begin(), by_name.end(), [&](std::size_t a, std::size_t b) {
    return parts[a].assignment->memory < parts[b].assignment->memory;
  });

  struct ActiveBurst {
    std::size_t part = 0;
    std::uint64_t end = 0;
  };
  std::vector<ActiveBurst> active;
  std::set<std::string> busy_groups;
  double power_in_use = 0.0;
  const double power_budget = plan.power().budget;
  std::uint64_t lanes = 0;

  std::vector<std::vector<PassExec>> pass_exec(parts.size());
  std::vector<FieldSession> sessions;

  std::uint64_t now = 0;
  while (true) {
    // Retire bursts ending now: free their resources; a burst that
    // consumed the last segment completes the pass.
    for (std::size_t i = active.size(); i-- > 0;) {
      if (active[i].end > now) continue;
      auto& p = parts[active[i].part];
      p.active = false;
      power_in_use -= p.weight;
      --lanes;
      if (!p.assignment->share_group.empty())
        busy_groups.erase(p.assignment->share_group);
      if (p.seg == p.plan.segments.size()) {
        p.completions.push_back(active[i].end);
        pass_exec[active[i].part].back().completed = true;
        pass_exec[active[i].part].back().complete_cycle = active[i].end;
        ++p.pass;
        p.seg = 0;
        if (!options_.repeat_passes &&
            p.pass >= 1 + (p.needs_retest ? 1 : 0))
          p.finished = true;
      }
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }

    // Start bursts in instance-name order.  A burst runs as many
    // consecutive segments as fit before the window closes; re-entry pays
    // the program reload.
    for (const auto pi : by_name) {
      auto& p = parts[pi];
      p.blocked = false;
      p.blocked_by_bus = false;
      if (p.finished || p.active) continue;
      while (p.win < p.windows.size() && p.windows[p.win].end <= now) ++p.win;
      if (p.win == p.windows.size()) {
        p.finished = true;
        continue;
      }
      const auto& w = p.windows[p.win];
      if (w.start > now) continue;
      const std::uint64_t avail = w.end - now;
      const auto& segs = p.plan.segments;
      std::uint64_t burst = p.plan.reload_cycles + segs[p.seg].cycles;
      if (burst > avail) continue;  // window remainder too short to resume
      const auto& group = p.assignment->share_group;
      const bool bus_full = lanes >= profile.bus_budget;
      const bool group_busy = !group.empty() && busy_groups.count(group) != 0;
      const bool power_full = power_budget > 0.0 &&
                              power_in_use + p.weight > power_budget + 1e-9;
      if (bus_full || group_busy || power_full) {
        p.blocked = true;
        p.blocked_by_bus = bus_full;
        continue;
      }
      std::size_t seg_end = p.seg + 1;
      while (seg_end < segs.size() &&
             burst + segs[seg_end].cycles <= avail) {
        burst += segs[seg_end].cycles;
        ++seg_end;
      }
      const bool retest = p.needs_retest && p.pass == 1;
      if (p.seg == 0)
        pass_exec[pi].push_back(PassExec{p.pass, retest, 0, false, 0});
      pass_exec[pi].back().op_end = segs[seg_end - 1].op_end;
      sessions.push_back(FieldSession{p.assignment->memory, p.pass, retest,
                                      p.seg, seg_end, p.plan.reload_cycles,
                                      now, now + burst});
      p.seg = seg_end;
      p.active = true;
      p.busy += burst;
      active.push_back({pi, now + burst});
      power_in_use += p.weight;
      ++lanes;
      if (!group.empty()) busy_groups.insert(group);
    }
    report.peak_power = std::max(report.peak_power, power_in_use);

    // Advance to the next event: a burst retiring, a window opening or
    // closing.  No event and nothing active = the horizon has drained.
    std::uint64_t next = kNoEvent;
    for (const auto& a : active) next = std::min(next, a.end);
    for (const auto& p : parts) {
      if (p.finished || p.active || p.win == p.windows.size()) continue;
      const auto& w = p.windows[p.win];
      next = std::min(next, now < w.start ? w.start : w.end);
    }
    if (next == kNoEvent) break;

    // Contention stalls: in-window instances whose next segment fits but
    // that a shared resource keeps idle, until the next event.
    for (auto& p : parts) {
      if (!p.blocked) continue;
      const auto delta = next - now;
      p.stall += delta;
      if (p.blocked_by_bus) report.bus_stall_cycles += delta;
    }
    now = next;
  }

  // Phase 3 (parallel): execute the planned bursts.  Each participant's
  // verdicts depend only on (program, geometry, faults, seed, pass plan).
  std::atomic<int> done{0};
  common::parallel_shards(
      options_.jobs, static_cast<int>(parts.size()), [&](int pi) {
        common::throw_if_cancelled(options_.cancel);
        const auto& p = parts[static_cast<std::size_t>(pi)];
        execute_participant(p, algs[p.assign_index],
                            pass_exec[static_cast<std::size_t>(pi)], options_,
                            report.instances[p.assign_index]);
        if (options_.progress)
          options_.progress(done.fetch_add(1) + 1,
                            static_cast<int>(parts.size()));
      });

  // Metrics.
  std::uint64_t avail_total = 0;
  std::uint64_t busy_total = 0;
  for (const auto& p : parts) {
    auto& out = report.instances[p.assign_index];
    out.stall_cycles = p.stall;
    out.busy_cycles = p.busy;
    for (const auto& w : p.windows) avail_total += w.width();
    busy_total += p.busy;
    if (p.completions.empty()) {
      out.first_pass_cycle = horizon;
      out.staleness_cycles = horizon;
    } else {
      out.first_pass_cycle = p.completions.front();
      std::uint64_t worst = p.completions.front();
      for (std::size_t i = 0; i + 1 < p.completions.size(); ++i)
        worst = std::max(worst, p.completions[i + 1] - p.completions[i]);
      worst = std::max(worst, horizon - p.completions.back());
      out.staleness_cycles = worst;
    }
  }
  report.window_utilization =
      avail_total == 0
          ? 0.0
          : static_cast<double>(busy_total) / static_cast<double>(avail_total);

  std::sort(sessions.begin(), sessions.end(),
            [](const FieldSession& a, const FieldSession& b) {
              if (a.start_cycle != b.start_cycle)
                return a.start_cycle < b.start_cycle;
              return a.memory < b.memory;
            });
  report.sessions = std::move(sessions);

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

FieldReport run_field(const soc::SocDescription& chip,
                      const soc::TestPlan& plan,
                      const MissionProfile& profile,
                      const FieldOptions& options) {
  return FieldManager{options}.run(chip, plan, profile);
}

std::string format_field_report(const FieldReport& report) {
  std::string out;
  char line[256];
  auto emit = [&out, &line] { out += line; };

  std::snprintf(
      line, sizeof line,
      "chip '%s', profile '%s': horizon %llu cycles, bus budget %llu\n\n",
      report.chip.c_str(), report.profile.c_str(),
      static_cast<unsigned long long>(report.horizon),
      static_cast<unsigned long long>(report.bus_budget));
  emit();
  std::snprintf(line, sizeof line, "%-12s %4s %6s %10s %10s %9s %s\n",
                "memory", "pass", "segs", "start", "end", "reload", "kind");
  emit();
  for (const auto& s : report.sessions) {
    std::snprintf(line, sizeof line, "%-12s %4d %3zu-%-3zu %10llu %10llu %9llu %s\n",
                  s.memory.c_str(), s.pass, s.segment_begin, s.segment_end,
                  static_cast<unsigned long long>(s.start_cycle),
                  static_cast<unsigned long long>(s.end_cycle),
                  static_cast<unsigned long long>(s.reload_cycles),
                  s.retest ? "retest" : "test");
    emit();
  }
  std::snprintf(line, sizeof line,
                "\nwindow utilization %.1f%%, bus stalls %llu cycles, "
                "peak power %g\n\n",
                100.0 * report.window_utilization,
                static_cast<unsigned long long>(report.bus_stall_cycles),
                report.peak_power);
  emit();
  for (const auto& r : report.instances) {
    std::string note;
    if (r.repair) {
      if (!r.repair->repairable) {
        note = "  (unrepairable)";
      } else if (r.repair->retest_passed) {
        note = "  (repaired; retest clean)";
      } else {
        note = "  (repaired but retest failed)";
      }
    }
    std::snprintf(line, sizeof line,
                  "  %-12s %s  passes=%d first=%llu staleness=%llu "
                  "stall=%llu%s\n",
                  r.memory.c_str(), r.healthy() ? "HEALTHY" : "FAULTY ",
                  r.completed_passes(),
                  static_cast<unsigned long long>(r.first_pass_cycle),
                  static_cast<unsigned long long>(r.staleness_cycles),
                  static_cast<unsigned long long>(r.stall_cycles),
                  note.c_str());
    emit();
  }
  std::snprintf(line, sizeof line,
                "\nchip %s: %d/%zu memories healthy in the field\n",
                report.all_healthy() ? "PASS" : "FAIL", report.healthy_count(),
                report.instances.size());
  emit();
  return out;
}

}  // namespace pmbist::field
