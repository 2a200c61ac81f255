#include "soc/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "backend/hostram_backend.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "diag/bitmap.h"
#include "march/library.h"
#include "mbist_hardwired/controller.h"
#include "mbist_pfsm/controller.h"
#include "mbist_ucode/controller.h"
#include "memsim/faulty_memory.h"
#include "repair/repaired_memory.h"

namespace pmbist::soc {
namespace {

/// Storage sizing of the shared programmable controllers: generous enough
/// for every library algorithm and reasonable DSL programs.
constexpr int kUcodeStorageDepth = 64;
constexpr int kPfsmBufferDepth = 32;

/// One shared-controller seat: keeps the last controller alive and, when
/// the next session matches its kind and geometry, re-programs it in place
/// instead of constructing a new one — the scan/buffer reload path a
/// shared programmable controller uses between memories.
struct ControllerSlot {
  std::unique_ptr<bist::Controller> controller;
  ControllerKind kind = ControllerKind::Hardwired;
  memsim::MemoryGeometry geometry{};
  std::uint64_t load_cycles = 0;  ///< program-load cost of the last prepare

  bist::Controller& prepare(ControllerKind k, const march::MarchAlgorithm& alg,
                            const memsim::MemoryGeometry& g) {
    if (controller && kind == k && geometry == g) {
      if (k == ControllerKind::Ucode) {
        auto& c = static_cast<mbist_ucode::MicrocodeController&>(*controller);
        c.load_algorithm(alg);
        load_cycles = c.program_load_cycles();
        return *controller;
      }
      if (k == ControllerKind::Pfsm) {
        auto& c = static_cast<mbist_pfsm::PfsmController&>(*controller);
        c.load_algorithm(alg);
        load_cycles = c.program_load_cycles();
        return *controller;
      }
    }
    controller = make_plan_controller(k, alg, g, &load_cycles);
    kind = k;
    geometry = g;
    return *controller;
  }
};

/// Per-assignment compiled task: resolved algorithm, instance and weight,
/// plus the cycle costs of whoever steps its controller —
/// compute_schedule() through bist::count_cycles, run() from the session.
struct Task {
  march::MarchAlgorithm alg;
  const MemoryInstance* mem = nullptr;
  double weight = 0.0;
  std::uint64_t load_cycles = 0;
  std::uint64_t test_cycles = 0;

  [[nodiscard]] std::uint64_t duration() const noexcept {
    return load_cycles + test_cycles;
  }
};

std::vector<Task> compile_plan(const SocDescription& chip,
                               const TestPlan& plan) {
  plan.validate(chip);
  const auto& assignments = plan.assignments();
  std::vector<Task> tasks(assignments.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].alg = march::resolve_algorithm(assignments[i].algorithm);
    tasks[i].mem = chip.find(assignments[i].memory);
    tasks[i].weight = plan.effective_weight(assignments[i], *tasks[i].mem);
  }
  return tasks;
}

/// Greedy list scheduling under share-group and power constraints.
/// Returns per-assignment start cycles.  Deterministic: priority is
/// (duration desc, name asc) and time advances through completion events.
/// Takes the assignment list explicitly so the retest pass can schedule a
/// subset of the plan through the same machinery.
std::vector<std::uint64_t> list_schedule(
    const std::vector<Task>& tasks,
    const std::vector<TestAssignment>& assignments, double budget) {
  const auto n = tasks.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks[a].duration() != tasks[b].duration())
      return tasks[a].duration() > tasks[b].duration();
    return assignments[a].memory < assignments[b].memory;
  });

  std::vector<std::uint64_t> start(n, 0);
  std::vector<bool> placed(n, false);
  struct Running {
    std::uint64_t end;
    std::size_t index;
  };
  std::vector<Running> running;
  std::set<std::string> busy_groups;
  double power_in_use = 0.0;
  std::uint64_t now = 0;
  std::size_t num_placed = 0;

  while (num_placed < n) {
    for (const auto idx : order) {
      if (placed[idx]) continue;
      const auto& group = assignments[idx].share_group;
      if (!group.empty() && busy_groups.count(group) != 0) continue;
      if (budget > 0.0 && power_in_use + tasks[idx].weight > budget + 1e-9)
        continue;
      start[idx] = now;
      placed[idx] = true;
      ++num_placed;
      running.push_back({now + tasks[idx].duration(), idx});
      power_in_use += tasks[idx].weight;
      if (!group.empty()) busy_groups.insert(group);
    }
    if (num_placed == n) break;
    // Progress is guaranteed: validate() rejects any single session whose
    // weight exceeds a positive budget, so something is always running.
    std::uint64_t next = running.front().end;
    for (const auto& r : running) next = std::min(next, r.end);
    now = next;
    for (std::size_t i = running.size(); i-- > 0;) {
      if (running[i].end > now) continue;
      const auto idx = running[i].index;
      power_in_use -= tasks[idx].weight;
      if (!assignments[idx].share_group.empty())
        busy_groups.erase(assignments[idx].share_group);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return start;
}

std::vector<ScheduledSession> make_sessions(
    const std::vector<Task>& tasks, const TestPlan& plan,
    const std::vector<std::uint64_t>& start) {
  const auto& assignments = plan.assignments();
  std::vector<ScheduledSession> sessions(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sessions[i] = ScheduledSession{.memory = assignments[i].memory,
                                   .algorithm = assignments[i].algorithm,
                                   .controller = assignments[i].controller,
                                   .share_group = assignments[i].share_group,
                                   .power_weight = tasks[i].weight,
                                   .load_cycles = tasks[i].load_cycles,
                                   .test_cycles = tasks[i].test_cycles,
                                   .start_cycle = start[i]};
  }
  return sessions;
}

void sort_for_display(std::vector<ScheduledSession>& sessions) {
  std::sort(sessions.begin(), sessions.end(),
            [](const ScheduledSession& a, const ScheduledSession& b) {
              if (a.start_cycle != b.start_cycle)
                return a.start_cycle < b.start_cycle;
              return a.memory < b.memory;
            });
}

double peak_power_of(const std::vector<ScheduledSession>& sessions) {
  double peak = 0.0;
  for (const auto& s : sessions) {
    double at_start = 0.0;
    for (const auto& other : sessions)
      if (other.start_cycle <= s.start_cycle &&
          s.start_cycle < other.end_cycle())
        at_start += other.power_weight;
    peak = std::max(peak, at_start);
  }
  return peak;
}

/// Repaired-but-not-yet-retested state carried from the first pass to the
/// folded retest pass (fold_retests).  The memory keeps the array state
/// the first session left behind; the retest runs through the spare
/// switch-in view exactly as the immediate retest would.
struct PendingRetest {
  std::unique_ptr<memsim::Memory> memory;
  memsim::ArrayTopology topology;
  repair::RepairSolution solution;
};

/// Runs one first-pass session (and, unless the retest is `deferred`, its
/// BISR leg) and records the session's exact cycle costs in `task`.
/// Throws bist::cycle_bound_error when the controller does not terminate
/// within options.max_cycles.
InstanceResult run_instance(const TestAssignment& assignment,
                            const MemoryInstance& instance, Task& task,
                            ControllerSlot& slot,
                            const SchedulerOptions& options,
                            std::unique_ptr<PendingRetest>* deferred) {
  auto& controller = slot.prepare(assignment.controller, task.alg,
                                  instance.geometry);
  auto memory = make_instance_memory(instance, options.backend);
  const bist::SessionOptions session_options{
      .max_cycles = options.max_cycles, .max_failures = options.max_failures};
  InstanceResult result{
      .memory = instance.name,
      .session =
          bist::run_session(controller, *memory, session_options),
      .repair = std::nullopt};
  if (!result.session.completed()) throw bist::cycle_bound_error(controller);
  task.load_cycles = slot.load_cycles;
  task.test_cycles = result.session.cycles;
  if (instance.repair.any() && instance.geometry.bit_oriented() &&
      !result.session.failures.empty()) {
    RepairOutcome outcome;
    diag::FailBitmap bitmap{instance.geometry};
    bitmap.accumulate(result.session.failures);
    const auto topology = instance.topology();
    const auto solution = repair::allocate_redundancy(
        bitmap, topology,
        {.spare_rows = instance.repair.spare_rows,
         .spare_cols = instance.repair.spare_cols});
    outcome.repairable = solution.repairable;
    if (solution.repairable) {
      outcome.spare_rows_used = static_cast<int>(solution.rows_replaced.size());
      outcome.spare_cols_used = static_cast<int>(solution.cols_replaced.size());
      if (deferred != nullptr) {
        *deferred = std::make_unique<PendingRetest>(
            PendingRetest{std::move(memory), topology, solution});
      } else {
        repair::RepairedMemory repaired{*memory, topology, solution};
        outcome.retest_passed =
            bist::run_session(controller, repaired, session_options).passed();
      }
    }
    result.repair = outcome;
  }
  return result;
}

/// Execution units: one per share group (members serialized in (start
/// cycle, name) order on one controller seat) and one per dedicated
/// session.  `indices[j]` names an assignment; `start[j]` is its start
/// cycle — all zero for the first pass, which runs before the schedule
/// exists, so group members run in name order.  The returned members are
/// assignment-index positions within `indices`.
struct Unit {
  std::uint64_t first_start = 0;
  std::string first_name;
  std::vector<std::size_t> members;
};

std::vector<Unit> group_units(const std::vector<TestAssignment>& assignments,
                              const std::vector<std::size_t>& indices,
                              const std::vector<std::uint64_t>& start) {
  std::vector<Unit> units;
  std::map<std::string, std::vector<std::size_t>> grouped;
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const auto& a = assignments[indices[j]];
    if (a.share_group.empty())
      units.push_back({start[j], a.memory, {j}});
    else
      grouped[a.share_group].push_back(j);
  }
  for (auto& [group, positions] : grouped) {
    std::sort(positions.begin(), positions.end(),
              [&](std::size_t x, std::size_t y) {
                if (start[x] != start[y]) return start[x] < start[y];
                return assignments[indices[x]].memory <
                       assignments[indices[y]].memory;
              });
    units.push_back({start[positions.front()],
                     assignments[indices[positions.front()]].memory,
                     std::move(positions)});
  }
  std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
    if (a.first_start != b.first_start) return a.first_start < b.first_start;
    return a.first_name < b.first_name;
  });
  return units;
}

}  // namespace

std::unique_ptr<bist::Controller> make_plan_controller(
    ControllerKind kind, const march::MarchAlgorithm& alg,
    const memsim::MemoryGeometry& geometry, std::uint64_t* load_cycles) {
  switch (kind) {
    case ControllerKind::Ucode: {
      auto c = std::make_unique<mbist_ucode::MicrocodeController>(
          mbist_ucode::ControllerConfig{.geometry = geometry,
                                        .storage_depth = kUcodeStorageDepth});
      c->load_algorithm(alg);
      if (load_cycles != nullptr) *load_cycles = c->program_load_cycles();
      return c;
    }
    case ControllerKind::Pfsm: {
      auto c = std::make_unique<mbist_pfsm::PfsmController>(
          mbist_pfsm::PfsmConfig{.geometry = geometry,
                                 .buffer_depth = kPfsmBufferDepth});
      c->load_algorithm(alg);
      if (load_cycles != nullptr) *load_cycles = c->program_load_cycles();
      return c;
    }
    case ControllerKind::Hardwired:
      if (load_cycles != nullptr) *load_cycles = 0;
      return std::make_unique<mbist_hardwired::HardwiredController>(
          alg, mbist_hardwired::HardwiredConfig{.geometry = geometry});
  }
  throw SocError{"unreachable controller kind"};
}

void check_backend_supports(const SocDescription& chip,
                            backend::BackendKind kind) {
  if (kind != backend::BackendKind::HostRam) return;
  for (const auto& m : chip.memories()) {
    if (!m.faults.empty()) {
      throw SocError{"instance '" + m.name +
                     "' injects faults; fault injection requires the sim "
                     "backend (--backend sim)"};
    }
  }
}

std::unique_ptr<memsim::Memory> make_instance_memory(
    const MemoryInstance& instance, backend::BackendKind kind) {
  try {
    if (kind == backend::BackendKind::Sim) {
      auto sim = std::make_unique<memsim::FaultyMemory>(instance.geometry,
                                                        instance.powerup_seed);
      for (const auto& fault : instance.faults) sim->add_fault(fault);
      return sim;
    }
    auto ram = std::make_unique<backend::HostRamBackend>(instance.geometry);
    const memsim::SramModel image{instance.geometry, instance.powerup_seed};
    const auto words = ram->words();
    for (std::size_t a = 0; a < words.size(); ++a)
      words[a] = image.peek(static_cast<memsim::Address>(a));
    return ram;
  } catch (const std::exception& e) {
    throw SocError{"instance '" + instance.name + "': " + e.what()};
  }
}

int SocResult::healthy_count() const noexcept {
  int healthy = 0;
  for (const auto& r : instances)
    if (r.healthy()) ++healthy;
  return healthy;
}

std::vector<ScheduledSession> Scheduler::compute_schedule(
    const SocDescription& chip, const TestPlan& plan) const {
  auto tasks = compile_plan(chip, plan);
  // Exact durations: each worker steps one controller to completion (no
  // memory involved — controller op streams are data-independent).
  common::parallel_shards(
      options_.jobs, static_cast<int>(tasks.size()), [&](int i) {
        const auto& a = plan.assignments()[static_cast<std::size_t>(i)];
        auto& t = tasks[static_cast<std::size_t>(i)];
        const auto ctrl = make_plan_controller(a.controller, t.alg,
                                               t.mem->geometry, &t.load_cycles);
        t.test_cycles = bist::count_cycles(*ctrl, options_.max_cycles);
      });
  auto sessions = make_sessions(
      tasks, plan,
      list_schedule(tasks, plan.assignments(), plan.power().budget));
  sort_for_display(sessions);
  return sessions;
}

SocResult Scheduler::run(const SocDescription& chip,
                         const TestPlan& plan) const {
  const auto t0 = std::chrono::steady_clock::now();
  check_backend_supports(chip, options_.backend);
  auto tasks = compile_plan(chip, plan);
  const auto& assignments = plan.assignments();
  const auto n = assignments.size();

  // First pass, before any scheduling: a session's result never depends on
  // when it starts (fresh memory, controller reset), and each session
  // yields its task's exact cycle costs — the same numbers
  // compute_schedule() gets from bist::count_cycles.  Errors are collected
  // per assignment and the first in plan order is rethrown, so the error a
  // run reports does not depend on the worker count.
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto units =
      group_units(assignments, all, std::vector<std::uint64_t>(n, 0));
  std::vector<InstanceResult> results(n);
  std::vector<std::unique_ptr<PendingRetest>> pending(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<int> done{0};
  common::parallel_shards(
      options_.jobs, static_cast<int>(units.size()), [&](int u) {
        ControllerSlot slot;
        for (const auto idx : units[static_cast<std::size_t>(u)].members) {
          common::throw_if_cancelled(options_.cancel);
          try {
            results[idx] = run_instance(
                assignments[idx], *tasks[idx].mem, tasks[idx], slot, options_,
                options_.fold_retests ? &pending[idx] : nullptr);
          } catch (const std::exception&) {
            errors[idx] = std::current_exception();
            continue;
          }
          if (options_.progress)
            options_.progress(done.fetch_add(1) + 1, static_cast<int>(n));
        }
      });
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  const auto start = list_schedule(tasks, assignments, plan.power().budget);

  SocResult out;
  out.schedule = make_sessions(tasks, plan, start);
  std::uint64_t first_pass_makespan = 0;
  for (const auto& s : out.schedule)
    first_pass_makespan = std::max(first_pass_makespan, s.end_cycle());

  if (options_.fold_retests) {
    // Second pass: every repaired instance goes back through the scheduler
    // (same share-group and power constraints), starting once the first
    // pass has drained.  The retest set is a deterministic function of
    // (chip, plan): it depends only on injected faults and repair
    // resources, never on worker count.
    std::vector<std::size_t> retest_idx;
    for (std::size_t i = 0; i < n; ++i)
      if (pending[i]) retest_idx.push_back(i);
    if (!retest_idx.empty()) {
      std::vector<Task> rtasks;
      std::vector<TestAssignment> rassign;
      for (const auto idx : retest_idx) {
        rtasks.push_back(tasks[idx]);
        rassign.push_back(assignments[idx]);
      }
      auto rstart = list_schedule(rtasks, rassign, plan.power().budget);
      for (auto& s : rstart) s += first_pass_makespan;
      std::vector<std::size_t> rall(retest_idx.size());
      std::iota(rall.begin(), rall.end(), std::size_t{0});
      const auto runits = group_units(rassign, rall, rstart);
      const bist::SessionOptions session_options{
          .max_cycles = options_.max_cycles,
          .max_failures = options_.max_failures};
      common::parallel_shards(
          options_.jobs, static_cast<int>(runits.size()), [&](int u) {
            ControllerSlot slot;
            for (const auto j : runits[static_cast<std::size_t>(u)].members) {
              common::throw_if_cancelled(options_.cancel);
              const auto idx = retest_idx[j];
              auto& p = *pending[idx];
              auto& controller =
                  slot.prepare(assignments[idx].controller, tasks[idx].alg,
                               tasks[idx].mem->geometry);
              repair::RepairedMemory repaired{*p.memory, p.topology,
                                              p.solution};
              results[idx].repair->retest_passed =
                  bist::run_session(controller, repaired, session_options)
                      .passed();
            }
          });
      for (std::size_t j = 0; j < retest_idx.size(); ++j) {
        ScheduledSession s{.memory = rassign[j].memory,
                           .algorithm = rassign[j].algorithm,
                           .controller = rassign[j].controller,
                           .share_group = rassign[j].share_group,
                           .power_weight = rtasks[j].weight,
                           .load_cycles = rtasks[j].load_cycles,
                           .test_cycles = rtasks[j].test_cycles,
                           .start_cycle = rstart[j],
                           .retest = true};
        out.schedule.push_back(std::move(s));
      }
    }
  }

  out.instances = std::move(results);
  for (const auto& s : out.schedule)
    out.makespan_cycles = std::max(out.makespan_cycles, s.end_cycle());
  out.peak_power = peak_power_of(out.schedule);
  sort_for_display(out.schedule);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

SocResult run_soc(const SocDescription& chip, const TestPlan& plan,
                  const SchedulerOptions& options) {
  return Scheduler{options}.run(chip, plan);
}

std::string format_soc_report(const SocDescription& chip,
                              const TestPlan& plan, const SocResult& result) {
  std::string out;
  char line[256];
  auto emit = [&out, &line] { out += line; };

  std::snprintf(line, sizeof line,
                "chip '%s': %zu memories, power budget %g\n\n",
                chip.name().c_str(), chip.memories().size(),
                plan.power().budget);
  emit();
  std::snprintf(line, sizeof line, "%-12s %-10s %-14s %10s %10s %6s %s\n",
                "memory", "ctrl", "algorithm", "start", "end", "weight",
                "group");
  emit();
  for (const auto& s : result.schedule) {
    std::snprintf(line, sizeof line, "%-12s %-10s %-14s %10llu %10llu %6g %s\n",
                  s.memory.c_str(),
                  std::string{to_string(s.controller)}.c_str(),
                  s.algorithm.c_str(),
                  static_cast<unsigned long long>(s.start_cycle),
                  static_cast<unsigned long long>(s.end_cycle()),
                  s.power_weight, s.share_group.c_str());
    emit();
  }
  std::snprintf(line, sizeof line, "\nmakespan %llu cycles, peak power %g\n\n",
                static_cast<unsigned long long>(result.makespan_cycles),
                result.peak_power);
  emit();
  for (const auto& r : result.instances) {
    std::string note;
    if (r.repair) {
      if (!r.repair->repairable) {
        note = "  (unrepairable)";
      } else if (r.repair->retest_passed) {
        note = "  (repaired: " + std::to_string(r.repair->spare_rows_used) +
               " spare rows, " + std::to_string(r.repair->spare_cols_used) +
               " spare cols; retest clean)";
      } else {
        note = "  (repaired but retest failed)";
      }
    }
    std::snprintf(line, sizeof line, "  %-12s %s  mismatches=%llu%s\n",
                  r.memory.c_str(), r.healthy() ? "HEALTHY" : "FAULTY ",
                  static_cast<unsigned long long>(r.session.mismatches),
                  note.c_str());
    emit();
  }
  std::snprintf(line, sizeof line, "\nchip %s: %d/%zu memories healthy\n",
                result.all_healthy() ? "PASS" : "FAIL", result.healthy_count(),
                result.instances.size());
  emit();
  return out;
}

}  // namespace pmbist::soc
