#pragma once
// SoC test scheduler: turns (chip, plan) into a parallel whole-chip test.
//
// Two-phase contract:
//
//   1. compute_schedule() — greedy-but-deterministic list scheduling.
//      Session durations are EXACT controller cycle counts (the controller
//      op stream is data-independent, so bist::count_cycles needs no
//      memory), plus the program-(re)load cost a programmable controller
//      pays per memory (MicrocodeController/PfsmController::
//      program_load_cycles).  Tasks are started longest-first (ties broken
//      by instance name) whenever (a) their share group is idle and (b) the
//      summed toggle weight of running sessions stays within the power
//      budget.  The schedule — start/end cycles, makespan, peak power — is
//      a pure function of (chip, plan): it never depends on --jobs or the
//      host machine.
//
//   2. run() — steps each controller once: it executes every first-pass
//      session via bist::run_session on the shared ThreadPool BEFORE
//      scheduling, and takes each duration from the session's own cycle
//      count — the number count_cycles gives, since a session's result
//      never depends on when it starts (the controller is reset, the memory
//      is fresh).  It then list-schedules exactly as compute_schedule()
//      does, so run().schedule == compute_schedule().  Sessions of one
//      share group run serially, in instance-name order, on one worker,
//      reusing one controller object and re-loading its program per
//      memory; dedicated sessions parallelize freely up to `jobs`.  A
//      session that hits max_cycles fails the run with
//      bist::cycle_bound_error — the error count_cycles throws — for the
//      first such assignment in plan order.  Each result is written into
//      its pre-sized slot, and each simulation depends only on (program,
//      geometry, faults, power-up seed) — so a SocResult is bit-identical
//      for any worker count, the same determinism contract as
//      march::run_campaign.  Instances with spare rows/columns that fail
//      get the full BISR leg: fail bitmap -> redundancy allocation ->
//      spare switch-in -> retest (folded retests run in scheduled order).
//
// docs/SOC.md documents the power model, the sharing rules and this
// scheduling contract.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "backend/backend.h"
#include "bist/session.h"
#include "repair/redundancy.h"
#include "soc/plan.h"

namespace pmbist::soc {

struct SchedulerOptions {
  /// Execution worker count: 0 = hardware concurrency, 1 = serial.
  /// Results are identical for every value.
  int jobs = 0;
  /// Per-session failure-log capacity.  Truncation caps the log (and what
  /// the repair bitmap can see), never the run.
  std::size_t max_failures = 1024;
  /// Runaway-controller bound per session.
  std::uint64_t max_cycles = 1'000'000'000;
  /// Memory-under-test backend.  Sim is the behavioral simulator (the only
  /// choice when the chip injects faults); HostRam runs every session
  /// against mmap'd host memory — run() throws SocError if any instance
  /// carries faults then.  Verdicts and schedules are identical across
  /// backends on a fault-free chip.
  backend::BackendKind backend = backend::BackendKind::Sim;
  /// Queue BISR retests as a second scheduling pass (sessions flagged
  /// `retest`, started after the first pass drains, under the same share
  /// group and power constraints) instead of an immediate same-seat rerun.
  /// Models repair time honestly; verdicts are identical either way.
  bool fold_retests = false;
  /// Optional cooperative cancellation flag (common/cancel.h): polled
  /// between instances; run() throws common::Cancelled once in-flight
  /// sessions drain.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional progress callback, invoked as (done, total) instance counts
  /// after each first-pass instance completes.  Called from worker threads
  /// (the callback must be thread-safe); carries counts only, so consumers
  /// stay order-independent of the worker count.
  std::function<void(int done, int total)> progress = nullptr;
};

/// One session in the modeled schedule.
struct ScheduledSession {
  std::string memory;
  std::string algorithm;
  ControllerKind controller = ControllerKind::Ucode;
  std::string share_group;
  double power_weight = 0.0;
  std::uint64_t load_cycles = 0;  ///< program (re)load before the test
  std::uint64_t test_cycles = 0;  ///< controller run, exact
  std::uint64_t start_cycle = 0;
  bool retest = false;  ///< post-repair second-pass session (fold_retests)

  [[nodiscard]] std::uint64_t duration() const noexcept {
    return load_cycles + test_cycles;
  }
  [[nodiscard]] std::uint64_t end_cycle() const noexcept {
    return start_cycle + duration();
  }
  friend bool operator==(const ScheduledSession&,
                         const ScheduledSession&) = default;
};

/// BISR outcome for an instance with redundancy that logged failures.
struct RepairOutcome {
  bool repairable = false;
  int spare_rows_used = 0;
  int spare_cols_used = 0;
  bool retest_passed = false;
  friend bool operator==(const RepairOutcome&, const RepairOutcome&) = default;
};

/// Test (+ repair) outcome of one instance.
struct InstanceResult {
  std::string memory;
  bist::SessionResult session;
  /// Engaged iff the instance has spare resources, a bit-oriented
  /// geometry, and the session logged failures.
  std::optional<RepairOutcome> repair;

  /// Healthy = passed outright, or repaired and retested clean.
  [[nodiscard]] bool healthy() const noexcept {
    return session.passed() || (repair && repair->retest_passed);
  }
  friend bool operator==(const InstanceResult&,
                         const InstanceResult&) = default;
};

/// Whole-chip outcome.  Everything except `wall_seconds` is deterministic
/// (operator== deliberately ignores wall time).
struct SocResult {
  std::vector<InstanceResult> instances;   ///< in plan-assignment order
  std::vector<ScheduledSession> schedule;  ///< by start cycle, then name
  std::uint64_t makespan_cycles = 0;       ///< modeled whole-chip test time
  double peak_power = 0.0;  ///< max summed toggle weight of a schedule instant
  double wall_seconds = 0.0;  ///< host execution time (not compared)

  [[nodiscard]] int healthy_count() const noexcept;
  [[nodiscard]] bool all_healthy() const noexcept {
    return healthy_count() == static_cast<int>(instances.size());
  }

  friend bool operator==(const SocResult& a, const SocResult& b) {
    return a.instances == b.instances && a.schedule == b.schedule &&
           a.makespan_cycles == b.makespan_cycles &&
           a.peak_power == b.peak_power;
  }
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {}) : options_{options} {}

  /// Phase 1 only: the modeled schedule, sorted by (start cycle, name).
  /// Validates (chip, plan); throws SocError on inconsistencies.
  [[nodiscard]] std::vector<ScheduledSession> compute_schedule(
      const SocDescription& chip, const TestPlan& plan) const;

  /// Phases 1+2: schedule, execute, repair.  Throws SocError on an invalid
  /// plan or a fault outside its instance's geometry.
  [[nodiscard]] SocResult run(const SocDescription& chip,
                              const TestPlan& plan) const;

  [[nodiscard]] const SchedulerOptions& options() const noexcept {
    return options_;
  }

 private:
  SchedulerOptions options_;
};

/// One-call front end.
[[nodiscard]] SocResult run_soc(const SocDescription& chip,
                                const TestPlan& plan,
                                const SchedulerOptions& options = {});

/// Canonical human-readable report of a whole-chip run: header, schedule
/// table, makespan/peak-power summary, per-instance verdicts, final
/// PASS/FAIL line.  Deliberately excludes wall_seconds, so the text is a
/// pure function of (chip, plan) — `pmbist soc` and the serve layer both
/// emit exactly this string, which is what pins serve responses
/// byte-identical to one-shot CLI runs.
[[nodiscard]] std::string format_soc_report(const SocDescription& chip,
                                            const TestPlan& plan,
                                            const SocResult& result);

/// Constructs the controller a plan assignment runs on, loaded with `alg`,
/// using the scheduler's shared storage sizing (microcode storage depth 64,
/// pFSM buffer depth 32).  Writes the program-load cost into `load_cycles`
/// when non-null (0 for hardwired).  Exposed for the in-field manager
/// (src/field), which segments the very same controllers' op streams.
[[nodiscard]] std::unique_ptr<bist::Controller> make_plan_controller(
    ControllerKind kind, const march::MarchAlgorithm& alg,
    const memsim::MemoryGeometry& geometry,
    std::uint64_t* load_cycles = nullptr);

/// Throws SocError naming the first instance that injects faults when
/// `kind` is HostRam: fault injection is a simulator concept, and a chip
/// that declares faults would silently "pass" on real memory.  Shared by
/// the scheduler and the in-field manager, which call it before any
/// session runs.
void check_backend_supports(const SocDescription& chip,
                            backend::BackendKind kind);

/// Fresh backing memory for one instance session: a FaultyMemory carrying
/// the instance's faults, or (HostRam) a host-RAM mapping seeded with the
/// simulator's power-up image, so passes that observe existing contents
/// (transparent in-field BIST) report the same on both backends.  Throws
/// SocError naming the instance.
[[nodiscard]] std::unique_ptr<memsim::Memory> make_instance_memory(
    const MemoryInstance& instance, backend::BackendKind kind);

}  // namespace pmbist::soc
