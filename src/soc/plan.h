#pragma once
// SoC test plan: which algorithm runs on which memory, on which kind of
// controller, under which chip-level constraints.
//
// Two constraint families shape the schedule (scheduler.h):
//
//   * controller sharing — instances assigned to the same `share_group`
//     serialize on one shared programmable controller; the controller's
//     program is re-loaded per memory (mbist_ucode::assemble /
//     mbist_pfsm::compile output through the scan/buffer load path), and
//     the reload cycles are charged to each session.  Sharing requires a
//     programmable controller kind — a hardwired controller is one fixed
//     algorithm and cannot be retargeted.
//   * power — each active session toggles word lines, bit lines and
//     address lines every cycle; its toggle weight defaults to
//     word_bits + address_bits (overridable per assignment).  The sum of
//     weights of concurrently scheduled sessions never exceeds the
//     chip-level budget (0 = unconstrained).

#include <string>
#include <vector>

#include "march/march.h"
#include "soc/description.h"

namespace pmbist::soc {

/// Which controller architecture drives a session.
enum class ControllerKind : std::uint8_t { Ucode, Pfsm, Hardwired };

[[nodiscard]] std::string_view to_string(ControllerKind kind);
/// Parses "ucode" / "pfsm" / "hardwired".  Throws SocError otherwise.
[[nodiscard]] ControllerKind controller_kind_by_name(std::string_view name);

/// One per-instance test assignment.
struct TestAssignment {
  std::string memory;     ///< instance name in the SocDescription
  std::string algorithm;  ///< library name or DSL text
  ControllerKind controller = ControllerKind::Ucode;
  std::string share_group;   ///< empty = dedicated controller
  double power_weight = 0.0;  ///< 0 = PowerModel::default_weight(geometry)

  friend bool operator==(const TestAssignment&,
                         const TestAssignment&) = default;
};

/// Chip-level power model for the scheduler.
struct PowerModel {
  /// Maximum summed toggle weight of concurrently active sessions;
  /// 0 = unconstrained.
  double budget = 0.0;

  /// Derive per-session toggle weights from the netlist area model
  /// (calibrated_weight) instead of the word+address-bits heuristic.
  /// Chip files select this with `power_model calibrated`.
  bool calibrated = false;

  /// Heuristic toggle weight of an active instance: one word's data bits
  /// plus the address lines switch every test cycle.
  [[nodiscard]] static double default_weight(
      const memsim::MemoryGeometry& g) noexcept {
    return static_cast<double>(g.word_bits + g.address_bits);
  }

  /// Area-calibrated toggle weight: gate equivalents of the BIST datapath
  /// built for this geometry (bist::datapath_inventory under the cmos5s
  /// library), normalized so the reference bit-oriented 1K geometry keeps
  /// its heuristic weight — larger datapaths toggle proportionally more
  /// logic per cycle.  Deterministic, and serialized losslessly by
  /// schedule_io, so calibrated schedules re-certify byte-exactly.
  [[nodiscard]] static double calibrated_weight(const memsim::MemoryGeometry& g);

  /// The active weight function (heuristic or calibrated).
  [[nodiscard]] double weight(const memsim::MemoryGeometry& g) const {
    return calibrated ? calibrated_weight(g) : default_weight(g);
  }

  friend bool operator==(const PowerModel&, const PowerModel&) = default;
};

/// The full plan: assignments + power model.
class TestPlan {
 public:
  /// Appends an assignment.  Throws SocError if the memory already has one.
  TestPlan& assign(TestAssignment assignment);

  [[nodiscard]] const std::vector<TestAssignment>& assignments()
      const noexcept {
    return assignments_;
  }
  [[nodiscard]] const PowerModel& power() const noexcept { return power_; }
  void set_power_budget(double budget) { power_.budget = budget; }
  void set_power_calibrated(bool calibrated) {
    power_.calibrated = calibrated;
  }

  /// Effective toggle weight of one assignment against its instance.
  [[nodiscard]] double effective_weight(const TestAssignment& a,
                                        const MemoryInstance& m) const;

  /// Full static validation against a chip: every assignment names an
  /// existing memory, algorithms resolve and are structurally valid, pFSM
  /// assignments are SM-mappable, share groups contain no hardwired
  /// controllers, and a positive budget admits every single session.
  /// Throws SocError naming the offending assignment.
  void validate(const SocDescription& chip) const;

  friend bool operator==(const TestPlan&, const TestPlan&) = default;

 private:
  std::vector<TestAssignment> assignments_;
  PowerModel power_;
};

/// The matching plan for demo_soc(): two shared programmable controllers
/// (ucode for the CPU caches, pFSM for the DSP scratchpads), dedicated
/// controllers elsewhere, and a budget tight enough to force scheduling
/// decisions.
[[nodiscard]] TestPlan demo_plan();

}  // namespace pmbist::soc
