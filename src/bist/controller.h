#pragma once
// Common interface of all cycle-accurate BIST controllers.
//
// A controller is a clocked machine: each step() models one functional
// clock cycle and yields at most one memory operation (or a pause event).
// Controllers never branch on read data — march test flow is data
// independent; the comparator only latches pass/fail — so step() takes no
// response and a controller's op stream is a pure function of its program
// and the memory geometry.  That property is what the equivalence tests
// exploit: collect_ops(controller) must equal march::expand(algorithm).

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "march/expand.h"

namespace pmbist::bist {

/// Cycle-accurate BIST controller.
class Controller {
 public:
  virtual ~Controller() = default;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Human-readable designation ("microcode-based", "March C hardwired"...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns to the power-on state (instruction counter / FSM state reset,
  /// datapath cleared).  The loaded program is retained.
  virtual void reset() = 0;

  /// True once the test has terminated.
  [[nodiscard]] virtual bool done() const = 0;

  /// Advances one clock cycle.  Returns the memory operation issued this
  /// cycle, or nullopt for overhead cycles (state transitions, setup).
  virtual std::optional<march::MemOp> step() = 0;

 protected:
  Controller() = default;
};

/// The error a driver throws when `controller` runs past its cycle bound —
/// a controller that never terminates is a bug.  One text for every
/// driver: collect_ops, count_cycles and the SoC scheduler's sessions.
[[nodiscard]] std::runtime_error cycle_bound_error(
    const Controller& controller);

/// Runs a controller to completion (bounded by `max_cycles`) and collects
/// the full op stream it issues.  Throws cycle_bound_error if the bound is
/// hit.
[[nodiscard]] march::OpStream collect_ops(Controller& controller,
                                          std::uint64_t max_cycles);

/// Cycle count of a full run (overhead cycles included), without a memory:
/// the exact session duration the SoC scheduler's compute_schedule(), the
/// certifier (lint/certify.h) and the in-field segmenter (field/segment.h)
/// work from.  Throws like collect_ops on runaway controllers.
[[nodiscard]] std::uint64_t count_cycles(Controller& controller,
                                         std::uint64_t max_cycles);

}  // namespace pmbist::bist
