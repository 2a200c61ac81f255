#pragma once
// Cycle-accurate behavioral model of the programmable FSM-based memory
// BIST controller (paper Figs. 3-4): an upper-level circular instruction
// buffer feeding a parameterized 7-state lower controller (Idle, Reset,
// four R/W states, Done).
//
// Cycle model: each component instruction costs one Reset cycle, one cycle
// per memory operation, and one Done cycle (plus the pause when hold_after
// is set); loop-control instructions cost one cycle.  This overhead is what
// makes the pFSM slightly slower than the microcode controller on the same
// algorithm — see bench_test_time.
//
// load() resolves each buffer entry's SM component (component_set()) once,
// so the per-cycle Op state indexes the component's ops directly.

#include <span>

#include "bist/controller.h"
#include "bist/datapath.h"
#include "march/library.h"
#include "mbist_pfsm/compiler.h"
#include "mbist_pfsm/components.h"

namespace pmbist::mbist_pfsm {

struct PfsmConfig {
  memsim::MemoryGeometry geometry{};
  /// Circular-buffer depth; load() rejects larger programs.
  int buffer_depth = 16;
  /// Pause duration while held in Done (simulated ns).
  std::uint64_t pause_ns = march::kDefaultPauseNs;
};

class PfsmController final : public bist::Controller {
 public:
  explicit PfsmController(const PfsmConfig& config);

  /// Loads the circular buffer.  Throws CompileError if the program does
  /// not fit.
  void load(PfsmProgram program);
  /// Convenience: compile + configure pause + load.  Throws CompileError if
  /// the algorithm does not map onto SM0..SM7.
  void load_algorithm(const march::MarchAlgorithm& alg);

  [[nodiscard]] std::string name() const override {
    return "programmable FSM-based";
  }
  void reset() override;
  [[nodiscard]] bool done() const override { return phase_ == Phase::TestEnd; }
  std::optional<march::MemOp> step() override;

  [[nodiscard]] const PfsmProgram& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const PfsmConfig& config() const noexcept { return config_; }

  /// Shift cycles a serial load of the current buffer contents costs — the
  /// per-memory re-program price a shared controller pays (soc scheduler).
  [[nodiscard]] std::uint64_t program_load_cycles() const noexcept {
    return program_.instructions().size() *
           static_cast<std::uint64_t>(kPfsmInstructionBits);
  }

  // Introspection for white-box tests.
  enum class Phase : std::uint8_t { Idle, Reset, Op, Done, TestEnd };
  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] int instruction_index() const noexcept { return pc_; }

 private:
  [[nodiscard]] const PfsmInstruction& current() const {
    return program_.instructions()[static_cast<std::size_t>(pc_)];
  }
  void advance_instruction();

  PfsmConfig config_;
  PfsmProgram program_;
  /// Per buffer entry: the ops of its SM component (empty for loop-control
  /// instructions).
  std::vector<std::span<const ComponentOp>> component_ops_;

  bist::AddressGenerator addr_;
  bist::DataGenerator data_;
  bist::PortSequencer port_;

  Phase phase_ = Phase::Idle;
  int pc_ = 0;       ///< rotation position of the circular buffer
  int op_idx_ = 0;   ///< which R/W state of the lower controller is active
  bool pause_emitted_ = false;
};

}  // namespace pmbist::mbist_pfsm
