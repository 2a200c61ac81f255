#pragma once
// Cycle-accurate behavioral model of a hardwired BIST controller: it
// interprets the generated Moore FSM (generator.h) against the shared
// datapath, one state per cycle.  Because the same FSM is what the area
// model synthesizes, simulated behaviour and reported overhead are
// guaranteed to describe the same machine.  At construction the FSM is
// tabulated — MooreFsm::step for every state x input word, and each
// state's outputs — so a cycle costs two table lookups instead of an arc
// scan.

#include "bist/controller.h"
#include "bist/datapath.h"
#include "march/library.h"
#include "mbist_hardwired/generator.h"

namespace pmbist::mbist_hardwired {

struct HardwiredConfig {
  memsim::MemoryGeometry geometry{};
  std::uint64_t pause_ns = march::kDefaultPauseNs;
};

class HardwiredController final : public bist::Controller {
 public:
  /// Builds the controller for one fixed algorithm (that is the point of a
  /// non-programmable controller).  Loop-back features derive from the
  /// geometry.
  HardwiredController(const march::MarchAlgorithm& alg,
                      const HardwiredConfig& config);

  [[nodiscard]] std::string name() const override {
    return "hardwired " + algorithm_name_;
  }
  void reset() override;
  [[nodiscard]] bool done() const override { return done_; }
  std::optional<march::MemOp> step() override;

  [[nodiscard]] const netlist::MooreFsm& fsm() const noexcept { return fsm_; }
  /// Tabulated next state: equals fsm().step(state, inputs) for every
  /// state and every kNumFsmInputs-bit input word.
  [[nodiscard]] int next_state(int state, std::uint32_t inputs) const {
    return next_[(static_cast<std::size_t>(state) << kNumFsmInputs) | inputs];
  }

 private:
  std::string algorithm_name_;
  HardwiredConfig config_;
  netlist::MooreFsm fsm_;
  std::vector<std::uint32_t> outputs_;  ///< per state
  std::vector<int> next_;  ///< [state << kNumFsmInputs | inputs]

  bist::AddressGenerator addr_;
  bist::DataGenerator data_;
  bist::PortSequencer port_;

  int state_ = 0;
  bool pause_done_ = false;
  bool done_ = false;
};

}  // namespace pmbist::mbist_hardwired
