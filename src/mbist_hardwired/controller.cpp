#include "mbist_hardwired/controller.h"

#include <cassert>

namespace pmbist::mbist_hardwired {

HardwiredController::HardwiredController(const march::MarchAlgorithm& alg,
                                         const HardwiredConfig& config)
    : algorithm_name_{alg.name()},
      config_{config},
      fsm_{generate_fsm(alg,
                        HardwiredFeatures::for_geometry(config.geometry))},
      addr_{config.geometry.address_bits},
      data_{config.geometry.word_bits},
      port_{march::checked_num_ports(config.geometry)} {
  // Retention algorithms carry their pause duration in the elements.
  for (const auto& e : alg.elements())
    if (e.is_pause) config_.pause_ns = e.pause_ns;
  assert(fsm_.num_inputs() == kNumFsmInputs);
  constexpr std::uint32_t kInputWords = 1u << kNumFsmInputs;
  const auto states = static_cast<std::size_t>(fsm_.num_states());
  outputs_.reserve(states);
  next_.reserve(states * kInputWords);
  for (int state = 0; state < fsm_.num_states(); ++state) {
    outputs_.push_back(fsm_.outputs_of(state));
    for (std::uint32_t in = 0; in < kInputWords; ++in)
      next_.push_back(fsm_.step(state, in));
  }
  reset();
}

void HardwiredController::reset() {
  state_ = 0;  // Idle (reset state)
  pause_done_ = false;
  done_ = false;
  addr_.init(march::AddressOrder::Up);
  data_.reset();
  port_.reset();
}

std::optional<march::MemOp> HardwiredController::step() {
  // Memory operation / pause issued in this state.  Every path returns
  // `op`, so it is built in place in the caller's return slot.
  std::optional<march::MemOp> op;
  if (done_) return op;

  const std::uint32_t out = outputs_[static_cast<std::size_t>(state_)];
  if (out & kOutReadEn) {
    op = march::MemOp::read(port_.current(), addr_.current(),
                            data_.data_for(out & kOutDataVal));
  } else if (out & kOutWriteEn) {
    op = march::MemOp::write(port_.current(), addr_.current(),
                             data_.data_for(out & kOutDataVal));
  } else if ((out & kOutPauseStart) && !pause_done_) {
    op = march::MemOp::pause(config_.pause_ns);
    pause_done_ = true;  // timer modeled as expiring before the next cycle
  }

  // Sample the condition inputs.
  std::uint32_t in = kInStart;
  if (addr_.at_last()) in |= kInLastAddr;
  if (pause_done_) in |= kInPauseDone;
  if (data_.at_last()) in |= kInLastBg;
  if (port_.at_last()) in |= kInLastPort;

  const int next = next_state(state_, in);

  // Datapath side effects at the clock edge.
  if (out & kOutAddrInit)
    addr_.init((out & kOutAddrDirDown) ? march::AddressOrder::Down
                                       : march::AddressOrder::Up);
  if ((out & kOutAddrAdvance) && !addr_.at_last()) addr_.step();
  if (out & kOutBgInc) data_.next();
  if (out & kOutBgReset) data_.reset();
  if (out & kOutPortInc) port_.next();
  if ((out & kOutPauseStart) && next != state_) pause_done_ = false;

  state_ = next;
  if (outputs_[static_cast<std::size_t>(state_)] & kOutDone) done_ = true;
  return op;
}

}  // namespace pmbist::mbist_hardwired
