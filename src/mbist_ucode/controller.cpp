#include "mbist_ucode/controller.h"

namespace pmbist::mbist_ucode {

MicrocodeController::MicrocodeController(const ControllerConfig& config)
    : config_{config},
      addr_{config.geometry.address_bits},
      data_{config.geometry.word_bits},
      port_{march::checked_num_ports(config.geometry)} {
  reset();
}

void MicrocodeController::load(MicrocodeProgram program) {
  if (program.size() > config_.storage_depth)
    throw AssembleError("program '" + program.name() + "' needs " +
                        std::to_string(program.size()) +
                        " instructions but the storage unit holds " +
                        std::to_string(config_.storage_depth));
  program_ = std::move(program);
  reset();
}

void MicrocodeController::load_algorithm(const march::MarchAlgorithm& alg,
                                         const AssembleOptions& options) {
  AssembleResult r = assemble(alg, options);
  if (r.pause_ns != 0) config_.pause_ns = r.pause_ns;
  load(std::move(r.program));
}

MicrocodeProgram MicrocodeController::default_program() {
  return assemble(march::march_c()).program;
}

void MicrocodeController::initialize(InitSelect select,
                                     const MicrocodeProgram* custom) {
  switch (select) {
    case InitSelect::Hold:
      reset();
      break;
    case InitSelect::DefaultProgram:
      load(default_program());
      break;
    case InitSelect::CustomProgram:
      if (custom == nullptr)
        throw AssembleError(
            "CustomProgram initialization requires a program image");
      load(*custom);
      break;
  }
}

std::uint64_t MicrocodeController::load_scan(
    const std::vector<std::uint16_t>& image, std::string name) {
  load(MicrocodeProgram::from_image(std::move(name), image));
  return static_cast<std::uint64_t>(image.size()) * kInstructionBits;
}

void MicrocodeController::reset() {
  ic_ = 0;
  branch_ = 0;
  repeat_ = false;
  aux_order_ = aux_data_ = aux_cmp_ = false;
  fresh_element_ = true;
  pause_done_ = false;
  addr_.init(march::AddressOrder::Up);
  data_.reset();
  port_.reset();
  done_ = program_.empty();
}

std::optional<march::MemOp> MicrocodeController::step() {
  // The memory operation issued this cycle.  Every path returns `op`, so
  // it is built in place in the caller's return slot.
  std::optional<march::MemOp> op;
  if (done_) return op;
  if (ic_ >= program_.size()) {
    // Instruction-address exhaustion ends the test (paper, Sec. 2.1).
    done_ = true;
    return op;
  }

  const Instruction& instr = program_.instructions()[
      static_cast<std::size_t>(ic_)];

  // Element entry: (re)initialize the address generator in the effective
  // direction before the first operation of the element.
  const bool effective_down = instr.addr_down ^ aux_order_;
  const bool is_op_flow = instr.flow == Flow::Next ||
                          instr.flow == Flow::LoopCell ||
                          instr.flow == Flow::LoopSelf;
  if (is_op_flow && fresh_element_) {
    addr_.init(effective_down ? march::AddressOrder::Down
                              : march::AddressOrder::Up);
    fresh_element_ = false;
  }

  const std::uint32_t out = kDecoderTable[decode_minterm(
      instr.flow, DecodeInputs{.addr_inc = instr.addr_inc,
                               .last_addr = addr_.at_last(),
                               .last_data = data_.at_last(),
                               .last_port = port_.at_last(),
                               .repeat_bit = repeat_,
                               .pause_done = pause_done_})];

  if (is_op_flow) {
    if (instr.rw == Rw::Read) {
      op = march::MemOp::read(port_.current(), addr_.current(),
                              data_.data_for(instr.cmp_inv ^ aux_cmp_));
    } else if (instr.rw == Rw::Write) {
      op = march::MemOp::write(port_.current(), addr_.current(),
                               data_.data_for(instr.data_inv ^ aux_data_));
    }
  } else if (out & kDecPauseStart) {
    op = march::MemOp::pause(config_.pause_ns);
    pause_done_ = true;  // timer modeled as expiring before the next cycle
  }

  // Register updates at the clock edge.
  if (out & kDecRefLoad) {
    aux_order_ = instr.addr_down;
    aux_data_ = instr.data_inv;
    aux_cmp_ = instr.cmp_inv;
  }
  if (out & kDecRepeatSet) repeat_ = true;
  if (out & kDecRepeatClear) {
    repeat_ = false;
    aux_order_ = aux_data_ = aux_cmp_ = false;  // reference register cleared
  }
  if (out & kDecBranchSave) branch_ = ic_ + 1;
  if (out & kDecAddrStep) addr_.step();
  if (out & kDecAddrInit) fresh_element_ = true;
  if (out & kDecDataInc) data_.next();
  if (out & kDecDataReset) data_.reset();
  if (out & kDecPortInc) port_.next();

  if (out & kDecTerminate) {
    done_ = true;
  } else if (out & kDecIcLoadBranch) {
    ic_ = branch_;
  } else if (out & kDecIcReset0) {
    // Forced IC loads also load the branch register, so the first element
    // of the restarted pass loops correctly.
    ic_ = 0;
    branch_ = 0;
  } else if (out & kDecIcReset1) {
    ic_ = 1;
    branch_ = 1;
  } else if (out & kDecIcInc) {
    ++ic_;
    if (instr.flow == Flow::Pause) pause_done_ = false;  // re-arm the timer
  }

  return op;
}

}  // namespace pmbist::mbist_ucode
