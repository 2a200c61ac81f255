#include "mbist_pfsm/controller.h"

namespace pmbist::mbist_pfsm {

PfsmController::PfsmController(const PfsmConfig& config)
    : config_{config},
      addr_{config.geometry.address_bits},
      data_{config.geometry.word_bits},
      port_{march::checked_num_ports(config.geometry)} {
  reset();
}

void PfsmController::load(PfsmProgram program) {
  if (program.size() > config_.buffer_depth)
    throw CompileError("program '" + program.name() + "' needs " +
                       std::to_string(program.size()) +
                       " instructions but the buffer holds " +
                       std::to_string(config_.buffer_depth));
  program_ = std::move(program);
  component_ops_.clear();
  for (const auto& instr : program_.instructions()) {
    if (instr.ctrl)
      component_ops_.emplace_back();
    else
      component_ops_.emplace_back(component_set().at(instr.mode).ops);
  }
  reset();
}

void PfsmController::load_algorithm(const march::MarchAlgorithm& alg) {
  CompileResult r = compile(alg);
  if (r.pause_ns != 0) config_.pause_ns = r.pause_ns;
  load(std::move(r.program));
}

void PfsmController::reset() {
  pc_ = 0;
  op_idx_ = 0;
  pause_emitted_ = false;
  addr_.init(march::AddressOrder::Up);
  data_.reset();
  port_.reset();
  phase_ = program_.empty() ? Phase::TestEnd : Phase::Idle;
}

void PfsmController::advance_instruction() {
  pause_emitted_ = false;
  ++pc_;
  if (pc_ >= program_.size()) {
    // Circular buffer wrapped without a port-loop terminating the test —
    // treat as test end (defensive; compiled programs always end with the
    // port-loop instruction).
    phase_ = Phase::TestEnd;
    return;
  }
  phase_ = Phase::Reset;
}

std::optional<march::MemOp> PfsmController::step() {
  // Every path returns `op`, so it is built in place in the caller's
  // return slot.
  std::optional<march::MemOp> op;
  switch (phase_) {
    case Phase::TestEnd:
      break;

    case Phase::Idle:
      phase_ = Phase::Reset;
      break;

    case Phase::Reset: {
      const PfsmInstruction& instr = current();
      if (instr.ctrl) {
        // Loop-control instructions bypass the lower controller.
        if (!instr.ctrl_op) {  // data-background loop (path A)
          if (!data_.at_last()) {
            data_.next();
            pc_ = 0;
            pause_emitted_ = false;
            phase_ = Phase::Reset;
          } else {
            data_.reset();
            advance_instruction();
          }
        } else {  // port loop / test end (path B)
          if (!port_.at_last()) {
            port_.next();
            data_.reset();
            pc_ = 0;
            pause_emitted_ = false;
            phase_ = Phase::Reset;
          } else {
            phase_ = Phase::TestEnd;
          }
        }
        break;
      }
      addr_.init(instr.addr_down ? march::AddressOrder::Down
                                 : march::AddressOrder::Up);
      op_idx_ = 0;
      phase_ = Phase::Op;
      break;
    }

    case Phase::Op: {
      const PfsmInstruction& instr = current();
      const auto ops = component_ops_[static_cast<std::size_t>(pc_)];
      const ComponentOp& cop = ops[static_cast<std::size_t>(op_idx_)];

      if (cop.is_read) {
        op = march::MemOp::read(port_.current(), addr_.current(),
                                data_.data_for(instr.cmp_inv != cop.inverted));
      } else {
        op = march::MemOp::write(
            port_.current(), addr_.current(),
            data_.data_for(instr.data_inv != cop.inverted));
      }

      const bool last_op = op_idx_ == static_cast<int>(ops.size()) - 1;
      if (!last_op) {
        ++op_idx_;
      } else if (!addr_.at_last()) {
        addr_.step();
        op_idx_ = 0;
      } else {
        phase_ = Phase::Done;
      }
      break;
    }

    case Phase::Done: {
      const PfsmInstruction& instr = current();
      if (instr.hold_after && !pause_emitted_) {
        pause_emitted_ = true;
        op = march::MemOp::pause(config_.pause_ns);
      } else {
        advance_instruction();
      }
      break;
    }
  }
  return op;
}

}  // namespace pmbist::mbist_pfsm
