#include "bist/session.h"

namespace pmbist::bist {

SessionResult run_session(Controller& controller, memsim::Memory& memory,
                          const SessionOptions& options) {
  controller.reset();
  SessionResult result;
  std::size_t op_index = 0;
  while (!controller.done()) {
    if (result.cycles >= options.max_cycles) return result;  // incomplete
    ++result.cycles;
    const auto op = controller.step();
    if (!op) continue;
    switch (op->kind) {
      case march::MemOp::Kind::Pause:
        memory.advance_time_ns(op->pause_ns());
        ++result.pauses;
        break;
      case march::MemOp::Kind::Write:
        memory.write(op->port, op->addr, op->data);
        ++result.writes;
        break;
      case march::MemOp::Kind::Read: {
        const memsim::Word actual = memory.read(op->port, op->addr);
        ++result.reads;
        if (actual != op->data) {
          ++result.mismatches;
          if (result.failures.size() < options.max_failures)
            result.failures.push_back(march::Failure{op_index, *op, actual});
        }
        break;
      }
    }
    ++op_index;
  }
  result.state = SessionState::Completed;
  return result;
}

}  // namespace pmbist::bist
