#include "bist/controller.h"

namespace pmbist::bist {

std::runtime_error cycle_bound_error(const Controller& controller) {
  return std::runtime_error("controller '" + controller.name() +
                            "' exceeded the cycle bound");
}

march::OpStream collect_ops(Controller& controller, std::uint64_t max_cycles) {
  controller.reset();
  march::OpStream out;
  std::uint64_t cycles = 0;
  while (!controller.done()) {
    if (++cycles > max_cycles) throw cycle_bound_error(controller);
    if (auto op = controller.step()) out.push_back(*op);
  }
  return out;
}

std::uint64_t count_cycles(Controller& controller, std::uint64_t max_cycles) {
  controller.reset();
  std::uint64_t cycles = 0;
  while (!controller.done()) {
    if (++cycles > max_cycles) throw cycle_bound_error(controller);
    (void)controller.step();
  }
  return cycles;
}

}  // namespace pmbist::bist
