#pragma once
// Shared BIST datapath components: address generator, data (background)
// generator, port sequencer and read comparator.  Every controller in the
// paper — microcode-based, programmable-FSM-based and hardwired — drives
// this same datapath; only the controller differs.  Each component has a
// behavioral model (used by the cycle-accurate controllers) and a
// structural area model (used by the Table 1-3 benches).

#include <cassert>
#include <optional>

#include "march/expand.h"
#include "netlist/components.h"

namespace pmbist::bist {

using march::AddressOrder;
using memsim::Address;
using memsim::MemoryGeometry;
using memsim::Word;

/// Up/down binary address generator with last-address detection.
class AddressGenerator {
 public:
  explicit AddressGenerator(int address_bits);

  /// Loads the start address for a pass in the given direction.
  void init(AddressOrder order) {
    descending_ = order == AddressOrder::Down;
    current_ = descending_ ? last_up_ : 0;
    last_ = descending_ ? 0 : last_up_;
  }
  /// Advances one address in the current direction.  Precondition: not at
  /// the last address.
  void step() {
    assert(!at_last() && "stepping past the last address");
    current_ = descending_ ? current_ - 1 : current_ + 1;
  }

  [[nodiscard]] Address current() const noexcept { return current_; }
  [[nodiscard]] bool at_last() const noexcept { return current_ == last_; }
  [[nodiscard]] bool descending() const noexcept { return descending_; }

  /// Structural cost: up/down counter + last-address detection (both end
  /// values) + direction handling.
  [[nodiscard]] static netlist::GateInventory area(int address_bits);

 private:
  int address_bits_;
  Address last_up_;
  Address current_ = 0;
  Address last_ = 0;  ///< end address of the current direction
  bool descending_ = false;
};

/// Data background generator.  Bit-oriented memories have the single
/// background 0; word-oriented memories walk the standard backgrounds
/// (march/expand.h).  Test data for march value d is background XOR
/// replicate(d).
class DataGenerator {
 public:
  explicit DataGenerator(int word_bits);

  void reset() { index_ = 0; }
  /// Advances to the next background.  Precondition: not at the last.
  void next() {
    assert(!at_last() && "advancing past the last background");
    ++index_;
  }

  [[nodiscard]] Word background() const {
    return backgrounds_[static_cast<std::size_t>(index_)];
  }
  [[nodiscard]] bool at_last() const noexcept {
    return index_ == background_count() - 1;
  }
  [[nodiscard]] int background_index() const noexcept { return index_; }
  [[nodiscard]] int background_count() const noexcept {
    return static_cast<int>(backgrounds_.size());
  }
  /// Test data word for march value d against the active background.
  [[nodiscard]] Word data_for(bool d) const {
    return march::apply_background(d, background(), mask_);
  }

  [[nodiscard]] static netlist::GateInventory area(int word_bits);

 private:
  std::vector<Word> backgrounds_;
  Word mask_;
  int index_ = 0;
};

/// Sequences through the ports of a multiport memory.
class PortSequencer {
 public:
  explicit PortSequencer(int num_ports);

  void reset() { current_ = 0; }
  void next() {
    assert(!at_last() && "advancing past the last port");
    ++current_;
  }

  [[nodiscard]] int current() const noexcept { return current_; }
  [[nodiscard]] bool at_last() const noexcept {
    return current_ == num_ports_ - 1;
  }

  [[nodiscard]] static netlist::GateInventory area(int num_ports);

 private:
  int num_ports_;
  int current_ = 0;
};

/// Read comparator (behavioral compare is trivial; this class carries the
/// structural cost: XNOR bank + AND tree + sticky fail flag).
struct Comparator {
  [[nodiscard]] static netlist::GateInventory area(int word_bits);
};

/// Pause timer used by data-retention (Hold) phases: a free-running delay
/// counter with terminal-count detection.
struct PauseTimer {
  static constexpr int kBits = 20;
  [[nodiscard]] static netlist::GateInventory area();
};

/// The full shared datapath for a memory geometry.  `with_pause_timer`
/// includes the retention-delay timer (needed by +/++ algorithm support).
[[nodiscard]] netlist::GateInventory datapath_inventory(
    const MemoryGeometry& geometry, bool with_pause_timer);

/// Same, but broken out into named blocks for hierarchical reports.
void add_datapath_blocks(netlist::AreaReport& report,
                         const MemoryGeometry& geometry,
                         bool with_pause_timer);

}  // namespace pmbist::bist
