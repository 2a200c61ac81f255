#include "bist/datapath.h"

#include <bit>
#include <cassert>

namespace pmbist::bist {

using netlist::Cell;
using netlist::GateInventory;

AddressGenerator::AddressGenerator(int address_bits)
    : address_bits_{address_bits},
      last_up_{static_cast<Address>((std::uint64_t{1} << address_bits) - 1)} {
  assert(address_bits >= 1 && address_bits <= 32);
  init(AddressOrder::Up);
}

GateInventory AddressGenerator::area(int address_bits) {
  GateInventory inv = netlist::up_down_counter(address_bits);
  // Last-address detection for both directions (all-ones and all-zeros)
  // selected by the direction bit.
  inv += netlist::constant_detector(address_bits);  // all-ones
  inv += netlist::constant_detector(address_bits);  // all-zeros (via Q')
  inv.add(Cell::Mux2, 1);
  // Direction flop (loaded per element).
  inv.add(Cell::DffEn, 1);
  return inv;
}

DataGenerator::DataGenerator(int word_bits)
    : backgrounds_{march::standard_backgrounds(word_bits)},
      mask_{word_bits >= 64 ? ~Word{0} : ((Word{1} << word_bits) - 1)} {}

GateInventory DataGenerator::area(int word_bits) {
  GateInventory inv;
  const int num_bgs =
      static_cast<int>(march::standard_backgrounds(word_bits).size());
  // Polarity application: one XOR per data bit (d vs ~d).
  inv += netlist::xor_bank(word_bits);
  if (num_bgs > 1) {
    const int idx_bits = std::bit_width(unsigned(num_bgs - 1));
    inv += netlist::binary_counter(idx_bits);
    inv += netlist::constant_detector(idx_bits);  // last-background detect
    // Background pattern selection: one mux tree over the hardwired
    // background constants.
    inv += netlist::mux_tree(word_bits, num_bgs);
  }
  return inv;
}

PortSequencer::PortSequencer(int num_ports) : num_ports_{num_ports} {
  assert(num_ports >= 1);
}

GateInventory PortSequencer::area(int num_ports) {
  GateInventory inv;
  if (num_ports <= 1) return inv;
  const int bits = std::bit_width(unsigned(num_ports - 1));
  inv += netlist::binary_counter(bits);
  inv += netlist::constant_detector(bits);  // last-port detect
  inv += netlist::decoder(bits);            // per-port enables
  return inv;
}

GateInventory Comparator::area(int word_bits) {
  GateInventory inv = netlist::equality_comparator(word_bits);
  // Expected-data polarity (compare polarity XOR) on each bit.
  inv += netlist::xor_bank(word_bits);
  // Sticky fail flag, gated by compare-enable.
  inv.add(Cell::And2, 1);
  inv.add(Cell::Or2, 1);
  inv.add(Cell::Dff, 1);
  return inv;
}

GateInventory PauseTimer::area() {
  GateInventory inv = netlist::binary_counter(kBits);
  inv += netlist::constant_detector(kBits);
  return inv;
}

GateInventory datapath_inventory(const MemoryGeometry& geometry,
                                 bool with_pause_timer) {
  GateInventory inv;
  inv += AddressGenerator::area(geometry.address_bits);
  inv += DataGenerator::area(geometry.word_bits);
  inv += Comparator::area(geometry.word_bits);
  inv += PortSequencer::area(geometry.num_ports);
  if (with_pause_timer) inv += PauseTimer::area();
  return inv;
}

void add_datapath_blocks(netlist::AreaReport& report,
                         const MemoryGeometry& geometry,
                         bool with_pause_timer) {
  report.add_block("address generator",
                   AddressGenerator::area(geometry.address_bits));
  report.add_block("data generator", DataGenerator::area(geometry.word_bits));
  report.add_block("comparator", Comparator::area(geometry.word_bits));
  if (geometry.num_ports > 1)
    report.add_block("port sequencer",
                     PortSequencer::area(geometry.num_ports));
  if (with_pause_timer) report.add_block("pause timer", PauseTimer::area());
}

}  // namespace pmbist::bist
