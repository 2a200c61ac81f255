#include "mbist_ucode/area.h"

#include <bit>
#include <cassert>

#include "bist/datapath.h"
#include "netlist/components.h"
#include "netlist/qm.h"

namespace pmbist::mbist_ucode {

using netlist::Cell;
using netlist::GateInventory;

const std::vector<std::string>& decoder_input_names() {
  static const std::vector<std::string> kNames{
      "flow0",     "flow1",     "flow2",      "addr_inc_f", "last_addr",
      "last_data", "last_port", "repeat_bit", "pause_done"};
  return kNames;
}

const std::vector<DecoderOutput>& decoder_covers() {
  static const std::vector<DecoderOutput> cached = [] {
    // Decoder inputs in decode_minterm() order (isa.h).
    constexpr int kVars = kDecodeInputBits;
    static const char* kOutputNames[kDecodeOutputCount] = {
        "ic_inc",      "ic_reset0",   "ic_reset1", "ic_load_branch",
        "branch_save", "ref_load",    "repeat_set", "repeat_clear",
        "addr_step",   "addr_init",   "data_inc",   "data_reset",
        "port_inc",    "pause_start", "terminate"};
    std::vector<DecoderOutput> out;
    for (int out_bit = 0; out_bit < kDecodeOutputCount; ++out_bit) {
      netlist::TruthTable table{kVars};
      for (std::uint32_t m = 0; m < table.size(); ++m) {
        const bool bit =
            (pack(decode(decode_flow_of(m), decode_inputs_of(m))) >> out_bit) &
            1u;
        table.set(m, bit ? netlist::Tri::One : netlist::Tri::Zero);
      }
      const auto minimized = netlist::minimize(table);
      assert(table.is_implemented_by(minimized.cover));
      out.push_back(DecoderOutput{kOutputNames[out_bit], minimized.cover});
    }
    return out;
  }();
  return cached;
}

const GateInventory& decoder_inventory() {
  static const GateInventory cached = [] {
    GateInventory inv;
    for (const auto& output : decoder_covers())
      inv += netlist::sop_inventory(output.cover);
    return inv;
  }();
  return cached;
}

netlist::AreaReport microcode_area(const AreaConfig& config) {
  assert(config.storage_depth >= 2);
  const int z = config.storage_depth;
  const int ic_bits = std::bit_width(unsigned(z - 1)) + 1;  // +1: end flag
  const int branch_bits = std::bit_width(unsigned(z - 1));

  netlist::AreaReport report{"microcode-based BIST unit"};

  const auto storage_kind =
      config.storage_cell == netlist::StorageCellClass::ScanOnly
          ? netlist::RegisterKind::ScanOnly
          : netlist::RegisterKind::Scan;
  report.add_block("storage unit (ZxY)",
                   netlist::register_bank(z * kInstructionBits, storage_kind));
  report.add_block("instruction selector",
                   netlist::mux_tree(kInstructionBits, z));
  report.add_block("instruction counter", netlist::binary_counter(ic_bits));
  report.add_block("branch register",
                   netlist::register_bank(branch_bits,
                                          netlist::RegisterKind::Enable));
  {
    // Repeat bit + 3 auxiliary bits, plus the XORs applying the auxiliary
    // order/data/compare values to the instruction fields.
    GateInventory ref = netlist::register_bank(4, netlist::RegisterKind::Enable);
    ref += netlist::xor_bank(3);
    report.add_block("reference register", std::move(ref));
  }
  report.add_block("instruction decoder", decoder_inventory());
  {
    // Read/write field decode, done flag, start/terminate glue.
    GateInventory misc = netlist::and_bank(2);
    misc.add(Cell::Inv, 2);
    misc.add(Cell::Dff, 1);
    misc.add(Cell::Or2, 1);
    report.add_block("rw decode / test-end", std::move(misc));
  }

  if (config.include_datapath)
    bist::add_datapath_blocks(report, config.geometry,
                              config.include_pause_timer);
  return report;
}

}  // namespace pmbist::mbist_ucode
