#pragma once
// SoC-level memory catalog.
//
// The paper's case for programmable MBIST is amortization: one microcode /
// pFSM controller design serves many heterogeneous embedded memories on a
// chip.  Everything below src/soc tests ONE memory at a time; this module
// introduces the chip itself — a catalog of memory instances (geometry,
// physical topology, power-up state, optional injected defects, repair
// resources) that the test plan (plan.h) and scheduler (scheduler.h)
// operate over.  Catalogs are built programmatically or parsed from a chip
// file (chip.h, format in docs/SOC.md).

#include <string>
#include <vector>

#include "common/directives.h"
#include "memsim/fault_model.h"
#include "memsim/topology.h"

namespace pmbist::soc {

/// Raised for every malformed SoC description / test plan.  The errors of
/// the directive files (chip, profile, .schedule, .fieldsched) derive from
/// it and carry their source line.
class SocError : public common::DirectiveError {
 public:
  using DirectiveError::DirectiveError;
};

/// Spare rows/columns available to an instance (bit-oriented arrays only;
/// 0/0 = no redundancy, test-only instance).
struct RepairResources {
  int spare_rows = 0;
  int spare_cols = 0;

  [[nodiscard]] bool any() const noexcept {
    return spare_rows > 0 || spare_cols > 0;
  }
  friend bool operator==(const RepairResources&,
                         const RepairResources&) = default;
};

/// One embedded memory of the chip.
struct MemoryInstance {
  std::string name;
  memsim::MemoryGeometry geometry{};
  std::uint64_t powerup_seed = 1;
  /// Physical row-address bits; -1 derives address_bits/2 (squarish array).
  int row_bits = -1;
  /// Address-scrambling seed; 0 = identity logical->physical mapping.
  std::uint64_t scramble_seed = 0;
  /// Defects present in this instance (empty = healthy die).
  std::vector<memsim::Fault> faults;
  RepairResources repair;

  [[nodiscard]] int effective_row_bits() const noexcept {
    return row_bits >= 0 ? row_bits : geometry.address_bits / 2;
  }
  /// Physical array organization (for redundancy analysis / repair).
  [[nodiscard]] memsim::ArrayTopology topology() const;

  friend bool operator==(const MemoryInstance&,
                         const MemoryInstance&) = default;
};

/// The chip: a named, ordered catalog of memory instances.
class SocDescription {
 public:
  SocDescription() = default;
  explicit SocDescription(std::string name) : name_{std::move(name)} {}

  /// Appends an instance.  Throws SocError on an empty/duplicate name or a
  /// degenerate geometry.
  SocDescription& add(MemoryInstance instance);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<MemoryInstance>& memories() const noexcept {
    return memories_;
  }
  /// Instance by name, or nullptr.
  [[nodiscard]] const MemoryInstance* find(std::string_view name) const;

  /// Injects a defect into a declared instance.  Throws SocError when the
  /// instance does not exist.
  SocDescription& add_fault(std::string_view memory, memsim::Fault fault);

  friend bool operator==(const SocDescription&,
                         const SocDescription&) = default;

 private:
  std::string name_;
  std::vector<MemoryInstance> memories_;
};

/// A representative 9-instance heterogeneous chip (caches, DSP scratchpads,
/// FIFOs, two small repairable bit-oriented arrays with injected defects).
/// `extra_addr_bits` uniformly scales every instance up — the benches use
/// it to make sessions heavy enough for wall-clock measurements.
[[nodiscard]] SocDescription demo_soc(int extra_addr_bits = 0);

}  // namespace pmbist::soc
