#pragma once
// FaultyMemory: a behavioral SRAM with injectable functional faults.
//
// Event semantics (single-fault assumption is typical, but multiple faults
// may be injected; coupling effects deliberately do not cascade through
// other coupling faults, the standard simplification in march-test theory):
//
//   write: address-decoder remap -> per-bit write with SOF loss, SAF
//          masking, TF-blocked transitions, CFst victim override; actual
//          bit transitions trigger CFin/CFid/CFst aggressor effects.
//   read:  remap (empty set -> constant 0 from the precharged bus;
//          multiple cells -> wired-AND), DRF lazy decay, SAF/SOF/RDF/DRDF
//          behavior; every sensed bit refreshes the column sense residue.
//   time:  advance_time_ns() ages all words; a word unwritten for longer
//          than a DRF's hold time decays.
//
// Word path: functional faults are local, so most words are named by no
// fault.  add_fault() marks every word some fault names by cell (every
// per-cell model, both ends of a coupling, an NPSF's base and neighbours)
// and every AF-remapped logical address.  An access to an unmarked address
// is one array access: a read returns the stored word and senses all of
// it into the residue, a write stores the masked data.  Marked addresses
// take the per-bit path above, which stays the reference semantics; the
// two agree on every unmarked word (FaultyMemory.WordPathMatchesPerBitPath).
// NPSFs are re-evaluated after every write on either path.

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "memsim/fault_model.h"
#include "memsim/memory.h"

namespace pmbist::memsim {

/// Behavioral SRAM with injected functional faults.
class FaultyMemory final : public Memory {
 public:
  explicit FaultyMemory(MemoryGeometry geometry,
                        std::uint64_t powerup_seed = 1);

  /// Constructs with explicit power-up contents (one word per address) —
  /// used by the exhaustive analysis engine.  Inject faults *after*
  /// construction.
  FaultyMemory(MemoryGeometry geometry, std::vector<Word> initial_contents);

  /// Injects one fault instance.  Throws std::invalid_argument if the fault
  /// references cells outside the geometry.
  void add_fault(const Fault& fault);

  /// Returns the memory to its just-constructed state: all faults removed,
  /// time rewound, contents re-randomized from `powerup_seed` exactly as
  /// the constructor would.  Much cheaper than reconstructing (no
  /// allocation); the campaign engine resets one memory per worker between
  /// fault instances.
  void reset(std::uint64_t powerup_seed);

  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }

  [[nodiscard]] Word read(int port, Address addr) override;
  void write(int port, Address addr, Word data) override;
  void advance_time_ns(std::uint64_t ns) override;

  /// Backdoor inspection of the stored (physical) value.
  [[nodiscard]] Word peek(Address addr) const { return cells_.at(addr); }

 private:
  struct CellState {  // per-bit fault bookkeeping
    std::optional<bool> stuck_value;       // SAF
    bool tf_rising_blocked = false;        // TF 0->1
    bool tf_falling_blocked = false;       // TF 1->0
    bool stuck_open = false;               // SOF
    bool read_inverted = false;            // IRF
    bool write_disturb = false;            // WDF
    std::optional<DataRetentionFault> drf;
    std::optional<ReadDestructiveFault> rdf;
  };

  static std::uint64_t key(Address addr, int bit) {
    return (std::uint64_t{addr} << 8) | static_cast<unsigned>(bit);
  }

  [[nodiscard]] bool stored_bit(Address addr, int bit) const;
  void set_stored_bit(Address addr, int bit, bool v);

  /// Applies lazy DRF decay for one bit.
  void settle_bit(Address addr, int bit);

  /// Forces a victim bit (coupling effect), respecting SAF/SOF; does not
  /// trigger further coupling.
  void force_bit(const BitRef& victim, bool value);

  /// Writes one word at a physical cell with all fault semantics.  All
  /// bits are driven simultaneously; coupling disturbs from bits that
  /// transitioned are applied after the write settles (so intra-word
  /// coupling is observable), without cascading through victims.
  void write_word(Address addr, Word data);

  [[nodiscard]] bool read_bit(Address addr, int bit, bool back_to_back);

  /// The physical words `logical` selects.  Without an AF remap that is
  /// `logical` itself, so the span points at the argument (hence no
  /// temporaries).
  [[nodiscard]] std::span<const Address> physical_addresses(
      const Address& logical) const;
  std::span<const Address> physical_addresses(Address&&) const = delete;

  std::vector<Fault> faults_;
  std::vector<Word> cells_;
  std::vector<std::uint64_t> last_write_ns_;
  std::uint64_t now_ns_ = 0;
  /// Addresses that take the per-bit path (see the header comment); one
  /// byte per address, cleared by reset().
  std::vector<std::uint8_t> per_bit_;
  Word sense_residue_ = 0;  ///< per column, last sensed value
  /// Address of the immediately preceding read, if the last operation was a
  /// read (weak-cell / DRDF excitation tracking).
  std::optional<Address> last_read_addr_;

  std::unordered_map<std::uint64_t, CellState> cell_state_;
  std::unordered_map<std::uint64_t, std::vector<InversionCouplingFault>>
      cfin_by_aggressor_;
  std::unordered_map<std::uint64_t, std::vector<IdempotentCouplingFault>>
      cfid_by_aggressor_;
  std::unordered_map<std::uint64_t, std::vector<StateCouplingFault>>
      cfst_by_aggressor_;
  std::unordered_map<std::uint64_t, std::vector<StateCouplingFault>>
      cfst_by_victim_;
  std::unordered_map<Address, std::vector<Address>> af_remap_;
  /// Per-port read-path bit-inversion masks (PortReadFault).
  std::vector<Word> port_read_invert_;
  /// Neighborhood-pattern faults, re-evaluated after every write.
  std::vector<NeighborhoodPatternFault> npsf_;
};

}  // namespace pmbist::memsim
