#pragma once
// Functional memory fault models (van de Goor taxonomy).
//
// March tests are defined against *functional* fault models — abstractions
// of shorts/opens in cells, address decoders and read/write logic.  This is
// the level at which the paper's algorithms (March C/A families and their
// +/++ derivatives) are specified, so a behavioral memory with these fault
// models is a faithful substitute for silicon when evaluating detection.
//
// Implemented models:
//   SAF   stuck-at fault: cell bit permanently 0 or 1
//   TF    transition fault: cell bit cannot make a 0->1 (or 1->0) transition
//   CFin  inversion coupling: a transition of the aggressor bit inverts the
//         victim bit
//   CFid  idempotent coupling: a directed transition of the aggressor
//         forces the victim to a fixed value
//   CFst  state coupling: while the aggressor holds state s, the victim is
//         forced to value v
//   AF    address-decoder faults (4 classic types, expressed as an
//         address -> physical-cell-set remap)
//   SOF   stuck-open cell: inaccessible; reads return the sense-amplifier
//         residue of the column, writes are lost
//   DRF   data-retention fault: the bit leaks to a fixed value if the word
//         is not written for longer than a hold time
//   IRF   incorrect read fault: a read returns the complement of the
//         stored value; the cell itself is undisturbed
//   WDF   write disturb fault: a *non-transition* write (writing the value
//         the cell already holds) flips the cell
//   RDF   read-destructive fault: a read returns the *flipped* value and
//         flips the cell
//   DRDF  deceptive/weak-cell read fault (disconnected pull-up/pull-down
//         device): the first read of the cell is correct, but a read
//         *immediately following* a read of the same cell returns the
//         complement (the bitline is no longer restored).  Detectable only
//         by consecutive same-cell reads — the reason for the paper's "++"
//         triple-read algorithm variants.  Any intervening operation or
//         pause lets the cell recover.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "memsim/memory.h"

namespace pmbist::memsim {

/// Identifies one physical bit: word address + bit position in the word.
struct BitRef {
  Address addr = 0;
  int bit = 0;
  friend bool operator==(const BitRef&, const BitRef&) = default;
  friend auto operator<=>(const BitRef&, const BitRef&) = default;
};

struct StuckAtFault {
  BitRef cell;
  bool value = false;  ///< the stuck value
  friend bool operator==(const StuckAtFault&, const StuckAtFault&) = default;
};

struct TransitionFault {
  BitRef cell;
  bool rising = true;  ///< true: 0->1 fails; false: 1->0 fails
  friend bool operator==(const TransitionFault&, const TransitionFault&) = default;
};

struct InversionCouplingFault {  // CFin
  BitRef aggressor;
  BitRef victim;
  bool on_rising = true;  ///< which aggressor transition triggers
  friend bool operator==(const InversionCouplingFault&, const InversionCouplingFault&) = default;
};

struct IdempotentCouplingFault {  // CFid
  BitRef aggressor;
  BitRef victim;
  bool on_rising = true;
  bool forced_value = false;  ///< value the victim is forced to
  friend bool operator==(const IdempotentCouplingFault&, const IdempotentCouplingFault&) = default;
};

struct StateCouplingFault {  // CFst
  BitRef aggressor;
  BitRef victim;
  bool aggressor_state = true;  ///< while aggressor == this ...
  bool forced_value = false;    ///< ... victim is forced to this
  friend bool operator==(const StateCouplingFault&, const StateCouplingFault&) = default;
};

/// Address-decoder fault, modeled as a remap of one logical address to a
/// set of physical word addresses (empty = no cell accessed; two = two
/// cells accessed; classic AF types are all expressible this way).
struct AddressDecoderFault {
  Address logical = 0;
  std::vector<Address> physical;  ///< cells actually accessed
  friend bool operator==(const AddressDecoderFault&, const AddressDecoderFault&) = default;
};

struct StuckOpenFault {  // SOF
  BitRef cell;
  friend bool operator==(const StuckOpenFault&, const StuckOpenFault&) = default;
};

struct DataRetentionFault {  // DRF
  BitRef cell;
  bool leak_to = false;
  std::uint64_t hold_time_ns = 100'000;  ///< decays if unwritten longer
  friend bool operator==(const DataRetentionFault&, const DataRetentionFault&) = default;
};

struct IncorrectReadFault {  // IRF
  BitRef cell;
  friend bool operator==(const IncorrectReadFault&,
                         const IncorrectReadFault&) = default;
};

struct WriteDisturbFault {  // WDF
  BitRef cell;
  friend bool operator==(const WriteDisturbFault&,
                         const WriteDisturbFault&) = default;
};

struct ReadDestructiveFault {  // RDF / DRDF
  BitRef cell;
  /// false: RDF (every read flips the cell and returns the wrong value);
  /// true: DRDF weak cell (only back-to-back reads of the cell misread).
  bool deceptive = false;
  friend bool operator==(const ReadDestructiveFault&, const ReadDestructiveFault&) = default;
};

/// Static neighborhood-pattern-sensitive fault (SNPSF): the base cell is
/// forced to `forced_value` whenever its (physically adjacent) neighbor
/// cells hold `pattern` (bit i = required value of neighbors[i]).  The
/// neighbor list comes from an ArrayTopology (memsim/topology.h), so the
/// fault population respects address scrambling.  Excluded from
/// all_fault_classes(): march tests cannot guarantee NPSF detection (see
/// diag/npsf.h for the exhaustive pattern screen that can).
struct NeighborhoodPatternFault {
  BitRef base;
  std::vector<BitRef> neighbors;
  std::uint32_t pattern = 0;
  bool forced_value = false;
  friend bool operator==(const NeighborhoodPatternFault&,
                         const NeighborhoodPatternFault&) = default;
};

/// Port-circuitry fault of a multiport memory: reads *through one specific
/// port* return the named data bit inverted (a defective port mux/sense
/// path); the array itself is healthy.  This is why the paper's
/// controllers repeat the whole test per port (the Inc. Port loop):
/// testing only port 0 can never see it.  Not part of all_fault_classes()
/// — the campaign's fault classes are array faults; port faults are a
/// multiport-specific experiment.
struct PortReadFault {
  int port = 1;
  int bit = 0;
  friend bool operator==(const PortReadFault&, const PortReadFault&) = default;
};

/// Any single fault instance.
using Fault =
    std::variant<StuckAtFault, TransitionFault, InversionCouplingFault,
                 IdempotentCouplingFault, StateCouplingFault,
                 AddressDecoderFault, StuckOpenFault, DataRetentionFault,
                 IncorrectReadFault, WriteDisturbFault,
                 ReadDestructiveFault, NeighborhoodPatternFault,
                 PortReadFault>;

/// Coarse class of a fault (for coverage tables and classification).
enum class FaultClass : std::uint8_t {
  SAF,
  TF,
  CFin,
  CFid,
  CFst,
  AF,
  SOF,
  DRF,
  IRF,
  WDF,
  RDF,
  DRDF,
  NPSF,  ///< neighborhood pattern sensitive (excluded, topology-specific)
  PF,    ///< port-circuitry fault (excluded from all_fault_classes())
  LF,    ///< linked faults: two idempotent coupling faults sharing a victim
         ///< (opposite forced values, distinct aggressors), where the
         ///< second can mask the first's corruption before a read sees it.
         ///< A composite class — instances are *pairs* of the single-fault
         ///< models above — so it is excluded from all_fault_classes()
         ///< (campaign universes enumerate single faults); the qualifier
         ///< (march::analyze) and the static prover decide it exhaustively.
};

[[nodiscard]] FaultClass fault_class(const Fault& f);
[[nodiscard]] std::string_view fault_class_name(FaultClass c);
[[nodiscard]] std::string describe(const Fault& f);

/// All fault classes, in display order.
[[nodiscard]] const std::vector<FaultClass>& all_fault_classes();

/// Parses a class name of all_fault_classes() ("SAF", "CFin", ...);
/// nullopt on anything else.
[[nodiscard]] std::optional<FaultClass> parse_fault_class(
    std::string_view name);

}  // namespace pmbist::memsim
