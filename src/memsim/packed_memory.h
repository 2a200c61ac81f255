#pragma once
// PackedFaultyMemory: 64 independent faulty-memory instances simulated at
// once, one bit-lane per instance (the PPSFP idiom — parallel-pattern
// single-fault propagation — applied across *fault instances* instead of
// patterns).
//
// Where FaultyMemory stores one bool per cell bit, this model stores a
// 64-wide lane vector: bit L of `cells_[addr * word_bits + bit]` is the
// stored value of (addr, bit) in lane L.  Because a march campaign replays
// the *same* op stream against every instance, a write broadcasts its data
// bit across all lanes in one machine-word operation, and a read compares
// all 64 lanes against the expected value at once, returning a mismatch
// lane-mask.  Fault semantics become per-cell lane masks (stuck lanes, TF
// lanes, ...) applied with bitwise algebra, so the inner loop costs
// roughly one FaultyMemory step for 64 instances.
//
// The contract (enforced by tests/test_campaign.cpp, test_fuzz.cpp and
// bench_campaign): each lane is bit-identical to a scalar FaultyMemory
// with the same power-up seed and the same injected fault group — same
// sensed words, same detecting op positions.  Every fault model of
// fault_model.h is supported, so the campaign engine never needs a
// per-class fallback.  Lanes are fully independent: no fault may couple
// across lanes, and all cross-cell effects (coupling, AF aliasing, NPSF)
// are masked to the lane that owns the fault.
//
// The caller need not step every op of a stream through the memory: an op
// on cells that are fault-free in every lane acts alike in all lanes, so
// the campaign engine replays only the ops a lane-pack's faults can see
// and reports each skipped run through skip_fault_free() (docs/KERNEL.md,
// "Sparse projection").
//
// Faults must be injected before the first operation (the campaign
// injects into a fresh/reset memory); this keeps per-lane write-timestamp
// tracking (DRF) exact without a per-address per-lane history.
//
// docs/KERNEL.md documents the lane encoding, the per-class automata and
// the scalar-fallback contract.

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "memsim/fault_model.h"
#include "memsim/memory.h"

namespace pmbist::memsim {

class PackedFaultyMemory {
 public:
  /// Lanes per pack == bits per machine word.
  static constexpr int kLanes = 64;

  explicit PackedFaultyMemory(MemoryGeometry geometry,
                              std::uint64_t powerup_seed = 1);

  /// Returns every lane to the just-constructed state: faults removed,
  /// time rewound, contents re-randomized from `powerup_seed` exactly as
  /// the constructor (and FaultyMemory) would.  No allocation in the
  /// steady state — the campaign engine resets one packed memory per
  /// worker between lane-packs.  Under the seed of the previous reset
  /// only the cells changed since then are restored, from a power-up
  /// image computed once per seed.
  void reset(std::uint64_t powerup_seed);

  /// Injects one fault instance into lane `lane` (0..63).  Validates
  /// exactly like FaultyMemory::add_fault (same exception messages).
  /// Multiple faults may share a lane (linked / multi-fault groups).
  void add_fault(int lane, const Fault& fault);

  /// Writes `data` (masked to word width) at `addr` in every lane.
  void write(int port, Address addr, Word data);

  /// Reads the word at `addr` in every lane and compares against
  /// `expected`; returns the mask of lanes whose sensed word differs.
  /// Read side effects (RDF flips, sense residue, weak-cell tracking)
  /// are applied per lane exactly as FaultyMemory::read would.
  [[nodiscard]] std::uint64_t read(int port, Address addr, Word expected);

  /// Advances simulated time in every lane (DRF decay, weak-cell reset).
  void advance_time_ns(std::uint64_t ns);

  /// Accounts for reads and writes the caller skipped since the previous
  /// op: ops on cells that are fault-free in every lane, none of them a
  /// failing read.  Such ops leave every other cell alone, so only two
  /// things carry over: the last-read tracking, which is forgotten (no
  /// replayed op touches a skipped address), and, when `last_read` holds
  /// the latest skipped read's expected word, every lane's sense residue,
  /// which becomes that word.
  void skip_fault_free(std::optional<Word> last_read);

  [[nodiscard]] const MemoryGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Backdoor: the stored word of one lane (test support).
  [[nodiscard]] Word peek(Address addr, int lane) const;

 private:
  // Per-(cell,bit) lane masks; allocated only for cells some fault
  // touches.  A default-constructed state is behaviorally fault-free.
  struct DrfEntry {
    std::uint64_t lane = 0;  // single lane bit
    bool leak_to = false;
    std::uint64_t hold_time_ns = 0;
    std::uint64_t last_write_ns = 0;
  };
  struct CfinEntry {
    std::uint64_t lane = 0;
    BitRef victim;
    bool on_rising = true;
  };
  struct CfidEntry {
    std::uint64_t lane = 0;
    BitRef victim;
    bool on_rising = true;
    bool forced_value = false;
  };
  struct CfstEntry {
    std::uint64_t lane = 0;
    BitRef aggressor;
    BitRef victim;
    bool aggressor_state = true;
    bool forced_value = false;
  };
  struct CellState {
    std::uint64_t stuck_mask = 0;     // SAF lanes
    std::uint64_t stuck_value = 0;    // stuck value per SAF lane
    std::uint64_t tf_rising = 0;      // TF 0->1 blocked lanes
    std::uint64_t tf_falling = 0;     // TF 1->0 blocked lanes
    std::uint64_t stuck_open = 0;     // SOF lanes
    std::uint64_t read_invert = 0;    // IRF lanes
    std::uint64_t write_disturb = 0;  // WDF lanes
    std::uint64_t rdf_mask = 0;       // RDF/DRDF lanes
    std::uint64_t rdf_deceptive = 0;  // of those, the weak-cell (DRDF) ones
    std::uint64_t drf_mask = 0;       // lanes with a retention fault
    std::vector<DrfEntry> drf;
    // Coupling faults whose *aggressor* is this cell, in injection order.
    std::vector<CfinEntry> cfin;
    std::vector<CfidEntry> cfid;
    std::vector<CfstEntry> cfst_aggressor;
    // CFst entries whose *victim* is this cell (write-enforcement scan).
    std::vector<CfstEntry> cfst_victim;
  };
  struct AfEntry {
    std::uint64_t lane = 0;
    std::vector<Address> physical;
  };
  struct NpsfEntry {
    std::uint64_t lane = 0;
    NeighborhoodPatternFault fault;
  };
  // The address of a lane's latest completed read, if nothing has let its
  // weak cells recover since (weak-cell / DRDF tracking).
  struct LastRead {
    bool valid = false;
    Address addr = 0;
  };

  // addr_flags_ bits: cheap per-address dispatch in the hot loops.
  static constexpr std::uint8_t kHasAf = 1;           // some lane remaps addr
  static constexpr std::uint8_t kHasCfstVictim = 2;   // CFst victim in word
  static constexpr std::uint8_t kHasAggressor = 4;    // coupling aggressor
  static constexpr std::uint8_t kHasDrf = 8;          // retention cell

  [[nodiscard]] std::size_t cell_index(Address addr, int bit) const noexcept {
    return static_cast<std::size_t>(addr) *
               static_cast<std::size_t>(geometry_.word_bits) +
           static_cast<std::size_t>(bit);
  }
  CellState& ensure_state(Address addr, int bit);
  [[nodiscard]] CellState* state_of(Address addr, int bit) noexcept;

  /// Lazy DRF decay for lanes in `mask` (FaultyMemory::settle_bit).
  void settle(Address addr, int bit, CellState& st, std::uint64_t mask);
  void settle_ref(const BitRef& ref, std::uint64_t mask);

  /// Coupling/NPSF forcing of a victim bit in the given lanes; refuses
  /// stuck and open lanes, never cascades (FaultyMemory::force_bit).
  void force_lanes(const BitRef& victim, std::uint64_t lanes, bool value);

  /// One physical-word write restricted to `mask` lanes, with all fault
  /// semantics (FaultyMemory::write_word, vectorized per bit).
  void write_word(Address addr, Word data, std::uint64_t mask);
  void write_and_stamp(Address addr, Word data, std::uint64_t mask);

  /// Senses every bit of one physical cell for `mask` lanes (with read
  /// side effects); `sensed_[bit]` holds the lane vector afterwards.
  void read_cell(Address addr, std::uint64_t mask, std::uint64_t b2b);

  void invalidate_last_read();
  void mark_written(Address addr);

  MemoryGeometry geometry_;
  std::vector<std::uint64_t> cells_;   // lane vectors, [addr * W + bit]
  // Power-up contents of cells_ under powerup_seed_, and the addresses
  // written or forced since the last reset (reset() restores those plus
  // the fault cells of touched_cells_).
  std::vector<std::uint64_t> powerup_;
  std::uint64_t powerup_seed_ = 0;
  std::vector<std::uint8_t> written_;
  std::vector<Address> written_addrs_;
  std::vector<std::int32_t> state_index_;  // -1 = no fault touches the cell
  std::vector<CellState> states_;
  std::vector<std::size_t> touched_cells_;  // indices to clear on reset
  std::vector<std::uint8_t> addr_flags_;
  std::unordered_map<Address, std::vector<AfEntry>> af_;
  std::vector<NpsfEntry> npsf_;
  std::vector<std::uint64_t> pf_invert_;  // [port * W + bit] lane masks
  bool has_pf_ = false;
  std::vector<std::uint64_t> sense_residue_;  // per column, lane vector
  std::uint64_t now_ns_ = 0;
  bool ops_begun_ = false;

  // One last read for every lane but the lagging ones: a lane whose
  // latest read went through an AF to the empty set completed no read, so
  // it keeps, in lagging_last_read_, the state it had before that read.
  LastRead last_read_;
  std::uint64_t lagging_ = 0;
  std::array<LastRead, kLanes> lagging_last_read_{};

  // Per-bit scratch, sized word_bits (avoids per-op allocation).
  std::vector<std::uint64_t> rising_;
  std::vector<std::uint64_t> falling_;
  std::vector<std::uint64_t> sensed_;
};

}  // namespace pmbist::memsim
