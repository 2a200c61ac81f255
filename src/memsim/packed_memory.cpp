#include "memsim/packed_memory.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace pmbist::memsim {
namespace {

// Same generator as FaultyMemory's power-up fill: lane L of every packed
// cell must start from the identical pseudo-random word.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

PackedFaultyMemory::PackedFaultyMemory(MemoryGeometry geometry,
                                       std::uint64_t powerup_seed)
    : geometry_{geometry} {
  const std::size_t bits =
      geometry_.num_words() * static_cast<std::size_t>(geometry_.word_bits);
  cells_.resize(bits);
  state_index_.assign(bits, -1);
  addr_flags_.assign(geometry_.num_words(), 0);
  written_.assign(geometry_.num_words(), 0);
  sense_residue_.assign(static_cast<std::size_t>(geometry_.word_bits), 0);
  rising_.resize(static_cast<std::size_t>(geometry_.word_bits));
  falling_.resize(static_cast<std::size_t>(geometry_.word_bits));
  sensed_.resize(static_cast<std::size_t>(geometry_.word_bits));
  reset(powerup_seed);
}

void PackedFaultyMemory::reset(std::uint64_t powerup_seed) {
  const std::size_t width = static_cast<std::size_t>(geometry_.word_bits);
  if (powerup_.empty() || powerup_seed != powerup_seed_) {
    // Broadcast the scalar power-up word across all 64 lanes.
    powerup_.resize(cells_.size());
    powerup_seed_ = powerup_seed;
    std::uint64_t s = powerup_seed;
    for (std::size_t a = 0; a < geometry_.num_words(); ++a) {
      const Word w = splitmix64(s) & geometry_.word_mask();
      for (std::size_t bit = 0; bit < width; ++bit)
        powerup_[a * width + bit] =
            ((w >> bit) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    }
    cells_ = powerup_;
  } else {
    // Only fault cells (SAF injection, RDF flips, DRF decay) and written
    // or forced words can differ from the power-up image.
    for (const std::size_t ci : touched_cells_) cells_[ci] = powerup_[ci];
    for (const Address a : written_addrs_) {
      const auto at = static_cast<std::ptrdiff_t>(a * width);
      std::copy_n(powerup_.begin() + at, width, cells_.begin() + at);
    }
  }
  for (const Address a : written_addrs_) written_[a] = 0;
  written_addrs_.clear();
  for (const std::size_t ci : touched_cells_) state_index_[ci] = -1;
  touched_cells_.clear();
  states_.clear();
  std::fill(addr_flags_.begin(), addr_flags_.end(), 0);
  af_.clear();
  npsf_.clear();
  pf_invert_.clear();
  has_pf_ = false;
  std::fill(sense_residue_.begin(), sense_residue_.end(), 0);
  now_ns_ = 0;
  ops_begun_ = false;
  invalidate_last_read();
}

void PackedFaultyMemory::mark_written(Address addr) {
  if (written_[addr] != 0) return;
  written_[addr] = 1;
  written_addrs_.push_back(addr);
}

PackedFaultyMemory::CellState& PackedFaultyMemory::ensure_state(Address addr,
                                                                int bit) {
  const std::size_t ci = cell_index(addr, bit);
  if (state_index_[ci] < 0) {
    state_index_[ci] = static_cast<std::int32_t>(states_.size());
    states_.emplace_back();
    touched_cells_.push_back(ci);
  }
  return states_[static_cast<std::size_t>(state_index_[ci])];
}

PackedFaultyMemory::CellState* PackedFaultyMemory::state_of(
    Address addr, int bit) noexcept {
  const std::int32_t idx = state_index_[cell_index(addr, bit)];
  return idx < 0 ? nullptr : &states_[static_cast<std::size_t>(idx)];
}

void PackedFaultyMemory::add_fault(int lane, const Fault& fault) {
  if (lane < 0 || lane >= kLanes)
    throw std::invalid_argument("packed fault lane out of range");
  if (ops_begun_)
    throw std::logic_error(
        "PackedFaultyMemory: faults must be injected before operations");
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  const auto& g = geometry_;
  auto check_bitref = [&](const BitRef& b) {
    if (b.addr >= g.num_words() || b.bit < 0 || b.bit >= g.word_bits)
      throw std::invalid_argument("fault references cell outside geometry: " +
                                  describe(fault));
  };

  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, StuckAtFault>) {
          check_bitref(f.cell);
          auto& cs = ensure_state(f.cell.addr, f.cell.bit);
          cs.stuck_mask |= lane_bit;
          cs.stuck_value =
              f.value ? cs.stuck_value | lane_bit : cs.stuck_value & ~lane_bit;
          const std::size_t ci = cell_index(f.cell.addr, f.cell.bit);
          cells_[ci] = f.value ? cells_[ci] | lane_bit : cells_[ci] & ~lane_bit;
        } else if constexpr (std::is_same_v<T, TransitionFault>) {
          check_bitref(f.cell);
          auto& cs = ensure_state(f.cell.addr, f.cell.bit);
          (f.rising ? cs.tf_rising : cs.tf_falling) |= lane_bit;
        } else if constexpr (std::is_same_v<T, InversionCouplingFault>) {
          check_bitref(f.aggressor);
          check_bitref(f.victim);
          if (f.aggressor == f.victim)
            throw std::invalid_argument("coupling aggressor == victim");
          ensure_state(f.aggressor.addr, f.aggressor.bit)
              .cfin.push_back({lane_bit, f.victim, f.on_rising});
          addr_flags_[f.aggressor.addr] |= kHasAggressor;
        } else if constexpr (std::is_same_v<T, IdempotentCouplingFault>) {
          check_bitref(f.aggressor);
          check_bitref(f.victim);
          if (f.aggressor == f.victim)
            throw std::invalid_argument("coupling aggressor == victim");
          ensure_state(f.aggressor.addr, f.aggressor.bit)
              .cfid.push_back({lane_bit, f.victim, f.on_rising,
                               f.forced_value});
          addr_flags_[f.aggressor.addr] |= kHasAggressor;
        } else if constexpr (std::is_same_v<T, StateCouplingFault>) {
          check_bitref(f.aggressor);
          check_bitref(f.victim);
          if (f.aggressor == f.victim)
            throw std::invalid_argument("coupling aggressor == victim");
          const CfstEntry entry{lane_bit, f.aggressor, f.victim,
                                f.aggressor_state, f.forced_value};
          ensure_state(f.aggressor.addr, f.aggressor.bit)
              .cfst_aggressor.push_back(entry);
          ensure_state(f.victim.addr, f.victim.bit)
              .cfst_victim.push_back(entry);
          addr_flags_[f.aggressor.addr] |= kHasAggressor;
          addr_flags_[f.victim.addr] |= kHasCfstVictim;
        } else if constexpr (std::is_same_v<T, AddressDecoderFault>) {
          if (f.logical >= g.num_words())
            throw std::invalid_argument("AF logical address out of range");
          for (Address p : f.physical)
            if (p >= g.num_words())
              throw std::invalid_argument("AF physical address out of range");
          auto& entries = af_[f.logical];
          bool replaced = false;
          for (auto& e : entries)
            if (e.lane == lane_bit) {  // last wins, like the scalar remap
              e.physical = f.physical;
              replaced = true;
            }
          if (!replaced) entries.push_back({lane_bit, f.physical});
          addr_flags_[f.logical] |= kHasAf;
        } else if constexpr (std::is_same_v<T, StuckOpenFault>) {
          check_bitref(f.cell);
          ensure_state(f.cell.addr, f.cell.bit).stuck_open |= lane_bit;
        } else if constexpr (std::is_same_v<T, DataRetentionFault>) {
          check_bitref(f.cell);
          auto& cs = ensure_state(f.cell.addr, f.cell.bit);
          cs.drf_mask |= lane_bit;
          bool replaced = false;
          for (auto& e : cs.drf)
            if (e.lane == lane_bit) {  // last wins, like the scalar optional
              e.leak_to = f.leak_to;
              e.hold_time_ns = f.hold_time_ns;
              replaced = true;
            }
          if (!replaced)
            cs.drf.push_back({lane_bit, f.leak_to, f.hold_time_ns, 0});
          addr_flags_[f.cell.addr] |= kHasDrf;
        } else if constexpr (std::is_same_v<T, IncorrectReadFault>) {
          check_bitref(f.cell);
          ensure_state(f.cell.addr, f.cell.bit).read_invert |= lane_bit;
        } else if constexpr (std::is_same_v<T, WriteDisturbFault>) {
          check_bitref(f.cell);
          ensure_state(f.cell.addr, f.cell.bit).write_disturb |= lane_bit;
        } else if constexpr (std::is_same_v<T, ReadDestructiveFault>) {
          check_bitref(f.cell);
          auto& cs = ensure_state(f.cell.addr, f.cell.bit);
          cs.rdf_mask |= lane_bit;
          cs.rdf_deceptive = f.deceptive ? cs.rdf_deceptive | lane_bit
                                         : cs.rdf_deceptive & ~lane_bit;
        } else if constexpr (std::is_same_v<T, NeighborhoodPatternFault>) {
          check_bitref(f.base);
          if (f.neighbors.empty() || f.neighbors.size() > 16)
            throw std::invalid_argument("NPSF needs 1..16 neighbors");
          for (const auto& n : f.neighbors) {
            check_bitref(n);
            if (n == f.base)
              throw std::invalid_argument("NPSF base among its neighbors");
          }
          npsf_.push_back({lane_bit, f});
        } else if constexpr (std::is_same_v<T, PortReadFault>) {
          if (f.port < 0 || f.port >= g.num_ports || f.bit < 0 ||
              f.bit >= g.word_bits)
            throw std::invalid_argument("port fault outside geometry: " +
                                        describe(fault));
          if (pf_invert_.empty())
            pf_invert_.assign(static_cast<std::size_t>(g.num_ports) *
                                  static_cast<std::size_t>(g.word_bits),
                              0);
          pf_invert_[static_cast<std::size_t>(f.port) *
                         static_cast<std::size_t>(g.word_bits) +
                     static_cast<std::size_t>(f.bit)] |= lane_bit;
          has_pf_ = true;
        }
      },
      fault);
}

void PackedFaultyMemory::settle(Address addr, int bit, CellState& st,
                                std::uint64_t mask) {
  const std::uint64_t candidates = st.drf_mask & mask;
  if (candidates == 0) return;
  const std::size_t ci = cell_index(addr, bit);
  for (const auto& e : st.drf) {
    if ((e.lane & candidates) == 0) continue;
    if (now_ns_ - e.last_write_ns > e.hold_time_ns)
      cells_[ci] = e.leak_to ? cells_[ci] | e.lane : cells_[ci] & ~e.lane;
  }
}

void PackedFaultyMemory::settle_ref(const BitRef& ref, std::uint64_t mask) {
  if (CellState* st = state_of(ref.addr, ref.bit); st != nullptr)
    settle(ref.addr, ref.bit, *st, mask);
}

void PackedFaultyMemory::force_lanes(const BitRef& victim, std::uint64_t lanes,
                                     bool value) {
  if (CellState* st = state_of(victim.addr, victim.bit); st != nullptr) {
    lanes &= ~(st->stuck_mask | st->stuck_open);  // undisturbable lanes
    if (lanes == 0) return;
  }
  const std::size_t ci = cell_index(victim.addr, victim.bit);
  cells_[ci] = value ? cells_[ci] | lanes : cells_[ci] & ~lanes;
  mark_written(victim.addr);
}

void PackedFaultyMemory::write_word(Address addr, Word data,
                                    std::uint64_t mask) {
  const int width = geometry_.word_bits;
  std::uint64_t any_transition = 0;
  mark_written(addr);

  // Phase 1: all bits driven simultaneously; per lane, SAF/SOF hold,
  // TF blocks the attempted transition, WDF flips non-transition writes.
  for (int bit = 0; bit < width; ++bit) {
    const std::size_t ci = cell_index(addr, bit);
    const bool desired = ((data >> bit) & 1u) != 0;
    const std::int32_t idx = state_index_[ci];
    std::uint64_t rise = 0;
    std::uint64_t fall = 0;
    if (idx < 0) {
      const std::uint64_t old = cells_[ci];
      const std::uint64_t changed =
          (desired ? ~old : old) & mask;
      rise = desired ? changed : 0;
      fall = desired ? 0 : changed;
      cells_[ci] = old ^ changed;
    } else {
      CellState& st = states_[static_cast<std::size_t>(idx)];
      settle(addr, bit, st, mask);
      const std::uint64_t old = cells_[ci];
      const std::uint64_t effective =
          mask & ~(st.stuck_open | st.stuck_mask);
      if (desired) {
        rise = effective & ~old & ~st.tf_rising;
        fall = effective & old & st.write_disturb;
      } else {
        fall = effective & old & ~st.tf_falling;
        rise = effective & ~old & st.write_disturb;
      }
      cells_[ci] = old ^ rise ^ fall;
    }
    rising_[static_cast<std::size_t>(bit)] = rise;
    falling_[static_cast<std::size_t>(bit)] = fall;
    any_transition |= rise | fall;
  }

  const std::uint8_t flags = addr_flags_[addr];

  // Phase 2a: CFst enforcement on every written victim bit — a victim
  // written while its aggressor (possibly updated in the same word) holds
  // the forcing state does not keep the written value.
  if ((flags & kHasCfstVictim) != 0) {
    for (int bit = 0; bit < width; ++bit) {
      CellState* st = state_of(addr, bit);
      if (st == nullptr || st->cfst_victim.empty()) continue;
      for (const auto& f : st->cfst_victim) {
        const std::uint64_t lane = f.lane & mask;
        if (lane == 0) continue;
        settle_ref(f.aggressor, lane);
        const bool aggressor_set =
            (cells_[cell_index(f.aggressor.addr, f.aggressor.bit)] & lane) !=
            0;
        if (aggressor_set == f.aggressor_state)
          force_lanes(f.victim, lane, f.forced_value);
      }
    }
  }

  // Phase 2b: aggressor-transition effects (CFin / CFid / CFst), applied
  // after the write drivers release, in bit order then injection order —
  // exactly the scalar transition walk.  No cascading through victims.
  if ((flags & kHasAggressor) != 0 && any_transition != 0) {
    for (int bit = 0; bit < width; ++bit) {
      const std::uint64_t rise = rising_[static_cast<std::size_t>(bit)];
      const std::uint64_t fall = falling_[static_cast<std::size_t>(bit)];
      if ((rise | fall) == 0) continue;
      CellState* st = state_of(addr, bit);
      if (st == nullptr) continue;
      for (const auto& f : st->cfin) {
        const std::uint64_t lane = (f.on_rising ? rise : fall) & f.lane;
        if (lane == 0) continue;
        const bool current =
            (cells_[cell_index(f.victim.addr, f.victim.bit)] & lane) != 0;
        force_lanes(f.victim, lane, !current);
      }
      for (const auto& f : st->cfid) {
        const std::uint64_t lane = (f.on_rising ? rise : fall) & f.lane;
        if (lane != 0) force_lanes(f.victim, lane, f.forced_value);
      }
      for (const auto& f : st->cfst_aggressor) {
        const std::uint64_t lane = (f.aggressor_state ? rise : fall) & f.lane;
        if (lane != 0) force_lanes(f.victim, lane, f.forced_value);
      }
    }
  }
}

void PackedFaultyMemory::write_and_stamp(Address addr, Word data,
                                         std::uint64_t mask) {
  write_word(addr, data, mask);
  if ((addr_flags_[addr] & kHasDrf) == 0) return;
  // The scalar model stamps last_write_ns_[addr] after the word settles;
  // per lane that is exactly the retention entries of the lanes whose
  // write reached this physical address.
  for (int bit = 0; bit < geometry_.word_bits; ++bit) {
    CellState* st = state_of(addr, bit);
    if (st == nullptr || (st->drf_mask & mask) == 0) continue;
    for (auto& e : st->drf)
      if ((e.lane & mask) != 0) e.last_write_ns = now_ns_;
  }
}

void PackedFaultyMemory::read_cell(Address addr, std::uint64_t mask,
                                   std::uint64_t b2b) {
  const int width = geometry_.word_bits;
  for (int bit = 0; bit < width; ++bit) {
    const std::size_t ci = cell_index(addr, bit);
    const std::size_t col = static_cast<std::size_t>(bit);
    const std::int32_t idx = state_index_[ci];
    if (idx < 0) {
      const std::uint64_t stored = cells_[ci];
      sensed_[col] = stored;
      sense_residue_[col] = (sense_residue_[col] & ~mask) | (stored & mask);
      continue;
    }
    CellState& st = states_[static_cast<std::size_t>(idx)];
    settle(addr, bit, st, mask);
    const std::uint64_t stored = cells_[ci];
    // Mutually exclusive per-lane behaviors in scalar precedence order:
    // SOF > SAF > IRF > RDF/DRDF > plain.
    const std::uint64_t m_open = st.stuck_open & mask;
    std::uint64_t rest = mask & ~st.stuck_open;
    const std::uint64_t m_stuck = st.stuck_mask & rest;
    rest &= ~st.stuck_mask;
    const std::uint64_t m_irf = st.read_invert & rest;
    rest &= ~st.read_invert;
    const std::uint64_t m_flip = st.rdf_mask & ~st.rdf_deceptive & rest;
    const std::uint64_t m_weak = st.rdf_mask & st.rdf_deceptive & rest;
    const std::uint64_t m_plain = rest & ~st.rdf_mask;
    const std::uint64_t sensed =
        (stored & m_plain) | (st.stuck_value & m_stuck) |
        (~stored & (m_irf | m_flip)) |
        (m_weak & ((stored & ~b2b) | (~stored & b2b))) |
        (sense_residue_[col] & m_open);
    cells_[ci] = stored ^ m_flip;  // RDF: the read flips the cell
    // Open lanes keep the previous column residue (the scalar early
    // return); every other sensed lane refreshes it.
    const std::uint64_t refresh = mask & ~m_open;
    sense_residue_[col] =
        (sense_residue_[col] & ~refresh) | (sensed & refresh);
    sensed_[col] = sensed;
  }
}

void PackedFaultyMemory::invalidate_last_read() {
  last_read_.valid = false;
  lagging_ = 0;
}

std::uint64_t PackedFaultyMemory::read(int port, Address addr, Word expected) {
  assert(port >= 0 && port < geometry_.num_ports);
  assert(addr < geometry_.num_words());
  ops_begun_ = true;
  // An expected word wider than the memory fails in every lane, as the
  // scalar comparison of the masked sensed word with it does.
  const bool too_wide = (expected & ~geometry_.word_mask()) != 0;
  expected &= geometry_.word_mask();

  // Weak-cell (DRDF) excitation: lanes whose immediately preceding
  // operation was a read of this same address.
  std::uint64_t b2b = 0;
  if (last_read_.valid && last_read_.addr == addr) b2b = ~lagging_;
  for (std::uint64_t m = lagging_; m != 0; m &= m - 1) {
    const LastRead& e = lagging_last_read_[std::countr_zero(m)];
    if (e.valid && e.addr == addr) b2b |= m & -m;
  }

  const int width = geometry_.word_bits;
  std::uint64_t mismatch = 0;
  std::uint64_t base_mask = ~std::uint64_t{0};
  const std::vector<AfEntry>* af_entries = nullptr;
  if ((addr_flags_[addr] & kHasAf) != 0) {
    af_entries = &af_.find(addr)->second;
    for (const auto& e : *af_entries) base_mask &= ~e.lane;
  }

  // Lanes whose decoder is healthy at this address read the one cell.
  if (base_mask != 0) {
    read_cell(addr, base_mask, b2b);
    for (int bit = 0; bit < width; ++bit) {
      std::uint64_t sensed = sensed_[static_cast<std::size_t>(bit)];
      if (has_pf_)
        sensed ^= pf_invert_[static_cast<std::size_t>(port) *
                                 static_cast<std::size_t>(width) +
                             static_cast<std::size_t>(bit)];
      const std::uint64_t want =
          ((expected >> bit) & 1u) != 0 ? ~std::uint64_t{0} : 0;
      mismatch |= (sensed ^ want) & base_mask;
    }
  }

  // AF lanes walk their physical cell set: empty set reads the precharged
  // bitlines (constant 0, no side effects); multiple cells wired-AND.
  std::uint64_t reads_nowhere = 0;
  if (af_entries != nullptr) {
    for (const auto& e : *af_entries) {
      if (e.physical.empty()) {
        reads_nowhere |= e.lane;
        if (expected != 0) mismatch |= e.lane;
        continue;
      }
      Word word = geometry_.word_mask();
      for (const Address pa : e.physical) {
        read_cell(pa, e.lane, b2b);
        Word w = 0;
        for (int bit = 0; bit < width; ++bit)
          if ((sensed_[static_cast<std::size_t>(bit)] & e.lane) != 0)
            w |= Word{1} << bit;
        word &= w;
      }
      if (has_pf_) {
        for (int bit = 0; bit < width; ++bit)
          if ((pf_invert_[static_cast<std::size_t>(port) *
                              static_cast<std::size_t>(width) +
                          static_cast<std::size_t>(bit)] &
               e.lane) != 0)
            word ^= Word{1} << bit;
      }
      if (word != expected) mismatch |= e.lane;
    }
  }

  // Completed reads remember their address; a lane whose decoder selected
  // no cell keeps its previous state (the scalar early return).
  for (std::uint64_t m = reads_nowhere & ~lagging_; m != 0; m &= m - 1)
    lagging_last_read_[std::countr_zero(m)] = last_read_;
  lagging_ = reads_nowhere;
  last_read_ = {.valid = true, .addr = addr};
  return too_wide ? ~std::uint64_t{0} : mismatch;
}

void PackedFaultyMemory::write(int port, Address addr, Word data) {
  assert(port >= 0 && port < geometry_.num_ports);
  assert(addr < geometry_.num_words());
  (void)port;  // the array write path is port-independent
  ops_begun_ = true;
  invalidate_last_read();  // any write lets weak cells recover
  data &= geometry_.word_mask();

  if ((addr_flags_[addr] & kHasAf) == 0) {
    write_and_stamp(addr, data, ~std::uint64_t{0});
  } else {
    const auto& entries = af_.find(addr)->second;
    std::uint64_t base_mask = ~std::uint64_t{0};
    for (const auto& e : entries) base_mask &= ~e.lane;
    if (base_mask != 0) write_and_stamp(addr, data, base_mask);
    for (const auto& e : entries)
      for (const Address pa : e.physical) write_and_stamp(pa, data, e.lane);
  }

  // Neighborhood-pattern forcing, re-evaluated per lane after every write
  // (including writes to the base itself), like the scalar model.
  for (const auto& n : npsf_) {
    bool match = true;
    for (std::size_t i = 0; i < n.fault.neighbors.size() && match; ++i) {
      const bool want = ((n.fault.pattern >> i) & 1u) != 0;
      const bool held =
          (cells_[cell_index(n.fault.neighbors[i].addr,
                             n.fault.neighbors[i].bit)] &
           n.lane) != 0;
      if (held != want) match = false;
    }
    if (match) force_lanes(n.fault.base, n.lane, n.fault.forced_value);
  }
}

void PackedFaultyMemory::advance_time_ns(std::uint64_t ns) {
  ops_begun_ = true;
  now_ns_ += ns;
  invalidate_last_read();  // pauses let weak cells recover
}

void PackedFaultyMemory::skip_fault_free(std::optional<Word> last_read) {
  invalidate_last_read();
  if (!last_read) return;
  for (std::size_t bit = 0; bit < sense_residue_.size(); ++bit)
    sense_residue_[bit] =
        ((*last_read >> bit) & 1u) != 0 ? ~std::uint64_t{0} : 0;
}

Word PackedFaultyMemory::peek(Address addr, int lane) const {
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  Word w = 0;
  for (int bit = 0; bit < geometry_.word_bits; ++bit)
    if ((cells_[cell_index(addr, bit)] & lane_bit) != 0) w |= Word{1} << bit;
  return w;
}

}  // namespace pmbist::memsim
