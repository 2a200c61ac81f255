#include "memsim/faulty_memory.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace pmbist::memsim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

FaultyMemory::FaultyMemory(MemoryGeometry geometry, std::uint64_t powerup_seed)
    : Memory{geometry} {
  cells_.resize(geometry.num_words());
  std::uint64_t s = powerup_seed;
  for (auto& w : cells_) w = splitmix64(s) & geometry.word_mask();
  last_write_ns_.assign(geometry.num_words(), 0);
  per_bit_.assign(geometry.num_words(), 0);
}

FaultyMemory::FaultyMemory(MemoryGeometry geometry,
                           std::vector<Word> initial_contents)
    : Memory{geometry}, cells_{std::move(initial_contents)} {
  assert(cells_.size() == geometry.num_words());
  for (auto& w : cells_) w &= geometry.word_mask();
  last_write_ns_.assign(geometry.num_words(), 0);
  per_bit_.assign(geometry.num_words(), 0);
}

void FaultyMemory::reset(std::uint64_t powerup_seed) {
  faults_.clear();
  cell_state_.clear();
  cfin_by_aggressor_.clear();
  cfid_by_aggressor_.clear();
  cfst_by_aggressor_.clear();
  cfst_by_victim_.clear();
  af_remap_.clear();
  port_read_invert_.clear();
  npsf_.clear();
  now_ns_ = 0;
  last_read_addr_.reset();
  std::fill(last_write_ns_.begin(), last_write_ns_.end(), 0);
  std::fill(per_bit_.begin(), per_bit_.end(), 0);
  sense_residue_ = 0;
  std::uint64_t s = powerup_seed;
  for (auto& w : cells_) w = splitmix64(s) & geometry().word_mask();
}

void FaultyMemory::add_fault(const Fault& fault) {
  const auto& g = geometry();
  auto check_bitref = [&](const BitRef& b) {
    if (b.addr >= g.num_words() || b.bit < 0 || b.bit >= g.word_bits)
      throw std::invalid_argument("fault references cell outside geometry: " +
                                  describe(fault));
  };
  // Every cell a fault names is marked, once validated, through one of
  // these: its word leaves the word path.
  auto mark_word = [&](const BitRef& b) { per_bit_[b.addr] = 1; };
  auto cell_state = [&](const BitRef& b) -> CellState& {
    check_bitref(b);
    mark_word(b);
    return cell_state_[key(b.addr, b.bit)];
  };
  auto coupling = [&](const BitRef& aggressor, const BitRef& victim) {
    check_bitref(aggressor);
    check_bitref(victim);
    if (aggressor == victim)
      throw std::invalid_argument("coupling aggressor == victim");
    mark_word(aggressor);
    mark_word(victim);
    return key(aggressor.addr, aggressor.bit);
  };

  std::visit(
      [&](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, StuckAtFault>) {
          cell_state(f.cell).stuck_value = f.value;
          set_stored_bit(f.cell.addr, f.cell.bit, f.value);
        } else if constexpr (std::is_same_v<T, TransitionFault>) {
          auto& cs = cell_state(f.cell);
          (f.rising ? cs.tf_rising_blocked : cs.tf_falling_blocked) = true;
        } else if constexpr (std::is_same_v<T, InversionCouplingFault>) {
          cfin_by_aggressor_[coupling(f.aggressor, f.victim)].push_back(f);
        } else if constexpr (std::is_same_v<T, IdempotentCouplingFault>) {
          cfid_by_aggressor_[coupling(f.aggressor, f.victim)].push_back(f);
        } else if constexpr (std::is_same_v<T, StateCouplingFault>) {
          cfst_by_aggressor_[coupling(f.aggressor, f.victim)].push_back(f);
          cfst_by_victim_[key(f.victim.addr, f.victim.bit)].push_back(f);
        } else if constexpr (std::is_same_v<T, AddressDecoderFault>) {
          if (f.logical >= g.num_words())
            throw std::invalid_argument("AF logical address out of range");
          for (Address p : f.physical)
            if (p >= g.num_words())
              throw std::invalid_argument("AF physical address out of range");
          af_remap_[f.logical] = f.physical;
          per_bit_[f.logical] = 1;
        } else if constexpr (std::is_same_v<T, StuckOpenFault>) {
          cell_state(f.cell).stuck_open = true;
        } else if constexpr (std::is_same_v<T, DataRetentionFault>) {
          cell_state(f.cell).drf = f;
        } else if constexpr (std::is_same_v<T, IncorrectReadFault>) {
          cell_state(f.cell).read_inverted = true;
        } else if constexpr (std::is_same_v<T, WriteDisturbFault>) {
          cell_state(f.cell).write_disturb = true;
        } else if constexpr (std::is_same_v<T, ReadDestructiveFault>) {
          cell_state(f.cell).rdf = f;
        } else if constexpr (std::is_same_v<T, NeighborhoodPatternFault>) {
          check_bitref(f.base);
          if (f.neighbors.empty() || f.neighbors.size() > 16)
            throw std::invalid_argument("NPSF needs 1..16 neighbors");
          for (const auto& n : f.neighbors) {
            check_bitref(n);
            if (n == f.base)
              throw std::invalid_argument("NPSF base among its neighbors");
          }
          mark_word(f.base);
          for (const auto& n : f.neighbors) mark_word(n);
          npsf_.push_back(f);
        } else if constexpr (std::is_same_v<T, PortReadFault>) {
          if (f.port < 0 || f.port >= g.num_ports || f.bit < 0 ||
              f.bit >= g.word_bits)
            throw std::invalid_argument("port fault outside geometry: " +
                                        describe(fault));
          if (port_read_invert_.empty())
            port_read_invert_.assign(
                static_cast<std::size_t>(g.num_ports), 0);
          port_read_invert_[static_cast<std::size_t>(f.port)] |=
              Word{1} << f.bit;
        }
      },
      fault);
  faults_.push_back(fault);
}

bool FaultyMemory::stored_bit(Address addr, int bit) const {
  return (cells_[addr] >> bit) & 1u;
}

void FaultyMemory::set_stored_bit(Address addr, int bit, bool v) {
  if (v)
    cells_[addr] |= Word{1} << bit;
  else
    cells_[addr] &= ~(Word{1} << bit);
}

void FaultyMemory::settle_bit(Address addr, int bit) {
  auto it = cell_state_.find(key(addr, bit));
  if (it == cell_state_.end() || !it->second.drf) return;
  const auto& drf = *it->second.drf;
  if (now_ns_ - last_write_ns_[addr] > drf.hold_time_ns)
    set_stored_bit(addr, bit, drf.leak_to);
}

void FaultyMemory::force_bit(const BitRef& victim, bool value) {
  auto it = cell_state_.find(key(victim.addr, victim.bit));
  if (it != cell_state_.end()) {
    if (it->second.stuck_value) return;  // stuck cells cannot be disturbed
    if (it->second.stuck_open) return;   // open cells cannot be disturbed
  }
  set_stored_bit(victim.addr, victim.bit, value);
}

void FaultyMemory::write_word(Address addr, Word data) {
  // Phase 1: all bits of the word are driven simultaneously.  Compute and
  // commit the raw per-bit results (SAF/SOF/TF semantics), remembering
  // which bits actually transitioned.
  struct Transition {
    int bit;
    bool rising;
  };
  std::array<Transition, 64> transitions{};
  std::size_t num_transitions = 0;
  for (int bit = 0; bit < geometry().word_bits; ++bit) {
    settle_bit(addr, bit);
    const bool old = stored_bit(addr, bit);
    const bool desired = (data >> bit) & 1u;
    bool next = desired;
    if (auto it = cell_state_.find(key(addr, bit)); it != cell_state_.end()) {
      const CellState& cs = it->second;
      if (cs.stuck_open) continue;  // write never reaches the cell
      if (cs.stuck_value) continue; // cell holds the stuck value
      if (old != desired) {
        if (desired && cs.tf_rising_blocked) next = old;
        if (!desired && cs.tf_falling_blocked) next = old;
      } else if (cs.write_disturb) {
        next = !old;  // non-transition write flips the cell
      }
    }
    if (next == old) continue;
    set_stored_bit(addr, bit, next);
    transitions[num_transitions++] = Transition{bit, next};
  }

  // Phase 2a: state-coupling enforcement — a victim written while its
  // aggressor (possibly just updated in the same word) holds the forcing
  // state does not keep the written value.
  for (int bit = 0; bit < geometry().word_bits; ++bit) {
    if (auto vit = cfst_by_victim_.find(key(addr, bit));
        vit != cfst_by_victim_.end()) {
      for (const auto& f : vit->second) {
        settle_bit(f.aggressor.addr, f.aggressor.bit);
        if (stored_bit(f.aggressor.addr, f.aggressor.bit) ==
            f.aggressor_state)
          force_bit(f.victim, f.forced_value);
      }
    }
  }

  // Phase 2b: aggressor transition effects.  The coupling disturb settles
  // after the write drivers release, so it wins over a simultaneous write
  // to the victim (this is what makes intra-word coupling detectable with
  // data backgrounds).  No cascading through victims.
  for (const auto& tr : std::span{transitions}.first(num_transitions)) {
    const std::uint64_t k = key(addr, tr.bit);
    if (auto fit = cfin_by_aggressor_.find(k);
        fit != cfin_by_aggressor_.end())
      for (const auto& f : fit->second)
        if (f.on_rising == tr.rising)
          force_bit(f.victim, !stored_bit(f.victim.addr, f.victim.bit));
    if (auto fit = cfid_by_aggressor_.find(k);
        fit != cfid_by_aggressor_.end())
      for (const auto& f : fit->second)
        if (f.on_rising == tr.rising) force_bit(f.victim, f.forced_value);
    if (auto fit = cfst_by_aggressor_.find(k);
        fit != cfst_by_aggressor_.end())
      for (const auto& f : fit->second)
        if (tr.rising == f.aggressor_state)
          force_bit(f.victim, f.forced_value);
  }
}

bool FaultyMemory::read_bit(Address addr, int bit, bool back_to_back) {
  settle_bit(addr, bit);
  bool sensed;
  auto it = cell_state_.find(key(addr, bit));
  if (it == cell_state_.end()) {
    sensed = stored_bit(addr, bit);
  } else {
    const CellState& cs = it->second;
    if (cs.stuck_open) {
      // Open cell: the sense amplifier keeps the previous column value.
      return (sense_residue_ >> bit) & 1u;
    }
    if (cs.stuck_value) {
      sensed = *cs.stuck_value;
    } else if (cs.read_inverted) {
      sensed = !stored_bit(addr, bit);  // cell undisturbed
    } else if (cs.rdf && !cs.rdf->deceptive) {
      // RDF: every read flips the cell and senses the flipped value.
      const bool stored = stored_bit(addr, bit);
      sensed = !stored;
      set_stored_bit(addr, bit, !stored);
    } else if (cs.rdf && cs.rdf->deceptive) {
      // Weak cell: a back-to-back read of the same cell misreads (the
      // broken pull-up/down cannot restore the bitline in time); the cell
      // recovers on any other operation.
      sensed = back_to_back ? !stored_bit(addr, bit) : stored_bit(addr, bit);
    } else {
      sensed = stored_bit(addr, bit);
    }
  }
  sense_residue_ =
      (sense_residue_ & ~(Word{1} << bit)) | (Word{sensed} << bit);
  return sensed;
}

std::span<const Address> FaultyMemory::physical_addresses(
    const Address& logical) const {
  if (auto it = af_remap_.find(logical); it != af_remap_.end())
    return it->second;
  return {&logical, 1};
}

Word FaultyMemory::read(int port, Address addr) {
  check_access(port, addr);
  Word result = 0;
  if (!per_bit_[addr]) {
    result = cells_[addr];
    sense_residue_ = result;  // every column senses its cell
  } else {
    const auto physical = physical_addresses(addr);
    if (physical.empty()) {
      // No cell selected: the precharged-and-equalized bitlines resolve to
      // a constant at the sense amplifier (modeled as all-zeros).
      return 0;
    }
    // Multiple selected cells short their bitlines: wired-AND.
    const bool back_to_back = last_read_addr_ && *last_read_addr_ == addr;
    result = geometry().word_mask();
    for (Address pa : physical) {
      Word w = 0;
      for (int b = 0; b < geometry().word_bits; ++b)
        if (read_bit(pa, b, back_to_back)) w |= Word{1} << b;
      result &= w;
    }
  }
  last_read_addr_ = addr;
  // Defective port read path inverts its bits after the array access.
  if (!port_read_invert_.empty())
    result ^= port_read_invert_[static_cast<std::size_t>(port)];
  return result;
}

void FaultyMemory::write(int port, Address addr, Word data) {
  check_access(port, addr);
  last_read_addr_.reset();  // any write lets weak cells recover
  data &= geometry().word_mask();
  if (!per_bit_[addr]) {
    cells_[addr] = data;
    last_write_ns_[addr] = now_ns_;
  } else {
    for (Address pa : physical_addresses(addr)) {
      write_word(pa, data);
      last_write_ns_[pa] = now_ns_;
    }
  }
  // Neighborhood-pattern forcing: static NPSFs hold the base cell at the
  // forced value for as long as the neighborhood pattern is present, so
  // re-evaluate after every write (including writes to the base itself).
  for (const auto& f : npsf_) {
    bool match = true;
    for (std::size_t i = 0; i < f.neighbors.size() && match; ++i) {
      const bool want = (f.pattern >> i) & 1u;
      if (stored_bit(f.neighbors[i].addr, f.neighbors[i].bit) != want)
        match = false;
    }
    if (match) force_bit(f.base, f.forced_value);
  }
}

void FaultyMemory::advance_time_ns(std::uint64_t ns) {
  now_ns_ += ns;
  last_read_addr_.reset();  // pauses let weak cells recover
}

}  // namespace pmbist::memsim
