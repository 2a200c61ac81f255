#include "bist/misr.h"

#include <cassert>
#include <stdexcept>

#include "march/expand.h"

namespace pmbist::bist {

Word Misr::polynomial(int width) {
  // Galois (right-shift) tap masks; primitive for the tabulated widths.
  switch (width) {
    case 1: return 0x1;
    case 2: return 0x3;
    case 3: return 0x6;
    case 4: return 0xC;
    case 5: return 0x14;
    case 6: return 0x30;
    case 7: return 0x60;
    case 8: return 0xB8;
    case 16: return 0xB400;
    case 24: return 0xE10000;
    case 32: return 0xA3000000u;
    case 64: return 0xD800000000000000ull;
    default: break;
  }
  if (width < 1 || width > 64)
    throw std::invalid_argument("MISR width must be 1..64");
  // Two top taps: x^w + x^(w-1) + 1 — adequate compaction default.
  return (Word{0x3} << (width - 2));
}

Misr::Misr(int width, Word seed)
    : width_{width},
      poly_{polynomial(width)},
      mask_{width >= 64 ? ~Word{0} : ((Word{1} << width) - 1)} {
  reset(seed);
}

void Misr::reset(Word seed) {
  state_ = seed & mask_;
  count_ = 0;
}

netlist::GateInventory Misr::area(int width) {
  netlist::GateInventory inv =
      netlist::register_bank(width, netlist::RegisterKind::Scan);
  // Feedback XOR per tap, input XOR per bit, plus the final compare
  // against the golden signature.
  inv.add(netlist::Cell::Xor2, __builtin_popcountll(polynomial(width)));
  inv += netlist::xor_bank(width);
  inv += netlist::equality_comparator(width);
  return inv;
}

MisrAffine::MisrAffine(int width) : width_{width} {
  (void)Misr::polynomial(width);  // validates the width
  for (int j = 0; j < width; ++j)
    columns_[static_cast<std::size_t>(j)] = Word{1} << j;
}

MisrAffine MisrAffine::absorbing(int width, std::span<const Word> values) {
  MisrAffine map{width};
  for (int j = 0; j < width; ++j) {
    Misr column{width, Word{1} << j};
    for (std::size_t i = 0; i < values.size(); ++i) column.absorb(0);
    map.columns_[static_cast<std::size_t>(j)] = column.signature();
  }
  Misr offset{width, 0};
  for (const Word v : values) offset.absorb(v);
  map.offset_ = offset.signature();
  return map;
}

MisrAffine MisrAffine::then(const MisrAffine& next) const {
  assert(next.width_ == width_);
  MisrAffine out{width_};
  for (int j = 0; j < width_; ++j) {
    const auto c = static_cast<std::size_t>(j);
    out.columns_[c] = next.linear(columns_[c]);
  }
  out.offset_ = next.apply(offset_);
  return out;
}

MisrAffine MisrAffine::power(std::uint64_t n) const {
  MisrAffine result{width_};
  MisrAffine doubled = *this;
  for (; n != 0; n >>= 1) {
    if (n & 1) result = result.then(doubled);
    if (n > 1) doubled = doubled.then(doubled);
  }
  return result;
}

MisrSkip::MisrSkip(int width, std::uint64_t longest_run)
    : poly_{Misr::polynomial(width)},
      mask_{width >= 64 ? ~Word{0} : ((Word{1} << width) - 1)},
      step_limit_{4 * width} {
  if (longest_run <= static_cast<std::uint64_t>(step_limit_)) return;
  const Word zero = 0;
  powers_.push_back(MisrAffine::absorbing(width, {&zero, 1}));
  while ((longest_run >> powers_.size()) != 0)
    powers_.push_back(powers_.back().then(powers_.back()));
}

Word MisrSkip::skip(Word state, std::uint64_t zeros) const noexcept {
  if (state == 0) return 0;
  if (zeros <= static_cast<std::uint64_t>(step_limit_)) {
    for (; zeros != 0; --zeros) state = Misr::shift(state, poly_);
    return state;
  }
  assert((zeros >> powers_.size()) == 0);
  for (std::size_t k = 0; zeros != 0; ++k, zeros >>= 1)
    if (zeros & 1) state = powers_[k].apply(state);
  return state;
}

Word golden_signature(const march::MarchAlgorithm& alg,
                      const memsim::MemoryGeometry& geometry, int misr_width,
                      Word seed) {
  assert(alg.validate().empty());
  const Word mask = geometry.word_mask();
  Word state = Misr{misr_width, seed}.signature();
  std::vector<Word> reads;
  for (int port = 0; port < geometry.num_ports; ++port)
    for (const Word bg : march::standard_backgrounds(geometry.word_bits))
      for (const march::MarchElement& el : alg.elements()) {
        reads.clear();
        for (const march::MarchOp& op : el.ops)
          if (op.is_read())
            reads.push_back(march::apply_background(op.data, bg, mask));
        if (el.is_pause || reads.empty()) continue;
        state = MisrAffine::absorbing(misr_width, reads)
                    .power(geometry.num_words())
                    .apply(state);
      }
  return state;
}

MisrSessionResult run_session_misr(Controller& controller,
                                   memsim::Memory& memory, int misr_width,
                                   Word golden, Word seed,
                                   const SessionOptions& options) {
  controller.reset();
  MisrSessionResult result;
  result.golden = golden;
  Misr misr{misr_width, seed};

  std::size_t op_index = 0;
  while (!controller.done()) {
    if (result.session.cycles >= options.max_cycles) return result;
    ++result.session.cycles;
    const auto op = controller.step();
    if (!op) continue;
    switch (op->kind) {
      case march::MemOp::Kind::Pause:
        memory.advance_time_ns(op->pause_ns());
        ++result.session.pauses;
        break;
      case march::MemOp::Kind::Write:
        memory.write(op->port, op->addr, op->data);
        ++result.session.writes;
        break;
      case march::MemOp::Kind::Read: {
        const Word actual = memory.read(op->port, op->addr);
        ++result.session.reads;
        misr.absorb(actual);
        if (actual != op->data) {
          ++result.session.mismatches;
          if (result.session.failures.size() < options.max_failures)
            result.session.failures.push_back(
                march::Failure{op_index, *op, actual});
        }
        break;
      }
    }
    ++op_index;
  }
  result.session.state = SessionState::Completed;
  result.signature = misr.signature();
  return result;
}

}  // namespace pmbist::bist
