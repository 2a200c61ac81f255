#include "backend/sweep.h"

#include <algorithm>
#include <cassert>

#include "march/expand.h"

namespace pmbist::backend::detail {
namespace {

/// Traversal steps per block: 4 KiB of words, so a block compared and
/// then filled is still in L1 when the fill runs.
constexpr std::size_t kBlock = 512;

bool matches(const Word* words, std::size_t count, Word expected) {
  Word diff = 0;
  for (std::size_t i = 0; i < count; ++i) diff |= words[i] ^ expected;
  return diff == 0;
}

}  // namespace

/// Σ_p M^(R-1-p)·e_p, built in read order: a MISR absorbing each error,
/// skipped over the matching reads between errors.
class ElementSweep::Correction {
 public:
  explicit Correction(const bist::MisrSkip& skip) : skip_{skip} {}

  void fold(std::uint64_t read, Word error) {
    term_ = skip_.absorb(skip_.skip(term_, read - folded_), error);
    folded_ = read + 1;
  }
  /// The term after the element's `reads` reads.
  [[nodiscard]] Word finish(std::uint64_t reads) const {
    return skip_.skip(term_, reads - folded_);
  }

 private:
  const bist::MisrSkip& skip_;
  Word term_ = 0;
  std::uint64_t folded_ = 0;  ///< reads already accounted for in term_
};

ElementSweep::ElementSweep(const march::MarchElement& el, Word background,
                           Word word_mask, std::size_t words_per_shard,
                           int misr_width)
    : descending_{el.order == march::AddressOrder::Down},
      words_{words_per_shard},
      golden_{misr_width} {
  std::vector<Word> expected;
  bool written = false;
  compare_first_ = true;
  for (const march::MarchOp& op : el.ops) {
    const Word value = march::apply_background(op.data, background, word_mask);
    ops_.push_back(Op{op.is_read(), value});
    if (op.is_read()) {
      if (written || (!expected.empty() && value != expected.front()))
        compare_first_ = false;
      expected.push_back(value);
    } else {
      written = true;
      fill_ = value;
    }
  }
  reads_ = expected.size();
  writes_ = written;
  if (!expected.empty()) {
    expected_ = expected.front();
    golden_ =
        bist::MisrAffine::absorbing(misr_width, expected).power(words_per_shard);
  }
}

void ElementSweep::walk(std::span<Word> shard, Address base, std::size_t begin,
                        std::size_t end, std::size_t max_failures,
                        ShardState& st, Correction& correction) const {
  const std::size_t n = shard.size();
  const std::size_t k = ops_.size();
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t offset = descending_ ? n - 1 - i : i;
    Word& cell = shard[offset];
    std::uint64_t read = i * reads_;
    for (std::size_t j = 0; j < k; ++j) {
      const Op& op = ops_[j];
      if (!op.read) {
        cell = op.value;
        continue;
      }
      const Word actual = cell;
      if (actual != op.value) [[unlikely]] {
        ++st.mismatches;
        correction.fold(read, actual ^ op.value);
        if (st.failures.size() < max_failures) {
          st.failures.push_back(march::Failure{
              st.op_index + i * k + j,
              march::MemOp::read(0, static_cast<Address>(base + offset),
                                 op.value),
              actual});
        }
      }
      ++read;
    }
  }
}

void ElementSweep::run(std::span<Word> shard, Address base,
                       const bist::MisrSkip& skip, std::size_t max_failures,
                       ShardState& st) const {
  assert(shard.size() == words_);
  const std::size_t n = shard.size();
  Correction correction{skip};
  if (reads_ == 0) {
    if (writes_) std::fill(shard.begin(), shard.end(), fill_);
  } else if (!compare_first_) {
    walk(shard, base, 0, n, max_failures, st, correction);
  } else {
    // Blocks in traversal order, so failures stay in op order.  A block
    // that compares clean is filled; any other is walked op by op (the
    // compare wrote nothing, so the walk sees the same words).
    for (std::size_t begin = 0; begin < n; begin += kBlock) {
      const std::size_t end = std::min(n, begin + kBlock);
      Word* first = shard.data() + (descending_ ? n - end : begin);
      if (!matches(first, end - begin, expected_)) {
        walk(shard, base, begin, end, max_failures, st, correction);
      } else if (writes_) {
        std::fill(first, first + (end - begin), fill_);
      }
    }
  }
  const std::uint64_t reads = n * reads_;
  st.reads += reads;
  st.writes += n * (ops_.size() - reads_);
  st.op_index += n * ops_.size();
  if (reads_ > 0)
    st.signature = golden_.apply(st.signature) ^ correction.finish(reads);
}

}  // namespace pmbist::backend::detail
