#pragma once
// The host-RAM memtest's per-shard march sweep: one march element under
// one data background, applied to one shard of directly mapped words.
// Internal to the memtest engine; declared here for its differential
// tests.
//
// Reads only compare against the expected word and OR the differences;
// the MISR is never clocked for a matching read.  The shard signature
// follows from MISR linearity instead.  With R reads on the shard in this
// element and mismatch errors e_p = actual ⊕ expected at read positions p,
//
//   after = golden(before) ⊕ Σ_p M^(R-1-p)·e_p
//
// golden is one address's reads (an affine step s ↦ A·s ⊕ b) raised to
// the shard's word count by doubling (bist::MisrAffine), computed once per
// (element, background) and shared by every shard.  The sum is a MISR fed
// only the errors and skipped over the matching reads between them
// (bist::MisrSkip).  The result equals a serial bist::Misr clocked on
// every read, and counts, failure records and op indices equal the
// per-op walk's.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.h"
#include "bist/misr.h"
#include "march/coverage.h"
#include "march/march.h"

namespace pmbist::backend::detail {

/// One shard's march state, carried across elements, backgrounds and
/// passes so op indices and the signature cover its whole access history.
struct ShardState {
  Word signature = 0;  ///< the shard's MISR state
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t op_index = 0;  ///< index into the shard's own op stream
  std::vector<march::Failure> failures;
};

class ElementSweep {
 public:
  /// Prepares `el` under `background` for shards of `words_per_shard`
  /// words and a MISR of `misr_width` bits.
  ElementSweep(const march::MarchElement& el, Word background, Word word_mask,
               std::size_t words_per_shard, int misr_width);

  /// Applies the element to `shard` (words_per_shard words, the first at
  /// buffer address `base`), keeping at most `max_failures` records.
  /// `skip` must cover runs of the element's reads on the shard.
  void run(std::span<Word> shard, Address base, const bist::MisrSkip& skip,
           std::size_t max_failures, ShardState& st) const;

 private:
  struct Op {
    bool read;
    Word value;  ///< written or expected word
  };
  class Correction;

  /// The per-op walk over traversal steps [begin, end): every read
  /// compared, every mismatch recorded and folded into `correction`.
  void walk(std::span<Word> shard, Address base, std::size_t begin,
            std::size_t end, std::size_t max_failures, ShardState& st,
            Correction& correction) const;

  bool descending_;
  std::vector<Op> ops_;
  std::size_t reads_ = 0;  ///< reads per address
  /// Every read precedes every write and expects `expected_`, so a block
  /// can be compared first and then filled with `fill_`.
  bool compare_first_ = false;
  Word expected_ = 0;
  bool writes_ = false;
  Word fill_ = 0;  ///< the last word written to each address
  std::size_t words_;
  bist::MisrAffine golden_;
};

}  // namespace pmbist::backend::detail
