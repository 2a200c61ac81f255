#pragma once
// MISR (multiple-input signature register) response compaction.
//
// The paper's BIST datapath uses a deterministic comparator (expected data
// is regenerated on chip).  The classic alternative — standard in BIST
// practice (Bardell/McAnney/Savir, the paper's ref [1]) — compacts all
// read responses into an LFSR signature and compares one word at the end:
// cheaper observation wiring, no per-cycle expected-data distribution, at
// the cost of a 2^-w aliasing probability and the loss of per-cell failure
// data (which is why diagnostics-oriented BIST, the paper's focus, keeps
// the comparator).  Both datapaths are modeled so the trade-off can be
// measured (bench_misr_compaction).
//
// March read responses are data-independent (every algorithm starts with a
// write sweep), so the golden signature is computed by folding the
// *expected* read values of the reference expansion — exactly what a
// signature-prediction tool would emit.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bist/controller.h"
#include "bist/session.h"
#include "netlist/components.h"

namespace pmbist::bist {

using memsim::Word;

/// Galois LFSR-based multiple-input signature register, 1..64 bits wide.
/// Feedback polynomials are primitive for the tabulated widths
/// (1-8, 16, 24, 32, 64); other widths use a maximal-position two-tap
/// default, which is sufficient for compaction (not necessarily
/// maximal-length).
class Misr {
 public:
  explicit Misr(int width, Word seed = 0);

  void reset(Word seed = 0);
  /// Folds one read response into the signature (one clock of the MISR).
  void absorb(Word value) noexcept {
    state_ = (shift(state_, poly_) ^ value) & mask_;
    ++count_;
  }
  /// One zero-input clock of a register with taps `poly`: M·state.
  [[nodiscard]] static Word shift(Word state, Word poly) noexcept {
    return (state >> 1) ^ (poly & (Word{0} - (state & 1)));
  }

  [[nodiscard]] Word signature() const noexcept { return state_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t absorbed() const noexcept { return count_; }

  /// Feedback polynomial (tap mask) used for `width`.
  [[nodiscard]] static Word polynomial(int width);
  /// Structural cost: scan flip-flops + feedback XORs + input XOR stage.
  [[nodiscard]] static netlist::GateInventory area(int width);

 private:
  int width_;
  Word poly_;
  Word mask_;
  Word state_ = 0;
  std::uint64_t count_ = 0;
};

/// An affine map s ↦ A·s ⊕ b on a `width`-bit MISR state, A a matrix over
/// GF(2).  Composition and powers cost O(w²) and O(w² log n).
class MisrAffine {
 public:
  /// The identity map.
  explicit MisrAffine(int width);
  /// The map of absorbing `values` in order, from any state.
  [[nodiscard]] static MisrAffine absorbing(int width,
                                            std::span<const Word> values);

  [[nodiscard]] Word apply(Word state) const noexcept {
    return linear(state) ^ offset_;
  }
  /// This map followed by `next`: s ↦ next(this(s)).
  [[nodiscard]] MisrAffine then(const MisrAffine& next) const;
  /// This map applied n times (n = 0 gives the identity).
  [[nodiscard]] MisrAffine power(std::uint64_t n) const;

 private:
  [[nodiscard]] Word linear(Word state) const noexcept {
    Word out = 0;
    for (int j = 0; j < width_; ++j)
      out ^= columns_[static_cast<std::size_t>(j)] &
             (Word{0} - ((state >> j) & 1));
    return out;
  }

  int width_;
  std::array<Word, 64> columns_{};  ///< columns_[j] = A·e_j
  Word offset_ = 0;                 ///< b, the image of the zero state
};

/// Advances a MISR state over a run of zero inputs, M^n·s: clock by clock
/// for short runs, through the powers M^(2^k) for long ones.
class MisrSkip {
 public:
  /// Tabulates the powers needed for runs of up to `longest_run` zeros.
  MisrSkip(int width, std::uint64_t longest_run);

  /// One clock absorbing `value`.
  [[nodiscard]] Word absorb(Word state, Word value) const noexcept {
    return (Misr::shift(state, poly_) ^ value) & mask_;
  }
  /// `zeros` zero-input clocks; `zeros` must not exceed `longest_run`.
  [[nodiscard]] Word skip(Word state, std::uint64_t zeros) const noexcept;

 private:
  Word poly_;
  Word mask_;
  int step_limit_;  ///< runs up to this long are clocked directly
  std::vector<MisrAffine> powers_;  ///< powers_[k] = M^(2^k)
};

/// Golden signature for `alg` over `geometry`: the fold of all expected
/// read values of the reference expansion, in order.  Expected values do
/// not depend on the address, so each element folds in closed form as the
/// words-th power of one address's reads.
[[nodiscard]] Word golden_signature(const march::MarchAlgorithm& alg,
                                    const memsim::MemoryGeometry& geometry,
                                    int misr_width, Word seed = 0);

/// Result of a signature-compacted BIST run.  The comparator-based session
/// result is carried along so verdicts can be compared.
struct MisrSessionResult {
  SessionResult session;  ///< comparator view (failure log etc.)
  Word signature = 0;     ///< MISR state after the run
  Word golden = 0;        ///< expected signature
  [[nodiscard]] bool signature_pass() const noexcept {
    return session.completed() && signature == golden;
  }
};

/// Runs `controller` against `memory`, compacting every read into a MISR
/// of `misr_width` bits while also keeping the comparator verdict.
MisrSessionResult run_session_misr(Controller& controller,
                                   memsim::Memory& memory, int misr_width,
                                   Word golden, Word seed = 0,
                                   const SessionOptions& options = {});

}  // namespace pmbist::bist
