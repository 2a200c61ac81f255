#pragma once
// Reference expansion of a march algorithm into the exact operation stream
// a correct BIST controller must apply to the memory under test.  This is
// the semantic ground truth of the project: the microcode-based,
// programmable-FSM-based and hardwired controllers are all tested for
// op-stream equivalence against expand().
//
// Loop nesting follows the paper's microcode program for March C (Fig. 2):
// the whole algorithm repeats for each data background (word-oriented
// memories), and that in turn repeats for each port (multiport memories):
//
//   for port: for background: for element: for address: for op
//
// March data d expands against the active background B as d=0 -> B,
// d=1 -> ~B (masked to the word width).

#include <span>
#include <vector>

#include "march/march.h"
#include "memsim/memory.h"

namespace pmbist::march {

using memsim::Address;
using memsim::MemoryGeometry;
using memsim::Word;

/// One expanded memory operation (or pause) as applied by a controller.
struct MemOp {
  enum class Kind : std::uint8_t { Write, Read, Pause } kind = Kind::Write;
  int port = 0;
  Address addr = 0;
  Word data = 0;  ///< written value, or expected value for reads
  std::uint64_t pause_ns = 0;

  [[nodiscard]] static MemOp write(int port, Address a, Word d) {
    return {Kind::Write, port, a, d, 0};
  }
  [[nodiscard]] static MemOp read(int port, Address a, Word expected) {
    return {Kind::Read, port, a, expected, 0};
  }
  [[nodiscard]] static MemOp pause(std::uint64_t ns) {
    return {Kind::Pause, 0, 0, 0, ns};
  }

  friend bool operator==(const MemOp&, const MemOp&) = default;
};

using OpStream = std::vector<MemOp>;

/// The standard data backgrounds for a word width: all-zeros plus the
/// log2(W) alternating-block patterns (0101.., 0011.., 00001111.., ...).
/// Bit-oriented memories get the single background {0}.
[[nodiscard]] std::vector<Word> standard_backgrounds(int word_bits);

/// Applies march data value d against background `bg`: d=0 -> bg,
/// d=1 -> ~bg, masked to the word width.
[[nodiscard]] inline Word apply_background(bool d, Word bg, Word mask) {
  return (d ? ~bg : bg) & mask;
}

/// Expands `alg` over `geometry` into the reference operation stream.
[[nodiscard]] OpStream expand(const MarchAlgorithm& alg,
                              const MemoryGeometry& geometry);

/// Expansion restricted to one (port, background) pass — the unit the
/// controllers' inner loops produce.
[[nodiscard]] OpStream expand_single_pass(const MarchAlgorithm& alg,
                                          const MemoryGeometry& geometry,
                                          int port, Word background);

/// Number of memory operations (excluding pauses) in the full expansion,
/// computed without materializing the stream.
[[nodiscard]] std::uint64_t expanded_op_count(const MarchAlgorithm& alg,
                                              const MemoryGeometry& geometry);

}  // namespace pmbist::march
