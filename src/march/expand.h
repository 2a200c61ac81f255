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
/// 16 bytes: the campaign kernel scans whole streams, so the layout is
/// packed by hand (docs/KERNEL.md, "MemOp layout").  A pause keeps its
/// length in `data`; read it through pause_ns().
struct MemOp {
  enum class Kind : std::uint8_t { Write, Read, Pause };

  Word data = 0;  ///< written value, expected value, or pause length (ns)
  Address addr = 0;
  Kind kind = Kind::Write;
  std::uint16_t port = 0;

  [[nodiscard]] static MemOp write(int port, Address a, Word d) {
    return {d, a, Kind::Write, static_cast<std::uint16_t>(port)};
  }
  [[nodiscard]] static MemOp read(int port, Address a, Word expected) {
    return {expected, a, Kind::Read, static_cast<std::uint16_t>(port)};
  }
  [[nodiscard]] static MemOp pause(std::uint64_t ns) {
    return {ns, 0, Kind::Pause, 0};
  }

  [[nodiscard]] std::uint64_t pause_ns() const noexcept { return data; }

  friend bool operator==(const MemOp&, const MemOp&) = default;
};
static_assert(sizeof(MemOp) == 16);

/// The most ports a MemOp can name (its port field is 16 bits).
inline constexpr int kMaxPorts = 65535;

/// Returns geometry.num_ports, or throws std::invalid_argument when it is
/// below 1 or above kMaxPorts (a larger port number would wrap in
/// MemOp::port).  expand() and the controllers' constructors check their
/// geometry here.
[[nodiscard]] int checked_num_ports(const MemoryGeometry& geometry);

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
