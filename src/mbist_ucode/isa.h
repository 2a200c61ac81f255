#pragma once
// Microcode ISA of the paper's microcode-based memory BIST controller
// (Fig. 1 / Fig. 2).
//
// A microcode instruction is 10 bits wide:
//
//   [0]   addr_inc   hold(0)/increment(1) the address generator after the op
//   [1]   addr_down  element address order: up(0)/down(1) — XORed with the
//                    reference register's auxiliary order bit
//   [2]   data_inc   hold(0)/increment(1) the data background generator
//                    (used by the data-loop instruction)
//   [3]   data_inv   test data: true(0)/inverted(1) background — XORed with
//                    the auxiliary data bit
//   [4]   cmp_inv    compare polarity — XORed with the auxiliary compare bit
//   [6:5] rw         00 no-op, 01 read, 10 write
//   [9:7] flow       condition / flow-control field (see Flow)
//
// Flow semantics (the behavioral controller and the synthesized
// instruction decoder both derive from decode() below):
//
//   Next       perform op; advance to the next instruction.
//   LoopCell   perform op; if not at the last address, step the address and
//              branch to the branch register (re-running the element's op
//              group on the next cell); else save IC+1 into the branch
//              register (the paper's Save-Address-Condition configured to
//              Last Address) and fall through.
//   LoopSelf   single-op element: perform op; step the address holding the
//              instruction counter; on the last address, save IC+1 to the
//              branch register and fall through.
//   Repeat     symmetric-algorithm support: first encounter loads the
//              reference register's auxiliary order/data/compare bits from
//              this instruction's fields, sets the repeat bit, and resets
//              the instruction counter to 1 (the paper's dedicated
//              "Reset to 1" path); second encounter clears both and falls
//              through.
//   Pause      data-retention Hold: starts the pause timer; falls through
//              when the timer expires.
//   LoopData   word-oriented support: if not at the last background,
//              increment the data generator and reset IC to 0; else reset
//              the data generator and fall through.
//   LoopPort   multiport support: if not at the last port, increment the
//              port, reset the data generator and reset IC to 0; else
//              terminate.
//   Terminate  unconditional end of test.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pmbist::mbist_ucode {

inline constexpr int kInstructionBits = 10;

/// Read/write field values.
enum class Rw : std::uint8_t { Nop = 0, Read = 1, Write = 2 };

/// Flow-control field values.
enum class Flow : std::uint8_t {
  Next = 0,
  LoopCell = 1,
  LoopSelf = 2,
  Repeat = 3,
  Pause = 4,
  LoopData = 5,
  LoopPort = 6,
  Terminate = 7,
};

[[nodiscard]] std::string_view to_string(Flow f);

/// One decoded microcode instruction.
struct Instruction {
  bool addr_inc = false;
  bool addr_down = false;
  bool data_inc = false;
  bool data_inv = false;
  bool cmp_inv = false;
  Rw rw = Rw::Nop;
  Flow flow = Flow::Next;

  [[nodiscard]] std::uint16_t encode() const;
  [[nodiscard]] static Instruction decode(std::uint16_t bits);

  /// One-line human-readable form, e.g. "r cmp=1 hold  LOOP_CELL".
  [[nodiscard]] std::string disassemble() const;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// A microcode program: the contents of the storage unit.
class MicrocodeProgram {
 public:
  MicrocodeProgram() = default;
  MicrocodeProgram(std::string name, std::vector<Instruction> instructions)
      : name_{std::move(name)}, instructions_{std::move(instructions)} {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Instruction>& instructions() const noexcept {
    return instructions_;
  }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(instructions_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return instructions_.empty(); }

  /// Raw storage-unit image (one 10-bit word per instruction).
  [[nodiscard]] std::vector<std::uint16_t> image() const;
  [[nodiscard]] static MicrocodeProgram from_image(
      std::string name, const std::vector<std::uint16_t>& image);

  /// Formatted listing (one instruction per line with index and encoding).
  [[nodiscard]] std::string listing() const;

  /// Portable hex-image text: a header line, the program name, then one
  /// 3-digit hex word per line with a disassembly comment.  Round-trips
  /// through from_hex_text(); the on-disk format of `pmbist assemble
  /// --hex` and `pmbist run --program <file>`.
  [[nodiscard]] std::string to_hex_text() const;

  /// Parses hex-image text.  Throws std::invalid_argument on malformed
  /// input (bad header, non-hex words, reserved encodings).
  [[nodiscard]] static MicrocodeProgram from_hex_text(std::string_view text);

 private:
  std::string name_;
  std::vector<Instruction> instructions_;
};

/// Combinational outputs of the instruction decoder module — the signals of
/// the paper's Fig. 1 (Inc. Address, Reset-to-0/1, Reset-to-branch-register,
/// Save Current Address, Inc. Port, Terminate, ...).  Both the behavioral
/// controller and the synthesized decoder derive from this one function.
struct DecodeOutputs {
  bool ic_inc = false;          ///< advance the instruction counter
  bool ic_reset0 = false;       ///< reset IC to 0
  bool ic_reset1 = false;       ///< reset IC to 1 (Repeat path)
  bool ic_load_branch = false;  ///< load IC from the branch register
  bool branch_save = false;     ///< branch register := IC + 1
  bool ref_load = false;        ///< load aux order/data/compare from fields
  bool repeat_set = false;
  bool repeat_clear = false;
  bool addr_step = false;
  bool addr_init = false;       ///< (re)initialize address gen for an element
  bool data_inc = false;
  bool data_reset = false;
  bool port_inc = false;
  bool pause_start = false;
  bool terminate = false;

  friend bool operator==(const DecodeOutputs&,
                         const DecodeOutputs&) = default;
};

inline constexpr int kDecodeOutputCount = 15;

/// Bit of each DecodeOutputs signal in pack()'s vector.
enum DecodeBit : std::uint32_t {
  kDecIcInc = 1u << 0,
  kDecIcReset0 = 1u << 1,
  kDecIcReset1 = 1u << 2,
  kDecIcLoadBranch = 1u << 3,
  kDecBranchSave = 1u << 4,
  kDecRefLoad = 1u << 5,
  kDecRepeatSet = 1u << 6,
  kDecRepeatClear = 1u << 7,
  kDecAddrStep = 1u << 8,
  kDecAddrInit = 1u << 9,
  kDecDataInc = 1u << 10,
  kDecDataReset = 1u << 11,
  kDecPortInc = 1u << 12,
  kDecPauseStart = 1u << 13,
  kDecTerminate = 1u << 14,
};

/// Condition inputs sampled by the decoder.
struct DecodeInputs {
  bool addr_inc = false;   ///< instruction field
  bool last_addr = false;
  bool last_data = false;  ///< last background
  bool last_port = false;
  bool repeat_bit = false;
  bool pause_done = false;
};

/// The decoder's 9 input variables as one minterm, low bit first:
/// flow[0..2], addr_inc, last_addr, last_data, last_port, repeat_bit,
/// pause_done — the variable order of the synthesized decoder (area.h) and
/// the row index of kDecoderTable (below).
inline constexpr int kDecodeInputBits = 9;
[[nodiscard]] constexpr std::uint32_t decode_minterm(Flow flow,
                                                     const DecodeInputs& in) {
  return static_cast<std::uint32_t>(flow) |
         static_cast<std::uint32_t>(in.addr_inc) << 3 |
         static_cast<std::uint32_t>(in.last_addr) << 4 |
         static_cast<std::uint32_t>(in.last_data) << 5 |
         static_cast<std::uint32_t>(in.last_port) << 6 |
         static_cast<std::uint32_t>(in.repeat_bit) << 7 |
         static_cast<std::uint32_t>(in.pause_done) << 8;
}
/// Inverse of decode_minterm() on the low kDecodeInputBits bits.
[[nodiscard]] constexpr DecodeInputs decode_inputs_of(std::uint32_t m) {
  return DecodeInputs{.addr_inc = ((m >> 3) & 1) != 0,
                      .last_addr = ((m >> 4) & 1) != 0,
                      .last_data = ((m >> 5) & 1) != 0,
                      .last_port = ((m >> 6) & 1) != 0,
                      .repeat_bit = ((m >> 7) & 1) != 0,
                      .pause_done = ((m >> 8) & 1) != 0};
}
[[nodiscard]] constexpr Flow decode_flow_of(std::uint32_t m) {
  return static_cast<Flow>(m & 0x7);
}

/// The instruction decoder as a pure function (Flow x fields x conditions
/// -> control signals).  constexpr, so the behavioral controller's decoder
/// table (kDecoderTable) is evaluated from it at compile time.
[[nodiscard]] constexpr DecodeOutputs decode(Flow flow,
                                         const DecodeInputs& in) {
  DecodeOutputs out;
  switch (flow) {
    case Flow::Next:
      out.ic_inc = true;
      out.addr_step = in.addr_inc && !in.last_addr;
      break;
    case Flow::LoopSelf:
      if (!in.last_addr) {
        out.addr_step = true;  // IC holds
      } else {
        out.ic_inc = true;
        out.branch_save = true;
        out.addr_init = true;
      }
      break;
    case Flow::LoopCell:
      if (!in.last_addr) {
        out.addr_step = true;
        out.ic_load_branch = true;
      } else {
        out.ic_inc = true;
        out.branch_save = true;
        out.addr_init = true;
      }
      break;
    case Flow::Repeat:
      if (!in.repeat_bit) {
        out.repeat_set = true;
        out.ref_load = true;
        out.ic_reset1 = true;
        out.addr_init = true;
      } else {
        out.repeat_clear = true;
        out.ic_inc = true;
        out.branch_save = true;  // next element group starts at IC+1
        out.addr_init = true;
      }
      break;
    case Flow::Pause:
      if (in.pause_done) {
        out.ic_inc = true;
        out.branch_save = true;  // a pause ends an element group
      } else {
        out.pause_start = true;
      }
      break;
    case Flow::LoopData:
      if (!in.last_data) {
        out.data_inc = true;
        out.ic_reset0 = true;
        out.addr_init = true;
      } else {
        out.data_reset = true;
        out.ic_inc = true;
      }
      break;
    case Flow::LoopPort:
      if (!in.last_port) {
        out.port_inc = true;
        out.data_reset = true;
        out.ic_reset0 = true;
        out.addr_init = true;
      } else {
        out.terminate = true;
      }
      break;
    case Flow::Terminate:
      out.terminate = true;
      break;
  }
  return out;
}

/// Packs DecodeOutputs into a bit vector (bit positions: DecodeBit).
[[nodiscard]] constexpr std::uint32_t pack(const DecodeOutputs& o) {
  const std::pair<bool, DecodeBit> signals[kDecodeOutputCount] = {
      {o.ic_inc, kDecIcInc},           {o.ic_reset0, kDecIcReset0},
      {o.ic_reset1, kDecIcReset1},     {o.ic_load_branch, kDecIcLoadBranch},
      {o.branch_save, kDecBranchSave}, {o.ref_load, kDecRefLoad},
      {o.repeat_set, kDecRepeatSet},   {o.repeat_clear, kDecRepeatClear},
      {o.addr_step, kDecAddrStep},     {o.addr_init, kDecAddrInit},
      {o.data_inc, kDecDataInc},       {o.data_reset, kDecDataReset},
      {o.port_inc, kDecPortInc},       {o.pause_start, kDecPauseStart},
      {o.terminate, kDecTerminate}};
  std::uint32_t bits = 0;
  for (const auto& [set, bit] : signals)
    if (set) bits |= bit;
  return bits;
}

/// The decoder as a truth table: row decode_minterm(flow, in) holds
/// pack(decode(flow, in)) — the combinational decoder circuit as a ROM,
/// which is how the behavioral controller evaluates it.
using DecoderTable = std::array<std::uint16_t, 1u << kDecodeInputBits>;
inline constexpr DecoderTable kDecoderTable = [] {
  DecoderTable table{};
  for (std::uint32_t m = 0; m < table.size(); ++m)
    table[m] = static_cast<std::uint16_t>(
        pack(decode(decode_flow_of(m), decode_inputs_of(m))));
  return table;
}();

}  // namespace pmbist::mbist_ucode
