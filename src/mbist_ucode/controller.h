#pragma once
// Cycle-accurate behavioral model of the microcode-based memory BIST
// controller (paper Fig. 1): storage unit, instruction counter, instruction
// selector, branch register, instruction decoder and reference register,
// driving the shared BIST datapath.  Every control decision goes through
// isa.h's decode() — the same function the synthesized decoder area model
// is built from.  The controller evaluates the decoder through its truth
// table (isa.h kDecoderTable, pack(decode()) for each of the 512 input
// minterms, computed at compile time), so a cycle costs one table lookup:
// the decoder is combinational logic, and the table is that circuit.

#include "bist/controller.h"
#include "bist/datapath.h"
#include "march/library.h"
#include "mbist_ucode/assembler.h"

namespace pmbist::mbist_ucode {

struct ControllerConfig {
  memsim::MemoryGeometry geometry{};
  /// Storage-unit depth Z; load() rejects larger programs.
  int storage_depth = 32;
  /// Pause-timer duration for Pause instructions (simulated ns).
  std::uint64_t pause_ns = march::kDefaultPauseNs;
};

/// The paper's 2-bit initialization signal: hold the storage contents,
/// preset the built-in default microcodes, or accept a custom image.
enum class InitSelect : std::uint8_t {
  Hold = 0,
  DefaultProgram = 1,
  CustomProgram = 2,
};

class MicrocodeController final : public bist::Controller {
 public:
  explicit MicrocodeController(const ControllerConfig& config);

  /// Loads a program into the storage unit (the paper's custom-microcode
  /// initialization).  Throws AssembleError if it exceeds the storage
  /// depth.  Resets the controller.
  void load(MicrocodeProgram program);

  /// Convenience: assemble + configure pause timer + load.
  void load_algorithm(const march::MarchAlgorithm& alg,
                      const AssembleOptions& options = {});

  /// The built-in default program the initialization signal can preset
  /// (March C, the paper's running example).
  [[nodiscard]] static MicrocodeProgram default_program();

  /// Drives the 2-bit initialization signal.  CustomProgram requires a
  /// `custom` image; Hold keeps the current contents.
  void initialize(InitSelect select,
                  const MicrocodeProgram* custom = nullptr);

  /// Serial scan-load of the storage unit image, one bit per shift clock
  /// (the scan-only cells' load path).  Returns the number of shift
  /// cycles; divide by the cell clock fraction for functional-clock
  /// cycles.  Throws AssembleError on oversized/overwide images.
  std::uint64_t load_scan(const std::vector<std::uint16_t>& image,
                          std::string name = "scan-loaded");

  /// Reads the storage-unit image back through the scan path (the paper's
  /// observation that the scan path doubles as a test access mechanism for
  /// the BIST unit itself).
  [[nodiscard]] std::vector<std::uint16_t> scan_dump() const {
    return program_.image();
  }

  [[nodiscard]] std::string name() const override {
    return "microcode-based";
  }
  void reset() override;
  [[nodiscard]] bool done() const override { return done_; }
  std::optional<march::MemOp> step() override;

  [[nodiscard]] const MicrocodeProgram& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

  /// Shift cycles a serial scan-load of the current program costs — the
  /// per-memory re-program price a shared controller pays (soc scheduler).
  [[nodiscard]] std::uint64_t program_load_cycles() const noexcept {
    return program_.image().size() *
           static_cast<std::uint64_t>(kInstructionBits);
  }

  // Introspection for white-box tests.
  [[nodiscard]] int instruction_counter() const noexcept { return ic_; }
  [[nodiscard]] int branch_register() const noexcept { return branch_; }
  [[nodiscard]] bool repeat_bit() const noexcept { return repeat_; }
  [[nodiscard]] bool aux_order() const noexcept { return aux_order_; }
  [[nodiscard]] bool aux_data() const noexcept { return aux_data_; }
  [[nodiscard]] bool aux_cmp() const noexcept { return aux_cmp_; }

 private:
  ControllerConfig config_;
  MicrocodeProgram program_;

  bist::AddressGenerator addr_;
  bist::DataGenerator data_;
  bist::PortSequencer port_;

  int ic_ = 0;
  int branch_ = 0;
  bool repeat_ = false;
  bool aux_order_ = false;
  bool aux_data_ = false;
  bool aux_cmp_ = false;
  bool fresh_element_ = true;  ///< address generator needs element init
  bool pause_done_ = false;    ///< pause timer expired for the current Pause
  bool done_ = false;
};

}  // namespace pmbist::mbist_ucode
