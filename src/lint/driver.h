#pragma once
// Lint driver: sniffs what kind of input a piece of text is (march DSL or
// library name, microcode hex image, pFSM hex image, chip file) and runs
// the matching pass.  This is the engine behind `pmbist lint`, which
// accepts any of the on-disk formats with one entry point.

#include <string>

#include "lint/diagnostics.h"

namespace pmbist::lint {

enum class InputKind : std::uint8_t {
  March,
  UcodeImage,
  PfsmImage,
  Chip,
  Profile,
  SocSchedule,
  FieldSchedule
};

[[nodiscard]] std::string_view to_string(InputKind kind);

/// Classifies text by shape: the ucode / pFSM image headers win, then a
/// leading '{' (the JSON chip mirror), then the first token of the text
/// (common::first_word) if it is a directive of the chip, mission-profile,
/// SoC-schedule or field-schedule format (each format's declared set, the
/// one its parser reads), otherwise march (library name or DSL).
[[nodiscard]] InputKind detect_kind(const std::string& text);

struct LintOptions {
  int storage_depth = 32;  ///< microcode storage words (UC02)
  int buffer_depth = 16;   ///< pFSM buffer rows (PF02)
  /// Chip-file TEXT a mission profile is checked against (FP04/FP05) and
  /// schedules are certified against (SC codes).  Ignored for other input
  /// kinds; empty skips the cross-file checks (SC00 for schedules, which
  /// cannot be certified without their chip).
  std::string chip;
  /// Mission-profile TEXT a field schedule is certified against.  Only
  /// used for FieldSchedule inputs and for --certify on a Profile input.
  std::string profile;
  /// Certify the scheduler outputs behind a chip/profile input: runs the
  /// deterministic scheduling phase and the certificate checker
  /// (lint/certify.h) on its result, merging any SC diagnostics.
  /// Schedule inputs are always certified when their context is supplied.
  bool certify = false;
  /// Translation validation: march source (library name or DSL text) the
  /// image must realize.  When non-empty and the input is a controller
  /// image, the lifter recovers the algorithm the image applies and the
  /// equivalence checker proves it equal to this source (EQ04) or reports
  /// EQ01/EQ02 with a counterexample trace.  EQ00 when the source does not
  /// resolve or the input is not a controller image.
  std::string against;
  /// Worker count of the scheduling phase behind --certify on a chip
  /// input; 0 = hardware concurrency.  The schedule, and so the report,
  /// is the same for every value.
  int jobs = 0;
};

/// Lints `text` as `kind`.  Never throws on malformed input — parse
/// failures become MA00/UC00/PF00/CH02/FP00/SC00 diagnostics.
[[nodiscard]] Report lint_text_as(InputKind kind, const std::string& text,
                                  std::string unit,
                                  const LintOptions& options = {});

/// detect_kind + lint_text_as.
[[nodiscard]] Report lint_text(const std::string& text, std::string unit,
                               const LintOptions& options = {});

}  // namespace pmbist::lint
