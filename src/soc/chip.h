#pragma once
// Chip-file front end: a small line-oriented text format describing a chip
// (its memories and defects) together with its test plan.  The complete
// grammar, with examples, lives in docs/SOC.md; tests/test_docs.cpp parses
// every fenced example there through this module so the doc cannot drift.
//
// Shape (lexical rules shared with the other directive files, see
// common/directives.h):
//
//   # comment
//   soc <name>
//   power_budget <weight>
//   power_model calibrated|heuristic
//   mem <name> addr_bits=N [word_bits=N] [ports=N] [seed=N] [row_bits=N]
//              [scramble=N] [spare_rows=N] [spare_cols=N]
//   fault <mem> <KIND> key=value...
//   assign <mem> "<algorithm|dsl>" <ucode|pfsm|hardwired> [group=G] [weight=W]
//
// Fault kinds mirror memsim's models (SAF, TF, CFin, CFid, CFst, AF, SOF,
// DRF, IRF, WDF, RDF, DRDF, PF) plus `sample`, which draws one instance
// from the deterministic class universe (march::make_fault_universe).

#include <string>
#include <vector>

#include "common/directives.h"
#include "soc/plan.h"

namespace pmbist::soc {

/// Raised on any malformed chip file; line() names the source line.
class ChipError : public SocError {
 public:
  using SocError::SocError;
};

/// The chip-file format: "chip file line N: " errors, C-prefixed numbers,
/// and its directive words.
extern const common::DirectiveFormat kChipFormat;

/// A parsed chip file: the catalog plus its (already validated) plan.
struct ChipFile {
  SocDescription description;
  TestPlan plan;
};

struct ChipParseOptions {
  /// Run TestPlan::validate at the end (the default).  The linter parses
  /// with this off so it can report every semantic problem itself instead
  /// of stopping at the first one.
  bool validate_plan = true;
};

/// Parses chip-file text.  Throws ChipError (with a line number) on syntax
/// errors and on plan/description inconsistencies.
[[nodiscard]] ChipFile parse_chip_text(const std::string& text,
                                       const ChipParseOptions& options = {});

/// parse_chip_text on text already lexed under kChipFormat (the linter
/// keeps the records for their line numbers).
[[nodiscard]] ChipFile parse_chip_directives(
    const std::vector<common::Directive>& directives,
    const ChipParseOptions& options = {});

/// True when `text` is the JSON mirror (soc/chip_json.h): its first
/// non-blank character is '{', which no chip file can start with.
[[nodiscard]] bool is_chip_json(const std::string& text);

/// Format-sniffing front end: the JSON mirror when is_chip_json, the line
/// format otherwise.  Every consumer of chip payloads (the CLI, the serve
/// layer, the linter's context files) goes through it, so both formats
/// are accepted everywhere a chip is accepted.
[[nodiscard]] ChipFile parse_chip(const std::string& text,
                                  const ChipParseOptions& options = {});

/// Serializes a chip + plan back into chip-file text; the output re-parses
/// to an equal ChipFile (round-trip).  Throws SocError for faults the
/// format cannot express (NPSF).
[[nodiscard]] std::string to_chip_text(const SocDescription& chip,
                                       const TestPlan& plan);

}  // namespace pmbist::soc
