#pragma once
// On-disk form of a planned in-field session table (.fieldsched) — the
// field-side artifact the certificate checker (lint/certify.h) verifies
// against the chip and mission profile it was planned for.
//
// Like the SoC .schedule format (soc/schedule_io.h) this records only the
// manager's decisions; segment costs, window membership, bus lanes and
// power weights are all re-derived at certification time.
//
// Format, under the chip file's lexical rules (common/directives.h) with
// decimal numbers:
//
//   fieldschedule <name>
//   fsession <mem> pass=N seg=A..B start=N end=N reload=N [retest]
//
// seg=A..B names the half-open segment range [A, B) of the instance's
// SegmentPlan this burst streams.  `pmbist field --emit-schedule FILE`
// writes this file; `pmbist lint FILE --chip CHIP --profile PROFILE`
// certifies it (SC codes, docs/LINT.md).

#include <string>
#include <vector>

#include "common/directives.h"
#include "field/manager.h"

namespace pmbist::field {

/// Raised on malformed .fieldsched text; line() names the source line.
class FieldScheduleError : public FieldError {
 public:
  using FieldError::FieldError;
};

/// The .fieldsched format: "field schedule line N: " errors, decimal
/// numbers, and its directive words.
extern const common::DirectiveFormat kFieldScheduleFormat;

/// One parsed `fsession` directive.
struct FieldScheduleEntry {
  FieldSession session;
  int line = -1;  ///< 1-based source line (-1 when built in memory)
  friend bool operator==(const FieldScheduleEntry&,
                         const FieldScheduleEntry&) = default;
};

/// The parsed file.
struct FieldScheduleFile {
  std::string name;
  std::vector<FieldScheduleEntry> entries;
  friend bool operator==(const FieldScheduleFile&,
                         const FieldScheduleFile&) = default;
};

/// Parses .fieldsched text.  Throws FieldScheduleError (with a line
/// number) on syntax errors; semantic checks are the certifier's job.
[[nodiscard]] FieldScheduleFile parse_field_schedule_text(
    const std::string& text);

/// Serializes a planned session table into .fieldsched text; the output
/// re-parses to equal sessions (round-trip).
[[nodiscard]] std::string to_field_schedule_text(
    const std::string& name, const std::vector<FieldSession>& sessions);

/// Converts live manager output into entries (line = -1), the form the
/// certifier consumes.
[[nodiscard]] std::vector<FieldScheduleEntry> field_schedule_entries(
    const std::vector<FieldSession>& sessions);

}  // namespace pmbist::field
