#pragma once
// On-disk form of a computed SoC schedule (.schedule) — the artifact the
// certificate checker (lint/certify.h) verifies independently of the
// scheduler that produced it.
//
// The file records only the scheduler's *decisions* (which memory starts
// when, at what cost); everything else — algorithm, controller kind, share
// group, power weight — is re-derived from the chip file at certification
// time, which is exactly what makes the certificate independent.
//
// Format, under the chip file's lexical rules (common/directives.h) with
// decimal numbers:
//
//   schedule <name>
//   session <mem> start=N load=N test=N [weight=W] [retest]
//
// `pmbist soc --emit-schedule FILE` writes this file;
// `pmbist lint FILE --chip CHIP` certifies it (SC codes, docs/LINT.md).

#include <cstdint>
#include <string>
#include <vector>

#include "common/directives.h"
#include "soc/scheduler.h"

namespace pmbist::soc {

/// Raised on malformed .schedule text; line() names the source line.
class ScheduleError : public SocError {
 public:
  using SocError::SocError;
};

/// The .schedule format: "schedule file line N: " errors, decimal
/// numbers, and its directive words.
extern const common::DirectiveFormat kScheduleFormat;

/// One parsed `session` directive.
struct ScheduleEntry {
  std::string memory;
  std::uint64_t start = 0;
  std::uint64_t load = 0;  ///< program (re)load cycles before the test
  std::uint64_t test = 0;  ///< controller run cycles
  double weight = 0.0;     ///< meaningful when has_weight
  bool has_weight = false;
  bool retest = false;
  int line = -1;  ///< 1-based source line (-1 when built in memory)

  [[nodiscard]] std::uint64_t duration() const noexcept {
    return load + test;
  }
  [[nodiscard]] std::uint64_t end() const noexcept {
    return start + duration();
  }
  friend bool operator==(const ScheduleEntry&,
                         const ScheduleEntry&) = default;
};

/// The parsed file.
struct SocScheduleFile {
  std::string name;
  std::vector<ScheduleEntry> entries;
  friend bool operator==(const SocScheduleFile&,
                         const SocScheduleFile&) = default;
};

/// Parses .schedule text.  Throws ScheduleError (with a line number) on
/// syntax errors; performs no semantic checks (that is the certifier's
/// job, as diagnostics rather than exceptions).
[[nodiscard]] SocScheduleFile parse_schedule_text(const std::string& text);

/// Serializes a computed schedule into .schedule text; the output
/// re-parses to equal entries (round-trip).  Weights are always emitted so
/// the certifier can cross-check them against the plan.
[[nodiscard]] std::string to_schedule_text(
    const std::string& name, const std::vector<ScheduledSession>& schedule);

/// Converts live scheduler output into entries (line = -1), the form the
/// certifier consumes.
[[nodiscard]] std::vector<ScheduleEntry> schedule_entries(
    const std::vector<ScheduledSession>& schedule);

}  // namespace pmbist::soc
