#pragma once
// Mission profile: when each memory of a *running* chip is idle and may be
// tested in the field.
//
// The paper's case for programmable MBIST is lifetime reuse: the same
// controller that ran the power-on sweep is reloaded for periodic in-field
// (transparent) testing.  A mission profile captures the system side of
// that contract — a timeline of per-instance idle windows (cycles during
// which the functional logic guarantees not to touch the memory) plus the
// shared test-access-bus bandwidth (how many sessions may stream
// operations concurrently).  The field manager (manager.h) packs
// checkpointable session segments (segment.h) into these windows.
//
// On-disk format (.profile), under the chip file's lexical rules
// (common/directives.h) — grammar in docs/FIELD.md, every fenced example
// there is parsed by test_docs.cpp:
//
//   # comment
//   profile <name>
//   horizon <cycles>          # optional; 0/absent = last window end
//   bus_budget <lanes>        # optional; default 1
//   window <mem> start=N end=N
//
// Windows are half-open cycle intervals [start, end).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/directives.h"
#include "soc/description.h"

namespace pmbist::field {

/// Raised for every malformed mission profile / field-manager misuse.
class FieldError : public soc::SocError {
 public:
  using SocError::SocError;
};

/// Raised on malformed .profile text; line() names the source line.
class ProfileError : public FieldError {
 public:
  using FieldError::FieldError;
};

/// The .profile format: "profile line N: " errors, C-prefixed numbers,
/// and its directive words.
extern const common::DirectiveFormat kProfileFormat;

/// One idle window: the instance may be tested in cycles [start, end).
struct IdleWindow {
  std::uint64_t start = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t width() const noexcept { return end - start; }
  friend bool operator==(const IdleWindow&, const IdleWindow&) = default;
};

/// The full mission profile.
struct MissionProfile {
  /// Per-instance window list, in ascending start order.
  struct WindowSet {
    std::string memory;
    std::vector<IdleWindow> windows;
    friend bool operator==(const WindowSet&, const WindowSet&) = default;
  };

  std::string name;
  /// Scheduling horizon in cycles; 0 = derived from the last window end.
  std::uint64_t horizon = 0;
  /// Test-bus lanes: how many sessions may stream operations concurrently.
  std::uint64_t bus_budget = 1;
  /// One entry per windowed memory, in first-mention order.
  std::vector<WindowSet> windows;

  /// Appends a window for `memory` (creating its set on first mention).
  MissionProfile& add_window(std::string_view memory, IdleWindow window);

  /// Window set of `memory`, or nullptr.
  [[nodiscard]] const WindowSet* find(std::string_view memory) const;

  /// The horizon the manager actually schedules against.
  [[nodiscard]] std::uint64_t effective_horizon() const noexcept;

  /// Structural validation: bus_budget >= 1, every window non-empty with
  /// start < end, per-memory windows sorted and non-overlapping.  Throws
  /// FieldError naming the offender.  (The linter runs the same checks as
  /// diagnostics instead — see lint/profile_lint.h.)
  void validate() const;

  /// validate() plus cross-checks against the chip: every windowed memory
  /// must exist in `chip`.
  void validate(const soc::SocDescription& chip) const;

  friend bool operator==(const MissionProfile&, const MissionProfile&) = default;
};

struct ProfileParseOptions {
  /// Run MissionProfile::validate at the end (the default).  The linter
  /// parses with this off so it can report every structural problem itself
  /// instead of stopping at the first one.
  bool validate = true;
};

/// Parses .profile text.  Throws ProfileError (with a line number) on
/// syntax errors; with options.validate, FieldError on structural ones.
[[nodiscard]] MissionProfile parse_profile_text(
    const std::string& text, const ProfileParseOptions& options = {});

/// parse_profile_text on text already lexed under kProfileFormat (the
/// linter keeps the records for their line numbers).
[[nodiscard]] MissionProfile parse_profile_directives(
    const std::vector<common::Directive>& directives,
    const ProfileParseOptions& options = {});

/// Serializes a profile back into .profile text; the output re-parses to an
/// equal MissionProfile (round-trip).
[[nodiscard]] std::string to_profile_text(const MissionProfile& profile);

/// The matching mission profile for soc::demo_soc()/demo_plan(): recurring
/// idle windows for every assigned instance sized so that the small
/// memories complete several transparent passes, the big ones must resume
/// across windows, and a bus budget that forces contention stalls.
[[nodiscard]] MissionProfile demo_profile();

}  // namespace pmbist::field
