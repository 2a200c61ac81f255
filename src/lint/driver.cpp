#include "lint/driver.h"

#include <sstream>

#include "common/directives.h"
#include "field/manager.h"
#include "field/profile.h"
#include "field/schedule_io.h"
#include "lint/certify.h"
#include "lint/chip_lint.h"
#include "lint/equiv.h"
#include "lint/lifter.h"
#include "lint/march_lint.h"
#include "lint/profile_lint.h"
#include "lint/program_lint.h"
#include "march/library.h"
#include "march/parser.h"
#include "mbist_pfsm/isa.h"
#include "mbist_ucode/isa.h"
#include "soc/chip.h"
#include "soc/schedule_io.h"
#include "soc/scheduler.h"

namespace pmbist::lint {
namespace {

// The march parser has no comment syntax; on-disk .march files use the
// same '#' comments as chip files, so strip them (and line breaks) here.
std::string strip_march_comments(const std::string& text) {
  std::istringstream lines{text};
  std::string line;
  std::string out;
  while (std::getline(lines, line)) {
    if (!out.empty()) out += ' ';
    out += line.substr(0, line.find('#'));
  }
  return out;
}

/// Resolves a --against source (library name or march DSL, '#' comments
/// allowed).  Returns false after adding EQ00 when it does not resolve.
bool resolve_against(const std::string& raw, const std::string& unit,
                     march::MarchAlgorithm& out, Report& report) {
  try {
    out = march::resolve_algorithm(strip_march_comments(raw), "--against");
    return true;
  } catch (const march::ParseError& e) {
    report.add("EQ00", unit, -1,
               std::string{"--against source does not resolve: "} + e.what(),
               "pass a library algorithm name or march DSL text");
    return false;
  }
}

/// Pause duration the source algorithm uses (an image encodes *that* a
/// pause happens, not for how long), defaulting to the library convention.
std::uint64_t source_pause_ns(const march::MarchAlgorithm& alg) {
  for (const auto& e : alg.elements())
    if (e.is_pause) return e.pause_ns;
  return march::kDefaultPauseNs;
}

/// Translation validation: maps the equivalence verdict for a lifted image
/// onto the EQ diagnostics.
void check_against(const LiftResult& lifted,
                   const march::MarchAlgorithm& source,
                   const std::string& unit, Report& report) {
  const EquivResult verdict = check_equivalence(lifted, source);
  switch (verdict.kind) {
    case EquivKind::Unliftable: {
      std::string message = "image is not liftable to a march algorithm: " +
                            verdict.detail;
      for (const auto& line : verdict.trace) message += "\n      " + line;
      report.add("EQ01", unit, verdict.index, std::move(message),
                 "see docs/EQUIV.md for the liftable subset (code " +
                     verdict.code + " names the reason)");
      return;
    }
    case EquivKind::Mismatch: {
      std::string message = verdict.detail;
      for (const auto& line : verdict.trace) message += "\n      " + line;
      report.add("EQ02", unit, -1, std::move(message),
                 "the trace shows the first op a tester would see diverge");
      break;
    }
    case EquivKind::Equivalent:
      report.add("EQ04", unit, -1, verdict.detail);
      break;
  }
  if (lifted.ok && !lifted.full_structure()) {
    const char* missing =
        !lifted.has_data_loop
            ? (lifted.has_port_loop ? "data-background loop"
                                    : "data-background and port loops")
            : "port loop";
    report.add("EQ03", unit, -1,
               std::string{"image runs a single pass: it lacks the "} +
                   missing +
                   " (word-oriented / multiport memories would be "
                   "under-tested)",
               "append the loop tail (`pmbist assemble` emits it by "
               "default)");
  }
}

Report lint_march_text(const std::string& raw, std::string unit,
                       const LintOptions& options) {
  Report report;
  if (!options.against.empty()) {
    report.add("EQ00", unit, -1,
               "--against applies to controller images; this input is a "
               "march algorithm",
               "compare march algorithms directly with `pmbist expand`");
  }
  const std::string text = strip_march_comments(raw);
  march::MarchAlgorithm alg;
  try {
    alg = march::resolve_algorithm(text, unit);
  } catch (const march::ParseError& e) {
    report.add("MA00", std::move(unit), -1, e.what(),
               "see docs/DSL.md for the grammar");
    return report;
  }
  report.merge(lint_march(alg, {}, std::move(unit)));
  return report;
}

Report lint_ucode_text(const std::string& text, std::string unit,
                       const LintOptions& options) {
  mbist_ucode::MicrocodeProgram program;
  try {
    program = mbist_ucode::MicrocodeProgram::from_hex_text(text);
  } catch (const std::exception& e) {
    Report report;
    report.add("UC00", std::move(unit), -1, e.what(),
               "expected the `pmbist assemble --hex` image format");
    return report;
  }
  Report report = lint_ucode(program, {.storage_depth = options.storage_depth});
  if (!options.against.empty()) {
    march::MarchAlgorithm source;
    Report eq;
    if (resolve_against(options.against, unit, source, eq)) {
      const LiftResult lifted =
          lift_ucode(program, {.pause_ns = source_pause_ns(source)});
      check_against(lifted, source, unit, eq);
    }
    report.merge(std::move(eq));
  }
  return report;
}

Report lint_pfsm_text(const std::string& text, std::string unit,
                      const LintOptions& options) {
  mbist_pfsm::PfsmProgram program;
  try {
    program = mbist_pfsm::PfsmProgram::from_hex_text(text);
  } catch (const std::exception& e) {
    Report report;
    report.add("PF00", std::move(unit), -1, e.what(),
               "expected the `pmbist assemble --arch pfsm --hex` image "
               "format");
    return report;
  }
  Report report = lint_pfsm(program, {.buffer_depth = options.buffer_depth});
  if (!options.against.empty()) {
    march::MarchAlgorithm source;
    Report eq;
    if (resolve_against(options.against, unit, source, eq)) {
      const LiftResult lifted =
          lift_pfsm(program, {.pause_ns = source_pause_ns(source)});
      check_against(lifted, source, unit, eq);
    }
    report.merge(std::move(eq));
  }
  return report;
}

/// EQ00 for input kinds --against cannot apply to.
void reject_against(const LintOptions& options, const std::string& unit,
                    const char* what, Report& report) {
  if (options.against.empty()) return;
  report.add("EQ00", unit, -1,
             std::string{"--against applies to controller images; this "
                         "input is a "} +
                 what,
             "lint the assigned programs individually");
}

/// Parses the --chip context.  Returns false after adding SC00 when it is
/// missing or does not parse (the schedule cannot be certified then).
bool resolve_chip_context(const LintOptions& options, const std::string& unit,
                          soc::ChipFile& chip, Report& report) {
  if (options.chip.empty()) {
    report.add("SC00", unit, -1,
               "a schedule cannot be certified without its chip context",
               "pass --chip CHIP (the file this schedule was computed for)");
    return false;
  }
  try {
    chip = soc::parse_chip(options.chip);
    return true;
  } catch (const std::exception& e) {
    report.add("SC00", unit, -1,
               std::string{"chip context is not certifiable: "} + e.what(),
               "fix the chip file first (pmbist lint CHIP)");
    return false;
  }
}

Report lint_soc_schedule_text(const std::string& text, std::string unit,
                              const LintOptions& options) {
  Report report;
  reject_against(options, unit, "SoC schedule", report);
  soc::SocScheduleFile file;
  try {
    file = soc::parse_schedule_text(text);
  } catch (const std::exception& e) {
    report.add("SC00", std::move(unit), common::error_line(e), e.what(),
               "see docs/SOC.md for the .schedule grammar");
    return report;
  }
  soc::ChipFile chip;
  if (!resolve_chip_context(options, unit, chip, report)) return report;
  report.merge(certify_soc(chip.description, chip.plan, file.entries,
                           std::move(unit)));
  return report;
}

Report lint_field_schedule_text(const std::string& text, std::string unit,
                                const LintOptions& options) {
  Report report;
  reject_against(options, unit, "field schedule", report);
  field::FieldScheduleFile file;
  try {
    file = field::parse_field_schedule_text(text);
  } catch (const std::exception& e) {
    report.add("SC00", std::move(unit), common::error_line(e), e.what(),
               "see docs/FIELD.md for the .fieldsched grammar");
    return report;
  }
  soc::ChipFile chip;
  if (!resolve_chip_context(options, unit, chip, report)) return report;
  field::MissionProfile profile;
  if (options.profile.empty()) {
    report.add("SC00", std::move(unit), -1,
               "a field schedule cannot be certified without its mission "
               "profile",
               "pass --profile PROFILE (the file this schedule was planned "
               "for)");
    return report;
  }
  try {
    profile = field::parse_profile_text(options.profile);
  } catch (const std::exception& e) {
    report.add("SC00", std::move(unit), -1,
               std::string{"profile context is not certifiable: "} + e.what(),
               "fix the profile file first (pmbist lint PROFILE --chip CHIP)");
    return report;
  }
  report.merge(certify_field(chip.description, chip.plan, profile,
                             file.entries, std::move(unit)));
  return report;
}

/// --certify behind a chip input: run the deterministic scheduling phase
/// and certify its own output.  Skipped when the chip already has lint
/// errors (there is no schedule to derive); a clean-linting chip whose
/// schedule cannot be computed becomes SC00.
void certify_chip_input(const std::string& text, const std::string& unit,
                        int jobs, Report& report) {
  if (report.has_errors()) return;
  try {
    const soc::ChipFile chip = soc::parse_chip(text);
    const soc::Scheduler scheduler{{.jobs = jobs}};
    report.merge(certify_soc(chip.description, chip.plan,
                             scheduler.compute_schedule(chip.description,
                                                        chip.plan),
                             unit));
  } catch (const std::exception& e) {
    report.add("SC00", unit, -1,
               std::string{"cannot derive a schedule to certify: "} +
                   e.what(),
               "fix the chip file first");
  }
}

/// --certify behind a profile input: run the field manager against the
/// --chip context and certify the planned session table (plus the
/// signature discipline of the executed passes).
void certify_profile_input(const std::string& text, const std::string& unit,
                           const LintOptions& options, Report& report) {
  if (report.has_errors()) return;
  if (options.chip.empty()) {
    report.add("SC00", unit, -1,
               "a mission profile cannot be certified without its chip "
               "context",
               "pass --chip CHIP alongside --certify");
    return;
  }
  try {
    const soc::ChipFile chip = soc::parse_chip(options.chip);
    const field::MissionProfile profile = field::parse_profile_text(text);
    const field::FieldReport fieldreport = field::run_field(
        chip.description, chip.plan, profile, {.jobs = 1});
    report.merge(certify_field(chip.description, chip.plan, profile,
                               fieldreport, unit));
  } catch (const std::exception& e) {
    report.add("SC00", unit, -1,
               std::string{"cannot derive a field schedule to certify: "} +
                   e.what(),
               "fix the chip and profile files first");
  }
}

}  // namespace

std::string_view to_string(InputKind kind) {
  switch (kind) {
    case InputKind::March: return "march";
    case InputKind::UcodeImage: return "ucode";
    case InputKind::PfsmImage: return "pfsm";
    case InputKind::Chip: return "chip";
    case InputKind::Profile: return "profile";
    case InputKind::SocSchedule: return "soc-schedule";
    case InputKind::FieldSchedule: return "field-schedule";
  }
  return "?";
}

InputKind detect_kind(const std::string& text) {
  if (text.find("pmbist microcode image") != std::string::npos)
    return InputKind::UcodeImage;
  if (text.find("pmbist pfsm image") != std::string::npos)
    return InputKind::PfsmImage;
  // The chip JSON mirror: the only accepted format that is a JSON object.
  if (soc::is_chip_json(text)) return InputKind::Chip;
  const std::string word = common::first_word(text);
  if (soc::kChipFormat.declares(word)) return InputKind::Chip;
  if (field::kProfileFormat.declares(word)) return InputKind::Profile;
  if (soc::kScheduleFormat.declares(word)) return InputKind::SocSchedule;
  if (field::kFieldScheduleFormat.declares(word))
    return InputKind::FieldSchedule;
  return InputKind::March;
}

Report lint_text_as(InputKind kind, const std::string& text, std::string unit,
                    const LintOptions& options) {
  switch (kind) {
    case InputKind::March:
      return lint_march_text(text, std::move(unit), options);
    case InputKind::UcodeImage:
      return lint_ucode_text(text, std::move(unit), options);
    case InputKind::PfsmImage:
      return lint_pfsm_text(text, std::move(unit), options);
    case InputKind::Chip: {
      Report report;
      if (!options.against.empty())
        report.add("EQ00", unit, -1,
                   "--against applies to controller images; this input is a "
                   "chip file",
                   "lint the assigned programs individually");
      report.merge(lint_chip_text(text, unit));
      if (options.certify)
        certify_chip_input(text, unit, options.jobs, report);
      return report;
    }
    case InputKind::Profile: {
      Report report;
      if (!options.against.empty())
        report.add("EQ00", unit, -1,
                   "--against applies to controller images; this input is a "
                   "mission profile",
                   "lint the assigned programs individually");
      report.merge(lint_profile_text(text, unit, options.chip));
      if (options.certify) certify_profile_input(text, unit, options, report);
      return report;
    }
    case InputKind::SocSchedule:
      return lint_soc_schedule_text(text, std::move(unit), options);
    case InputKind::FieldSchedule:
      return lint_field_schedule_text(text, std::move(unit), options);
  }
  return {};
}

Report lint_text(const std::string& text, std::string unit,
                 const LintOptions& options) {
  return lint_text_as(detect_kind(text), text, std::move(unit), options);
}

}  // namespace pmbist::lint
