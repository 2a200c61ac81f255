#include "lint/fix.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "lint/certify.h"
#include "lint/cfg.h"
#include "lint/chip_lint.h"
#include "lint/lifter.h"
#include "lint/march_lint.h"
#include "lint/program_lint.h"
#include "lint/prover.h"
#include "march/library.h"
#include "march/parser.h"
#include "soc/chip.h"
#include "soc/scheduler.h"

namespace pmbist::lint {
namespace {

using mbist_ucode::Flow;
using mbist_ucode::Instruction;
using mbist_ucode::MicrocodeProgram;
using mbist_ucode::Rw;
using mbist_pfsm::PfsmInstruction;
using mbist_pfsm::PfsmProgram;

/// Instructions to keep: the CFG-reachable region.  Removal is exact only
/// when the dead instructions form a suffix (removing an interior block
/// would renumber every absolute branch target after it — Repeat's
/// reset-to-1, the branch register, the loop restarts at 0), so anything
/// before the last reachable instruction is kept even when unreachable.
/// For microcode the two coincide: every flow either falls through or
/// branches backwards, making the reachable set a prefix — the CFG check
/// is the proof, not an approximation.
template <typename Code>
std::size_t reachable_prefix(const Code& code,
                             const std::vector<bool>& reachable) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < code.size(); ++i)
    if (reachable[i]) keep = i + 1;
  return keep;
}

/// A no-op sweep candidate: an op-flow instruction whose rw field is NOP.
/// Whether removing it preserves behavior depends on context (a NOP leader
/// carries the element's address order; a NOP LOOP_SELF mid-group truncates
/// the group), so candidates are verified through the lifter, not assumed.
bool is_nop_sweep(const Instruction& instr) {
  return instr.rw == Rw::Nop &&
         (instr.flow == Flow::Next || instr.flow == Flow::LoopCell ||
          instr.flow == Flow::LoopSelf);
}

/// True when removing the candidate left an image that provably applies the
/// same op stream and lints no worse than the original.
bool removal_is_safe(const MicrocodeProgram& before,
                     const MicrocodeProgram& after) {
  const LiftResult lifted_before = lift_ucode(before);
  if (!lifted_before.ok) return false;  // nothing to verify against
  const LiftResult lifted_after = lift_ucode(after);
  if (!lifted_after.ok ||
      lifted_after.algorithm.elements() != lifted_before.algorithm.elements() ||
      lifted_after.has_data_loop != lifted_before.has_data_loop ||
      lifted_after.has_port_loop != lifted_before.has_port_loop)
    return false;
  // Renumbering can re-anchor a Repeat window (its reset-to-1 path is an
  // absolute index): reject any removal that introduces new findings, e.g.
  // an emptied Repeat window (UC05).
  const Report before_lint = lint_ucode(before);
  const Report after_lint = lint_ucode(after);
  return after_lint.count(Severity::Error) <=
             before_lint.count(Severity::Error) &&
         after_lint.count(Severity::Warning) <=
             before_lint.count(Severity::Warning);
}

std::string plural(std::size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

/// The march semantic-diff gate: removing an element is safe only when the
/// shrunk algorithm still validates, every fault class the prover
/// guaranteed before stays guaranteed after (the verdict is
/// unchanged-or-better) and the march lint does not get worse.
bool march_removal_is_safe(const march::MarchAlgorithm& before,
                           const march::MarchAlgorithm& after) {
  if (!after.validate().empty()) return false;
  const CoverageProof proof_before = prove_coverage(before);
  const CoverageProof proof_after = prove_coverage(after);
  for (const auto cls : provable_classes()) {
    const ClassProof* b = proof_before.find(cls);
    const ClassProof* a = proof_after.find(cls);
    if (b != nullptr && b->guaranteed && (a == nullptr || !a->guaranteed))
      return false;
  }
  const Report lint_before = lint_march(before, {}, "fix");
  const Report lint_after = lint_march(after, {}, "fix");
  return lint_after.count(Severity::Error) <=
             lint_before.count(Severity::Error) &&
         lint_after.count(Severity::Warning) <=
             lint_before.count(Severity::Warning);
}

/// The march parser has no comment syntax; strip '#' comments like the
/// lint driver does for on-disk .march files.
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

}  // namespace

FixOutcome fix_ucode(MicrocodeProgram& program) {
  std::vector<Instruction> code = program.instructions();

  const Cfg cfg = build_ucode_cfg(program);
  const std::size_t keep = reachable_prefix(code, cfg.reachable_insn);
  const std::size_t dead = code.size() - keep;
  code.resize(keep);

  std::size_t swept = 0;
  MicrocodeProgram current{program.name(), code};
  for (std::size_t i = code.size(); i-- > 0;) {
    if (!is_nop_sweep(code[i])) continue;
    std::vector<Instruction> shrunk = code;
    shrunk.erase(shrunk.begin() + static_cast<std::ptrdiff_t>(i));
    MicrocodeProgram candidate{program.name(), shrunk};
    if (!removal_is_safe(current, candidate)) continue;
    code = std::move(shrunk);
    current = std::move(candidate);
    ++swept;
  }

  FixOutcome outcome;
  outcome.changed = dead > 0 || swept > 0;
  if (!outcome.changed) {
    outcome.summary = "no mechanical fixes apply";
    return outcome;
  }
  if (dead > 0)
    outcome.summary = "dropped " + plural(dead, "unreachable instruction");
  if (swept > 0) {
    if (!outcome.summary.empty()) outcome.summary += ", ";
    outcome.summary += "removed " + plural(swept, "no-op sweep");
  }
  program = MicrocodeProgram{program.name(), std::move(code)};
  return outcome;
}

FixOutcome fix_pfsm(PfsmProgram& program) {
  const auto& rows = program.instructions();
  const Cfg cfg = build_pfsm_cfg(program);
  const std::size_t used = reachable_prefix(rows, cfg.reachable_insn);

  FixOutcome outcome;
  if (used == rows.size()) {
    outcome.summary = "no mechanical fixes apply";
    return outcome;
  }
  outcome.changed = true;
  outcome.summary =
      "dropped " + plural(rows.size() - used, "unused trailing row");
  std::vector<PfsmInstruction> kept{rows.begin(),
                                    rows.begin() + static_cast<std::ptrdiff_t>(used)};
  program = PfsmProgram{program.name(), std::move(kept)};
  return outcome;
}

FixOutcome fix_march(march::MarchAlgorithm& alg) {
  std::vector<march::MarchElement> elements = alg.elements();
  march::MarchAlgorithm current = alg;
  std::size_t removed = 0;
  for (std::size_t i = elements.size(); i-- > 0;) {
    if (elements.size() <= 1) break;
    std::vector<march::MarchElement> shrunk = elements;
    shrunk.erase(shrunk.begin() + static_cast<std::ptrdiff_t>(i));
    march::MarchAlgorithm candidate{alg.name(), shrunk};
    if (!march_removal_is_safe(current, candidate)) continue;
    elements = std::move(shrunk);
    current = std::move(candidate);
    ++removed;
  }

  FixOutcome outcome;
  if (removed == 0) {
    outcome.summary = "no mechanical fixes apply";
    return outcome;
  }
  outcome.changed = true;
  outcome.summary = "removed " + plural(removed, "dead element") +
                    " (prover verdict preserved)";
  alg = std::move(current);
  return outcome;
}

FixResult fix_chip_text(const std::string& text, const std::string& unit) {
  FixResult result;
  if (soc::is_chip_json(text)) {
    result.summary = unit + ": --fix applies to the text chip format "
                            "(regenerate the JSON mirror from the fixed "
                            "text)";
    return result;
  }
  soc::ChipFile chip;
  try {
    chip = soc::parse_chip_text(text, {.validate_plan = false});
  } catch (const std::exception& e) {
    result.summary = unit + ": cannot fix an unparseable chip file: " +
                     e.what();
    return result;
  }

  // Repair 1 (CH09): spare resources on word-oriented instances never
  // engage — dead elements of the chip description.
  std::size_t spares_dropped = 0;
  soc::SocDescription description{chip.description.name()};
  for (auto mem : chip.description.memories()) {
    if (mem.repair.any() && mem.geometry.word_bits > 1) {
      mem.repair = {};
      ++spares_dropped;
    }
    description.add(std::move(mem));
  }

  // Repair 2 (CH07): a budget no single session fits is statically
  // infeasible; rebalance it up to the heaviest effective weight — the
  // smallest budget that admits every session one at a time.
  const double old_budget = chip.plan.power().budget;
  double max_weight = 0.0;
  for (const auto& a : chip.plan.assignments()) {
    if (a.power_weight < 0.0) continue;
    const auto* mem = description.find(a.memory);
    if (mem == nullptr) continue;
    max_weight = std::max(max_weight, chip.plan.effective_weight(a, *mem));
  }
  const bool budget_raised = old_budget > 0.0 && max_weight > old_budget;

  if (spares_dropped == 0 && !budget_raised) {
    result.summary = "no mechanical fixes apply";
    return result;
  }

  soc::TestPlan plan;
  for (const auto& a : chip.plan.assignments()) plan.assign(a);
  if (budget_raised) plan.set_power_budget(max_weight);
  else plan.set_power_budget(old_budget);

  std::string fixed;
  try {
    fixed = soc::to_chip_text(description, plan);
  } catch (const std::exception& e) {
    result.summary = unit + ": fix rejected: cannot re-serialize: " + e.what();
    return result;
  }

  // Semantic-diff gate, part 1: the rewritten chip must lint no worse.
  const Report lint_before = lint_chip_text(text, unit);
  const Report lint_after = lint_chip_text(fixed, unit);
  if (lint_after.count(Severity::Error) > lint_before.count(Severity::Error) ||
      lint_after.count(Severity::Warning) >
          lint_before.count(Severity::Warning)) {
    result.summary = unit + ": fix rejected: the rewritten chip lints worse";
    return result;
  }

  // Part 2: the certified schedule must be unchanged-or-better — when a
  // schedule is derivable from the fixed chip it must pass the
  // certificate checker; a chip that loses schedulability is rejected.
  const auto certifies =
      [&](const std::string& chip_text) -> std::optional<bool> {
    try {
      const soc::ChipFile parsed = soc::parse_chip_text(chip_text);
      const soc::Scheduler scheduler;
      return !certify_soc(parsed.description, parsed.plan,
                          scheduler.compute_schedule(parsed.description,
                                                     parsed.plan),
                          unit)
                  .has_errors();
    } catch (const std::exception&) {
      return std::nullopt;  // no schedule derivable from this text
    }
  };
  const std::optional<bool> after_ok = certifies(fixed);
  if (after_ok.has_value() ? !*after_ok : certifies(text).has_value()) {
    result.summary =
        unit + ": fix rejected: the rewritten chip's schedule does not "
               "certify";
    return result;
  }

  result.changed = true;
  result.text = std::move(fixed);
  std::ostringstream os;
  if (spares_dropped > 0)
    os << "dropped dead spares on " << plural(spares_dropped, "instance");
  if (budget_raised) {
    if (spares_dropped > 0) os << ", ";
    os << "raised power_budget " << old_budget << " -> " << max_weight
       << " (admits the heaviest session)";
  }
  os << "; schedule re-certified";
  result.summary = os.str();
  return result;
}

FixResult fix_text(const std::string& text, const std::string& unit) {
  FixResult result;
  switch (detect_kind(text)) {
    case InputKind::UcodeImage: {
      mbist_ucode::MicrocodeProgram program;
      try {
        program = mbist_ucode::MicrocodeProgram::from_hex_text(text);
      } catch (const std::exception& e) {
        result.summary = unit + ": cannot fix an unparseable image: " + e.what();
        return result;
      }
      FixOutcome outcome = fix_ucode(program);
      result.changed = outcome.changed;
      result.summary = std::move(outcome.summary);
      if (result.changed) result.text = program.to_hex_text();
      return result;
    }
    case InputKind::PfsmImage: {
      mbist_pfsm::PfsmProgram program;
      try {
        program = mbist_pfsm::PfsmProgram::from_hex_text(text);
      } catch (const std::exception& e) {
        result.summary = unit + ": cannot fix an unparseable image: " + e.what();
        return result;
      }
      FixOutcome outcome = fix_pfsm(program);
      result.changed = outcome.changed;
      result.summary = std::move(outcome.summary);
      if (result.changed) result.text = program.to_hex_text();
      return result;
    }
    case InputKind::March: {
      const std::string stripped = strip_march_comments(text);
      try {
        (void)march::by_name(stripped);
        result.summary =
            unit + ": library algorithms are already canonical; nothing to "
                   "fix";
        return result;
      } catch (const std::out_of_range&) {
      }
      march::MarchAlgorithm alg;
      try {
        alg = march::parse(stripped, unit);
      } catch (const march::ParseError& e) {
        result.summary =
            unit + ": cannot fix an unparseable algorithm: " + e.what();
        return result;
      }
      FixOutcome outcome = fix_march(alg);
      result.changed = outcome.changed;
      result.summary = std::move(outcome.summary);
      if (result.changed) result.text = alg.to_string() + "\n";
      return result;
    }
    case InputKind::Chip:
      return fix_chip_text(text, unit);
    case InputKind::Profile:
      result.summary =
          unit + ": --fix does not apply to mission profiles (their "
                 "findings need semantic changes)";
      return result;
    case InputKind::SocSchedule:
    case InputKind::FieldSchedule:
      result.summary =
          unit + ": schedules are scheduler output — re-run `pmbist soc` / "
                 "`pmbist field` instead of editing them";
      return result;
  }
  return result;
}

}  // namespace pmbist::lint
