#include "lint/chip_lint.h"

#include <map>
#include <sstream>
#include <vector>

#include "common/directives.h"
#include "lint/prover.h"
#include "march/library.h"
#include "mbist_pfsm/compiler.h"
#include "soc/chip.h"
#include "soc/chip_json.h"

namespace pmbist::lint {
namespace {

using march::MarchAlgorithm;

/// True when the algorithm contains a nonzero pause (excites retention
/// faults) — the static condition behind the DRF escape warning.
bool has_pause(const MarchAlgorithm& alg) {
  for (const auto& e : alg.elements())
    if (e.is_pause && e.pause_ns > 0) return true;
  return false;
}

/// True when some element issues two consecutive identical reads — the
/// structural condition for catching deceptive read-destructive faults.
bool has_back_to_back_reads(const MarchAlgorithm& alg) {
  for (const auto& e : alg.elements())
    for (std::size_t j = 1; j < e.ops.size(); ++j)
      if (e.ops[j].is_read() && e.ops[j] == e.ops[j - 1]) return true;
  return false;
}

void lint_fault_escapes(const std::string& unit, const soc::TestAssignment& a,
                        const soc::MemoryInstance& mem,
                        const MarchAlgorithm& alg, int lineno,
                        Report& report) {
  const CoverageProof proof = prove_coverage(alg);
  bool warned[static_cast<int>(memsim::FaultClass::LF) + 1] = {};
  for (const auto& fault : mem.faults) {
    const auto cls = memsim::fault_class(fault);
    auto& once = warned[static_cast<int>(cls)];
    if (once) continue;
    const auto name = std::string{memsim::fault_class_name(cls)};
    if (const auto* p = proof.find(cls); p != nullptr) {
      if (p->guaranteed) continue;
      once = true;
      report.add("CH11", unit, lineno,
                 "'" + mem.name + "' injects a " + name + " fault but '" +
                     a.algorithm + "' does not guarantee " + name +
                     " detection (" + p->detail + ")",
                 "pick an algorithm whose qualification shows G for " + name);
    } else if (cls == memsim::FaultClass::DRF && !has_pause(alg)) {
      once = true;
      report.add("CH11", unit, lineno,
                 "'" + mem.name +
                     "' injects a data-retention fault but the algorithm "
                     "has no pause element to excite it",
                 "use a retention variant (March C+/A+ style pause tail)");
    } else if (cls == memsim::FaultClass::DRDF &&
               !has_back_to_back_reads(alg)) {
      once = true;
      report.add("CH11", unit, lineno,
                 "'" + mem.name +
                     "' injects a deceptive read-destructive fault but the "
                     "algorithm never reads the same cell twice in a row",
                 "use a triple-read (++) variant");
    }
  }
}

}  // namespace

Report lint_chip_text(const std::string& text, std::string unit) {
  Report report;
  // The line of each memory and assignment, in order, from the lexed
  // records: the parser appends one per `mem` / `assign` directive (a
  // duplicate throws).  The JSON mirror has no lines, and its object keys
  // cannot express a duplicate instance (the parser throws: CH02 below).
  std::vector<int> mem_lines;
  std::vector<int> assign_lines;
  soc::ChipFile chip;
  try {
    if (soc::is_chip_json(text)) {
      chip = soc::parse_chip_json(text, {.validate_plan = false});
      mem_lines.assign(chip.description.memories().size(), -1);
      assign_lines.assign(chip.plan.assignments().size(), -1);
    } else {
      const auto directives = common::lex(text, soc::kChipFormat);
      std::map<std::string, int> declared;
      for (const auto& d : directives) {
        if (d.tokens[0] == "assign") assign_lines.push_back(d.line);
        if (d.tokens[0] != "mem" || d.tokens.size() < 2) continue;
        mem_lines.push_back(d.line);
        const auto [first, fresh] = declared.emplace(d.tokens[1], d.line);
        if (!fresh)
          report.add("CH01", unit, d.line,
                     "duplicate memory instance '" + d.tokens[1] +
                         "' (first declared on line " +
                         std::to_string(first->second) + ")",
                     "give every instance a unique name");
      }
      chip = soc::parse_chip_directives(directives, {.validate_plan = false});
    }
  } catch (const std::exception& e) {
    if (report.empty())
      report.add("CH02", unit, common::error_line(e), e.what(),
                 "see docs/SOC.md for the chip-file grammar (or the JSON "
                 "mirror in docs/SERVE.md)");
    return report;
  }

  const auto& plan = chip.plan;
  const auto& chipdesc = chip.description;
  if (plan.power().budget < 0.0)
    report.add("CH07", unit, -1, "power budget must be >= 0",
               "0 means unconstrained");

  std::map<std::string, bool> assigned;
  for (std::size_t i = 0; i < plan.assignments().size(); ++i) {
    const auto& a = plan.assignments()[i];
    const int lineno = assign_lines[i];
    assigned[a.memory] = true;
    const auto* mem = chipdesc.find(a.memory);
    if (mem == nullptr) {
      report.add("CH03", unit, lineno,
                 "assignment names unknown memory '" + a.memory + "'",
                 "declare it with a mem directive first");
      continue;
    }
    MarchAlgorithm alg;
    try {
      alg = march::resolve_algorithm(a.algorithm);
    } catch (const std::exception& e) {
      report.add("CH04", unit, lineno,
                 "'" + a.memory + "': cannot resolve algorithm '" +
                     a.algorithm + "': " + e.what(),
                 "use a library name (pmbist list) or DSL text");
      continue;
    }
    if (const auto why = alg.validate(); !why.empty()) {
      report.add("CH04", unit, lineno,
                 "'" + a.memory + "': invalid algorithm: " + why);
      continue;
    }
    if (a.controller == soc::ControllerKind::Pfsm) {
      std::string why;
      if (!mbist_pfsm::is_mappable(alg, &why))
        report.add("CH05", unit, lineno,
                   "'" + a.memory + "': not pFSM-mappable: " + why,
                   "use the ucode controller, or restrict the algorithm to "
                   "SM0..SM7 elements");
    }
    if (a.controller == soc::ControllerKind::Hardwired &&
        !a.share_group.empty())
      report.add("CH06", unit, lineno,
                 "'" + a.memory + "': a hardwired controller cannot join "
                 "share group '" +
                     a.share_group + "' (it runs one fixed algorithm)",
                 "drop group=, or use a programmable controller kind");
    if (a.power_weight < 0.0) {
      report.add("CH07", unit, lineno,
                 "'" + a.memory + "': power weight must be >= 0");
    } else {
      const double w = plan.effective_weight(a, *mem);
      if (plan.power().budget > 0.0 && w > plan.power().budget) {
        std::ostringstream os;
        os << "'" << a.memory << "': toggle weight " << w
           << " alone exceeds the chip budget " << plan.power().budget
           << " — no schedule can ever run this session";
        report.add("CH07", unit, lineno, os.str(),
                   "raise power_budget or lower weight=");
      }
    }
    lint_fault_escapes(unit, a, *mem, alg, lineno, report);
  }

  for (std::size_t i = 0; i < chipdesc.memories().size(); ++i) {
    const auto& mem = chipdesc.memories()[i];
    const int lineno = mem_lines[i];
    if (!assigned.count(mem.name))
      report.add("CH08", unit, lineno,
                 "memory '" + mem.name + "' has no test assignment and "
                 "ships untested",
                 "add an assign directive (or remove the instance)");
    const bool has_spares =
        mem.repair.spare_rows > 0 || mem.repair.spare_cols > 0;
    if (has_spares && mem.geometry.word_bits > 1)
      report.add("CH09", unit, lineno,
                 "memory '" + mem.name + "' declares spares but repair "
                 "only engages on bit-oriented instances (word_bits=1)",
                 "drop the spares, or model the array bit-oriented");
    if (!mem.faults.empty() && !has_spares)
      report.add("CH10", unit, lineno,
                 "memory '" + mem.name + "' injects " +
                     std::to_string(mem.faults.size()) +
                     " defect(s) but has no spare rows/columns: a detected "
                     "defect cannot be repaired and no retest runs",
                 "add spare_rows=/spare_cols= if repair is expected");
  }
  return report;
}

}  // namespace pmbist::lint
