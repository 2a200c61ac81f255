#include "lint/profile_lint.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/directives.h"
#include "field/profile.h"
#include "soc/chip.h"

namespace pmbist::lint {

Report lint_profile_text(const std::string& text, std::string unit,
                         const std::string& chip_text) {
  Report report;
  // Lines of the lexed records: the k-th `window <mem>` directive is the
  // k-th window of <mem>'s set, and the last bus_budget is the one that
  // took effect.
  std::map<std::string, std::vector<int>> window_lines;
  int bus_budget_line = -1;
  field::MissionProfile profile;
  try {
    const auto directives = common::lex(text, field::kProfileFormat);
    for (const auto& d : directives) {
      if (d.tokens[0] == "bus_budget") bus_budget_line = d.line;
      if (d.tokens[0] == "window" && d.tokens.size() > 1)
        window_lines[d.tokens[1]].push_back(d.line);
    }
    profile = field::parse_profile_directives(directives, {.validate = false});
  } catch (const std::exception& e) {
    report.add("FP00", std::move(unit), common::error_line(e), e.what(),
               "see docs/FIELD.md for the profile grammar");
    return report;
  }

  if (profile.bus_budget < 1)
    report.add("FP03", unit, bus_budget_line,
               "bus budget 0 gives the test bus no lanes: no session can "
               "ever stream and every memory ships with staleness = the "
               "whole horizon",
               "bus_budget must be >= 1 (lanes on the shared test bus)");

  const std::uint64_t horizon = profile.effective_horizon();
  for (const auto& set : profile.windows) {
    const auto& lines = window_lines[set.memory];
    std::vector<std::pair<field::IdleWindow, int>> sorted;
    for (std::size_t i = 0; i < set.windows.size(); ++i)
      sorted.emplace_back(set.windows[i], lines[i]);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first.start != b.first.start)
                         return a.first.start < b.first.start;
                       return a.first.end < b.first.end;
                     });
    for (const auto& [w, line] : sorted) {
      if (w.start >= w.end)
        report.add("FP02", unit, line,
                   "'" + set.memory + "': empty idle window [" +
                       std::to_string(w.start) + ", " + std::to_string(w.end) +
                       ") can never hold a test segment",
                   "windows are half-open [start, end); end must exceed "
                   "start");
      else if (profile.horizon != 0 && w.start >= profile.horizon)
        report.add("FP06", unit, line,
                   "'" + set.memory + "': idle window [" +
                       std::to_string(w.start) + ", " + std::to_string(w.end) +
                       ") starts at or beyond the horizon " +
                       std::to_string(profile.horizon) + " and is never used",
                   "extend the horizon or drop the window");
    }
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const auto& a = sorted[i].first;
      const auto& [b, b_line] = sorted[i + 1];
      if (a.end > b.start)
        report.add("FP01", unit, b_line,
                   "'" + set.memory + "': idle windows [" +
                       std::to_string(a.start) + ", " +
                       std::to_string(a.end) + ") and [" +
                       std::to_string(b.start) + ", " +
                       std::to_string(b.end) + ") overlap",
                   "a memory is either idle or not — merge the windows");
    }
  }

  if (chip_text.empty()) return report;

  soc::ChipFile chip;
  try {
    chip = soc::parse_chip_text(chip_text, {.validate_plan = false});
  } catch (const std::exception& e) {
    report.add("CH02", "--chip", common::error_line(e), e.what(),
               "see docs/SOC.md for the chip-file grammar");
    return report;
  }

  for (const auto& set : profile.windows) {
    if (chip.description.find(set.memory) == nullptr) {
      report.add("FP04", unit, window_lines[set.memory].front(),
                 "window names unknown memory '" + set.memory + "'",
                 "every window memory must be a mem instance of the chip");
    }
  }
  for (const auto& a : chip.plan.assignments()) {
    const auto* set = profile.find(a.memory);
    bool usable = false;
    if (set != nullptr)
      for (const auto& w : set->windows)
        if (w.start < w.end && w.start < horizon) usable = true;
    if (!usable)
      report.add("FP05", unit, -1,
                 "tested memory '" + a.memory + "' has no usable idle "
                 "window: in the field it is never tested and ships with "
                 "staleness = the whole horizon",
                 "add window directives for it (or drop its assignment)");
  }
  return report;
}

}  // namespace pmbist::lint
