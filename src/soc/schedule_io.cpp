#include "soc/schedule_io.h"

#include <sstream>

namespace pmbist::soc {

constexpr std::string_view kScheduleDirectives[] = {"schedule", "session"};
const common::DirectiveFormat kScheduleFormat{
    "schedule file", 10, kScheduleDirectives, common::throw_as<ScheduleError>};

SocScheduleFile parse_schedule_text(const std::string& text) {
  SocScheduleFile file;
  bool saw_header = false;
  for (const auto& d : common::lex(text, kScheduleFormat)) {
    const auto& tokens = d.tokens;
    const auto fail = [&](const std::string& what) {
      kScheduleFormat.fail(d.line, what);
    };
    if (tokens[0] == "schedule") {
      if (saw_header) fail("duplicate schedule directive");
      if (tokens.size() != 2) fail("usage: schedule <name>");
      file.name = tokens[1];
      saw_header = true;
      continue;
    }
    if (!saw_header) fail("session before the schedule directive");
    if (tokens.size() < 2)
      fail("usage: session <mem> start=N load=N test=N [weight=W] [retest]");
    const common::KeyValues args{d, 2, kScheduleFormat, {"retest"}};
    ScheduleEntry entry;
    entry.memory = tokens[1];
    entry.start = args.u64("start");
    entry.load = args.u64("load");
    entry.test = args.u64("test");
    entry.has_weight = args.has("weight");
    if (entry.has_weight) entry.weight = args.real("weight");
    entry.retest = args.word("retest");
    entry.line = d.line;
    args.finish();
    file.entries.push_back(std::move(entry));
  }
  if (!saw_header)
    throw ScheduleError{"schedule file has no schedule directive"};
  return file;
}

std::string to_schedule_text(const std::string& name,
                             const std::vector<ScheduledSession>& schedule) {
  std::ostringstream os;
  os << "# pmbist soc schedule (certify with `pmbist lint FILE --chip CHIP`)\n";
  os << "schedule " << common::token_text(name) << '\n';
  for (const auto& s : schedule) {
    os << "session " << common::token_text(s.memory)
       << " start=" << s.start_cycle << " load=" << s.load_cycles
       << " test=" << s.test_cycles
       << " weight=" << common::real_text(s.power_weight);
    if (s.retest) os << " retest";
    os << '\n';
  }
  return os.str();
}

std::vector<ScheduleEntry> schedule_entries(
    const std::vector<ScheduledSession>& schedule) {
  std::vector<ScheduleEntry> entries;
  entries.reserve(schedule.size());
  for (const auto& s : schedule) {
    ScheduleEntry e;
    e.memory = s.memory;
    e.start = s.start_cycle;
    e.load = s.load_cycles;
    e.test = s.test_cycles;
    e.weight = s.power_weight;
    e.has_weight = true;
    e.retest = s.retest;
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace pmbist::soc
