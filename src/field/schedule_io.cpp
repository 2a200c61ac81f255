#include "field/schedule_io.h"

#include <sstream>

namespace pmbist::field {

constexpr std::string_view kFieldScheduleDirectives[] = {"fieldschedule",
                                                          "fsession"};
const common::DirectiveFormat kFieldScheduleFormat{
    "field schedule", 10, kFieldScheduleDirectives,
    common::throw_as<FieldScheduleError>};

FieldScheduleFile parse_field_schedule_text(const std::string& text) {
  FieldScheduleFile file;
  bool saw_header = false;
  for (const auto& d : common::lex(text, kFieldScheduleFormat)) {
    const auto& tokens = d.tokens;
    const auto fail = [&](const std::string& what) {
      kFieldScheduleFormat.fail(d.line, what);
    };
    if (tokens[0] == "fieldschedule") {
      if (saw_header) fail("duplicate fieldschedule directive");
      if (tokens.size() != 2) fail("usage: fieldschedule <name>");
      file.name = tokens[1];
      saw_header = true;
      continue;
    }
    if (!saw_header) fail("fsession before the fieldschedule directive");
    if (tokens.size() < 2)
      fail("usage: fsession <mem> pass=N seg=A..B start=N end=N reload=N "
           "[retest]");
    const common::KeyValues args{d, 2, kFieldScheduleFormat, {"retest"}};
    FieldScheduleEntry entry;
    entry.line = d.line;
    auto& s = entry.session;
    s.memory = tokens[1];
    s.pass = args.num("pass");
    const auto& seg = args.raw("seg");
    const auto dots = seg.find("..");
    const auto begin =
        common::parse_u64(seg.substr(0, dots), kFieldScheduleFormat.base);
    const auto end = dots == std::string::npos
                         ? std::nullopt
                         : common::parse_u64(seg.substr(dots + 2),
                                             kFieldScheduleFormat.base);
    if (!begin || !end) fail("seg expects A..B, got '" + seg + "'");
    s.segment_begin = *begin;
    s.segment_end = *end;
    s.start_cycle = args.u64("start");
    s.end_cycle = args.u64("end");
    s.reload_cycles = args.u64("reload");
    s.retest = args.word("retest");
    args.finish();
    if (s.end_cycle < s.start_cycle) fail("end before start");
    if (s.segment_end < s.segment_begin) fail("seg range reversed");
    file.entries.push_back(std::move(entry));
  }
  if (!saw_header)
    throw FieldScheduleError{"field schedule has no fieldschedule directive"};
  return file;
}

std::string to_field_schedule_text(const std::string& name,
                                   const std::vector<FieldSession>& sessions) {
  std::ostringstream os;
  os << "# pmbist field schedule (certify with `pmbist lint FILE --chip CHIP "
        "--profile PROFILE`)\n";
  os << "fieldschedule " << common::token_text(name) << '\n';
  for (const auto& s : sessions) {
    os << "fsession " << common::token_text(s.memory) << " pass=" << s.pass
       << " seg=" << s.segment_begin << ".." << s.segment_end
       << " start=" << s.start_cycle << " end=" << s.end_cycle
       << " reload=" << s.reload_cycles;
    if (s.retest) os << " retest";
    os << '\n';
  }
  return os.str();
}

std::vector<FieldScheduleEntry> field_schedule_entries(
    const std::vector<FieldSession>& sessions) {
  std::vector<FieldScheduleEntry> entries;
  entries.reserve(sessions.size());
  for (const auto& s : sessions) entries.push_back({s, -1});
  return entries;
}

}  // namespace pmbist::field
