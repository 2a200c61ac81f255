#include "field/profile.h"

#include <algorithm>
#include <sstream>

namespace pmbist::field {

constexpr std::string_view kProfileDirectives[] = {"profile", "horizon",
                                                    "bus_budget", "window"};
const common::DirectiveFormat kProfileFormat{
    "profile", 0, kProfileDirectives, common::throw_as<ProfileError>};

MissionProfile& MissionProfile::add_window(std::string_view memory,
                                           IdleWindow window) {
  for (auto& set : windows) {
    if (set.memory == memory) {
      set.windows.push_back(window);
      return *this;
    }
  }
  windows.push_back(WindowSet{std::string{memory}, {window}});
  return *this;
}

const MissionProfile::WindowSet* MissionProfile::find(
    std::string_view memory) const {
  for (const auto& set : windows)
    if (set.memory == memory) return &set;
  return nullptr;
}

std::uint64_t MissionProfile::effective_horizon() const noexcept {
  if (horizon != 0) return horizon;
  std::uint64_t last = 0;
  for (const auto& set : windows)
    for (const auto& w : set.windows) last = std::max(last, w.end);
  return last;
}

void MissionProfile::validate() const {
  if (bus_budget < 1)
    throw FieldError{"profile '" + name + "': bus budget must be >= 1"};
  for (const auto& set : windows) {
    auto sorted = set.windows;
    std::sort(sorted.begin(), sorted.end(),
              [](const IdleWindow& a, const IdleWindow& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end < b.end;
              });
    for (const auto& w : sorted) {
      if (w.start >= w.end)
        throw FieldError{"profile '" + name + "': empty idle window [" +
                         std::to_string(w.start) + ", " +
                         std::to_string(w.end) + ") for '" + set.memory + "'"};
    }
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      if (sorted[i].end > sorted[i + 1].start)
        throw FieldError{"profile '" + name + "': overlapping idle windows [" +
                         std::to_string(sorted[i].start) + ", " +
                         std::to_string(sorted[i].end) + ") and [" +
                         std::to_string(sorted[i + 1].start) + ", " +
                         std::to_string(sorted[i + 1].end) + ") for '" +
                         set.memory + "'"};
    }
  }
}

void MissionProfile::validate(const soc::SocDescription& chip) const {
  validate();
  for (const auto& set : windows)
    if (chip.find(set.memory) == nullptr)
      throw FieldError{"profile '" + name + "': window names unknown memory '" +
                       set.memory + "'"};
}

MissionProfile parse_profile_text(const std::string& text,
                                  const ProfileParseOptions& options) {
  return parse_profile_directives(common::lex(text, kProfileFormat), options);
}

MissionProfile parse_profile_directives(
    const std::vector<common::Directive>& directives,
    const ProfileParseOptions& options) {
  MissionProfile profile;
  bool named = false;
  for (const auto& d : directives) {
    const auto& tokens = d.tokens;
    const auto& directive = tokens[0];
    const auto fail = [&](const std::string& what) {
      kProfileFormat.fail(d.line, what);
    };
    const auto count = [&](const char* what) {
      const auto v = common::parse_u64(tokens[1], kProfileFormat.base);
      if (!v) fail(std::string{"bad "} + what + " '" + tokens[1] + "'");
      return *v;
    };
    if (directive == "profile") {
      if (tokens.size() != 2) fail("usage: profile <name>");
      if (named) fail("duplicate profile directive");
      profile.name = tokens[1];
      named = true;
    } else if (directive == "horizon") {
      if (tokens.size() != 2) fail("usage: horizon <cycles>");
      profile.horizon = count("horizon");
    } else if (directive == "bus_budget") {
      if (tokens.size() != 2) fail("usage: bus_budget <lanes>");
      profile.bus_budget = count("bus budget");
    } else {  // window
      if (tokens.size() < 4) fail("usage: window <mem> start=N end=N");
      const common::KeyValues args{d, 2, kProfileFormat};
      const IdleWindow w{args.u64("start"), args.u64("end")};
      args.finish();
      if (w.end < w.start)
        fail("window end=" + std::to_string(w.end) +
             " is before start=" + std::to_string(w.start));
      profile.add_window(tokens[1], w);
    }
  }
  if (options.validate) profile.validate();
  return profile;
}

std::string to_profile_text(const MissionProfile& profile) {
  std::ostringstream os;
  if (!profile.name.empty())
    os << "profile " << common::token_text(profile.name) << "\n";
  if (profile.horizon != 0) os << "horizon " << profile.horizon << "\n";
  if (profile.bus_budget != 1) os << "bus_budget " << profile.bus_budget << "\n";
  os << "\n";
  for (const auto& set : profile.windows)
    for (const auto& w : set.windows)
      os << "window " << common::token_text(set.memory) << " start=" << w.start
         << " end=" << w.end << "\n";
  return os.str();
}

MissionProfile demo_profile() {
  // Tuned against the exact session cycle counts of demo_soc()/demo_plan()
  // (bench_field pins the interesting consequences): the small arrays
  // complete several transparent passes per window, the caches must
  // checkpoint and resume across windows, and bus_budget 2 forces
  // contention stalls when three instances are idle at once.
  MissionProfile p;
  p.name = "mission_demo";
  p.horizon = 600'000;
  p.bus_budget = 2;
  const auto periodic = [&p](std::string_view mem, std::uint64_t first,
                             std::uint64_t width, std::uint64_t period) {
    for (std::uint64_t s = first; s < p.horizon; s += period)
      p.add_window(mem, {s, std::min(s + width, p.horizon)});
  };
  periodic("cpu_l1i", 0, 30'000, 100'000);
  periodic("cpu_l1d", 10'000, 30'000, 100'000);
  periodic("cpu_l2", 0, 60'000, 150'000);
  periodic("dsp_x", 5'000, 20'000, 80'000);
  periodic("dsp_y", 25'000, 20'000, 80'000);
  periodic("gpu_tile", 0, 40'000, 120'000);
  periodic("nic_fifo", 2'000, 10'000, 50'000);
  periodic("rom_patch", 0, 8'000, 60'000);
  periodic("sensor_buf", 4'000, 6'000, 40'000);
  return p;
}

}  // namespace pmbist::field
