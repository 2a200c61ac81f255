#include "soc/chip.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "march/coverage.h"
#include "soc/chip_json.h"
#include "soc/fault_codec.h"

namespace pmbist::soc {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ChipError{"chip file line " + std::to_string(line) + ": " + what};
}

[[noreturn]] void fail_at(const std::string& where, const std::string& what) {
  throw ChipError{where + ": " + what};
}

/// Splits one line into tokens: double-quoted strings (kept verbatim, no
/// escapes) or maximal non-space runs.  `#` starts a comment outside quotes.
std::vector<std::string> tokenize(const std::string& line, std::size_t lineno) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
    } else if (c == '#') {
      break;
    } else if (c == '"') {
      const auto end = line.find('"', i + 1);
      if (end == std::string::npos) fail(lineno, "unterminated quote");
      tokens.push_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      std::size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
             line[end] != '#' && line[end] != '\r')
        ++end;
      tokens.push_back(line.substr(i, end - i));
      i = end;
    }
  }
  return tokens;
}

/// key=value arguments of one directive (or one JSON fault object —
/// `where` carries the error-message prefix either way).
class Args {
 public:
  Args(const std::vector<std::string>& tokens, std::size_t first,
       std::size_t lineno)
      : where_{"chip file line " + std::to_string(lineno)} {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0)
        fail_at(where_, "expected key=value, got '" + tokens[i] + "'");
      if (!kv_.emplace(tokens[i].substr(0, eq), tokens[i].substr(eq + 1))
               .second)
        fail_at(where_, "duplicate key '" + tokens[i].substr(0, eq) + "'");
    }
  }

  Args(std::map<std::string, std::string> kv, std::string where)
      : kv_{std::move(kv)}, where_{std::move(where)} {}

  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.count(key) != 0;
  }
  [[nodiscard]] const std::map<std::string, std::string>& map() const {
    return kv_;
  }

  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    const auto& text = raw(key);
    try {
      std::size_t used = 0;
      const auto v = std::stoull(text, &used, 0);
      if (used != text.size()) throw std::invalid_argument{text};
      return v;
    } catch (const std::exception&) {
      fail_at(where_, "bad number for " + key + ": '" + text + "'");
    }
  }
  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t fallback) const {
    return has(key) ? u64(key) : fallback;
  }
  [[nodiscard]] int num(const std::string& key) const {
    return static_cast<int>(u64(key));
  }
  [[nodiscard]] int num_or(const std::string& key, int fallback) const {
    return has(key) ? num(key) : fallback;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    const auto v = u64(key);
    if (v > 1) fail_at(where_, key + " must be 0 or 1");
    return v != 0;
  }
  [[nodiscard]] bool flag_or(const std::string& key, bool fallback) const {
    return has(key) ? flag(key) : fallback;
  }
  [[nodiscard]] double real(const std::string& key) const {
    const auto& text = raw(key);
    try {
      std::size_t used = 0;
      const auto v = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument{text};
      return v;
    } catch (const std::exception&) {
      fail_at(where_, "bad number for " + key + ": '" + text + "'");
    }
  }
  /// "addr:bit" cell reference.
  [[nodiscard]] memsim::BitRef cell(const std::string& key) const {
    const auto& text = raw(key);
    const auto colon = text.find(':');
    if (colon == std::string::npos)
      fail_at(where_, key + " must be <addr>:<bit>, got '" + text + "'");
    try {
      return {static_cast<memsim::Address>(
                  std::stoull(text.substr(0, colon), nullptr, 0)),
              static_cast<int>(std::stoull(text.substr(colon + 1), nullptr,
                                           0))};
    } catch (const std::exception&) {
      fail_at(where_, "bad cell reference '" + text + "'");
    }
  }
  [[nodiscard]] const std::string& raw(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) fail_at(where_, "missing " + key + "=");
    return it->second;
  }
  [[nodiscard]] const std::string& where() const { return where_; }

 private:
  std::map<std::string, std::string> kv_;
  std::string where_;
};

memsim::FaultClass class_by_name(const std::string& name,
                                 const std::string& where) {
  if (const auto cls = memsim::parse_fault_class(name)) return *cls;
  fail_at(where, "unknown fault class '" + name + "'");
}

memsim::BitRef checked_cell(const Args& args, const std::string& key,
                            const memsim::MemoryGeometry& g) {
  const auto c = args.cell(key);
  if (c.addr >= g.num_words() || c.bit < 0 || c.bit >= g.word_bits)
    fail_at(args.where(), key + "=" + std::to_string(c.addr) + ":" +
                              std::to_string(c.bit) +
                              " is outside the geometry");
  return c;
}

memsim::Fault parse_fault_args(const std::string& kind, const Args& args,
                               const memsim::MemoryGeometry& g) {
  using namespace memsim;
  const std::string& where = args.where();
  auto cell = [&](const char* key = "cell") {
    return checked_cell(args, key, g);
  };
  if (kind == "SAF") return StuckAtFault{cell(), args.flag("value")};
  if (kind == "TF") return TransitionFault{cell(), args.flag("rising")};
  if (kind == "CFin")
    return InversionCouplingFault{cell("aggressor"), cell("victim"),
                                  args.flag("rising")};
  if (kind == "CFid")
    return IdempotentCouplingFault{cell("aggressor"), cell("victim"),
                                   args.flag("rising"), args.flag("forced")};
  if (kind == "CFst")
    return StateCouplingFault{cell("aggressor"), cell("victim"),
                              args.flag("state"), args.flag("forced")};
  if (kind == "AF") {
    AddressDecoderFault af;
    af.logical = static_cast<Address>(args.u64("logical"));
    const auto& list = args.raw("physical");
    if (list != "none") {
      std::istringstream is{list};
      std::string part;
      while (std::getline(is, part, ','))
        af.physical.push_back(
            static_cast<Address>(std::stoull(part, nullptr, 0)));
    }
    if (af.logical >= g.num_words()) fail_at(where, "logical address too big");
    for (const auto p : af.physical)
      if (p >= g.num_words()) fail_at(where, "physical address too big");
    return af;
  }
  if (kind == "SOF") return StuckOpenFault{cell()};
  if (kind == "DRF")
    return DataRetentionFault{cell(), args.flag("leak_to"),
                              args.u64_or("hold_ns", 100'000)};
  if (kind == "IRF") return IncorrectReadFault{cell()};
  if (kind == "WDF") return WriteDisturbFault{cell()};
  if (kind == "RDF") return ReadDestructiveFault{cell(), false};
  if (kind == "DRDF") return ReadDestructiveFault{cell(), true};
  if (kind == "PF") {
    const int port = args.num("port"), bit = args.num("bit");
    if (port < 1 || port >= g.num_ports || bit < 0 || bit >= g.word_bits)
      fail_at(where, "port/bit outside the geometry");
    return PortReadFault{port, bit};
  }
  if (kind == "sample") {
    const auto cls = class_by_name(args.raw("class"), where);
    const auto seed = args.u64_or("seed", 1);
    const auto index = args.u64_or("index", 0);
    const auto universe = march::make_fault_universe(
        cls, g, seed, static_cast<int>(std::max<std::uint64_t>(64, index + 1)));
    if (universe.empty())
      fail_at(where, "empty fault universe for this class/geometry");
    return universe[index % universe.size()];
  }
  fail_at(where, "unknown fault kind '" + kind + "'");
}

// --- serialization ----------------------------------------------------

std::string fault_text(const memsim::Fault& fault) {
  const auto [kind, kv] = detail::fault_kv(fault);
  std::string out = kind;
  for (const auto& [key, value] : kv) out += " " + key + "=" + value;
  return out;
}

/// Quotes an algorithm reference for the chip file (no escaping needed:
/// neither library names nor the DSL use double quotes).
std::string quoted(const std::string& text) { return "\"" + text + "\""; }

}  // namespace

namespace detail {

memsim::Fault parse_fault_kv(const std::string& kind,
                             const std::map<std::string, std::string>& kv,
                             const memsim::MemoryGeometry& geometry,
                             const std::string& where) {
  return parse_fault_args(kind, Args{kv, where}, geometry);
}

std::string cell_text(const memsim::BitRef& cell) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u:%d", cell.addr, cell.bit);
  return buf;
}

std::string real_text(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::pair<std::string, FaultKv> fault_kv(const memsim::Fault& fault) {
  using namespace memsim;
  auto on = [](bool b) { return std::string{b ? "1" : "0"}; };
  struct Visitor {
    decltype(on)& flag;
    std::pair<std::string, FaultKv> operator()(const StuckAtFault& f) {
      return {"SAF", {{"cell", cell_text(f.cell)}, {"value", flag(f.value)}}};
    }
    std::pair<std::string, FaultKv> operator()(const TransitionFault& f) {
      return {"TF",
              {{"cell", cell_text(f.cell)}, {"rising", flag(f.rising)}}};
    }
    std::pair<std::string, FaultKv> operator()(
        const InversionCouplingFault& f) {
      return {"CFin",
              {{"aggressor", cell_text(f.aggressor)},
               {"victim", cell_text(f.victim)},
               {"rising", flag(f.on_rising)}}};
    }
    std::pair<std::string, FaultKv> operator()(
        const IdempotentCouplingFault& f) {
      return {"CFid",
              {{"aggressor", cell_text(f.aggressor)},
               {"victim", cell_text(f.victim)},
               {"rising", flag(f.on_rising)},
               {"forced", flag(f.forced_value)}}};
    }
    std::pair<std::string, FaultKv> operator()(const StateCouplingFault& f) {
      return {"CFst",
              {{"aggressor", cell_text(f.aggressor)},
               {"victim", cell_text(f.victim)},
               {"state", flag(f.aggressor_state)},
               {"forced", flag(f.forced_value)}}};
    }
    std::pair<std::string, FaultKv> operator()(const AddressDecoderFault& f) {
      std::string physical;
      if (f.physical.empty()) {
        physical = "none";
      } else {
        for (std::size_t i = 0; i < f.physical.size(); ++i) {
          if (i > 0) physical += ',';
          physical += std::to_string(f.physical[i]);
        }
      }
      return {"AF",
              {{"logical", std::to_string(f.logical)},
               {"physical", std::move(physical)}}};
    }
    std::pair<std::string, FaultKv> operator()(const StuckOpenFault& f) {
      return {"SOF", {{"cell", cell_text(f.cell)}}};
    }
    std::pair<std::string, FaultKv> operator()(const DataRetentionFault& f) {
      return {"DRF",
              {{"cell", cell_text(f.cell)},
               {"leak_to", flag(f.leak_to)},
               {"hold_ns", std::to_string(f.hold_time_ns)}}};
    }
    std::pair<std::string, FaultKv> operator()(const IncorrectReadFault& f) {
      return {"IRF", {{"cell", cell_text(f.cell)}}};
    }
    std::pair<std::string, FaultKv> operator()(const WriteDisturbFault& f) {
      return {"WDF", {{"cell", cell_text(f.cell)}}};
    }
    std::pair<std::string, FaultKv> operator()(const ReadDestructiveFault& f) {
      return {f.deceptive ? "DRDF" : "RDF", {{"cell", cell_text(f.cell)}}};
    }
    std::pair<std::string, FaultKv> operator()(
        const NeighborhoodPatternFault&) {
      throw SocError{"NPSF faults are not expressible in a chip file"};
    }
    std::pair<std::string, FaultKv> operator()(const PortReadFault& f) {
      return {"PF",
              {{"port", std::to_string(f.port)},
               {"bit", std::to_string(f.bit)}}};
    }
  };
  return std::visit(Visitor{on}, fault);
}

}  // namespace detail

ChipFile parse_chip_text(const std::string& text,
                         const ChipParseOptions& options) {
  ChipFile chip;
  std::istringstream lines{text};
  std::string line;
  std::size_t lineno = 0;
  bool named = false;
  while (std::getline(lines, line)) {
    ++lineno;
    const auto tokens = tokenize(line, lineno);
    if (tokens.empty()) continue;
    const auto& directive = tokens[0];
    try {
      if (directive == "soc") {
        if (tokens.size() != 2) fail(lineno, "usage: soc <name>");
        if (named) fail(lineno, "duplicate soc directive");
        chip.description = SocDescription{tokens[1]};
        named = true;
      } else if (directive == "power_budget") {
        if (tokens.size() != 2) fail(lineno, "usage: power_budget <weight>");
        try {
          chip.plan.set_power_budget(std::stod(tokens[1]));
        } catch (const std::exception&) {
          fail(lineno, "bad power budget '" + tokens[1] + "'");
        }
      } else if (directive == "power_model") {
        if (tokens.size() != 2 ||
            (tokens[1] != "calibrated" && tokens[1] != "heuristic")) {
          fail(lineno, "usage: power_model calibrated|heuristic");
        }
        chip.plan.set_power_calibrated(tokens[1] == "calibrated");
      } else if (directive == "mem") {
        if (tokens.size() < 3) fail(lineno, "usage: mem <name> addr_bits=N ...");
        const Args args{tokens, 2, lineno};
        MemoryInstance m;
        m.name = tokens[1];
        m.geometry = {.address_bits = args.num("addr_bits"),
                      .word_bits = args.num_or("word_bits", 1),
                      .num_ports = args.num_or("ports", 1)};
        m.powerup_seed = args.u64_or("seed", 1);
        m.row_bits = args.num_or("row_bits", -1);
        m.scramble_seed = args.u64_or("scramble", 0);
        m.repair = {.spare_rows = args.num_or("spare_rows", 0),
                    .spare_cols = args.num_or("spare_cols", 0)};
        chip.description.add(std::move(m));
      } else if (directive == "fault") {
        if (tokens.size() < 3) fail(lineno, "usage: fault <mem> <KIND> ...");
        const auto* mem = chip.description.find(tokens[1]);
        if (mem == nullptr)
          fail(lineno, "fault names unknown memory '" + tokens[1] +
                           "' (declare mem first)");
        const Args args{tokens, 3, lineno};
        chip.description.add_fault(
            tokens[1], parse_fault_args(tokens[2], args, mem->geometry));
      } else if (directive == "assign") {
        if (tokens.size() < 4)
          fail(lineno,
               "usage: assign <mem> \"<algorithm>\" <ucode|pfsm|hardwired>");
        const Args args{tokens, 4, lineno};
        TestAssignment a;
        a.memory = tokens[1];
        a.algorithm = tokens[2];
        a.controller = controller_kind_by_name(tokens[3]);
        if (args.has("group")) a.share_group = args.raw("group");
        if (args.has("weight")) a.power_weight = args.real("weight");
        chip.plan.assign(std::move(a));
      } else {
        fail(lineno, "unknown directive '" + directive + "'");
      }
    } catch (const ChipError&) {
      throw;
    } catch (const std::exception& e) {
      fail(lineno, e.what());
    }
  }
  if (options.validate_plan) {
    try {
      chip.plan.validate(chip.description);
    } catch (const std::exception& e) {
      throw ChipError{std::string{"chip file: "} + e.what()};
    }
  }
  return chip;
}

ChipFile parse_chip(const std::string& text, const ChipParseOptions& options) {
  // Sniff the format: a chip file cannot start with '{', a JSON mirror
  // cannot start with anything else.
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{')
    return parse_chip_json(text, options);
  return parse_chip_text(text, options);
}

ChipFile load_chip_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) throw ChipError{"cannot open chip file '" + path + "'"};
  std::ostringstream os;
  os << is.rdbuf();
  return parse_chip(os.str());
}

std::string to_chip_text(const SocDescription& chip, const TestPlan& plan) {
  std::ostringstream os;
  os << "soc " << chip.name() << "\n";
  if (plan.power().budget > 0.0)
    os << "power_budget " << detail::real_text(plan.power().budget) << "\n";
  if (plan.power().calibrated) os << "power_model calibrated\n";
  os << "\n";
  for (const auto& m : chip.memories()) {
    os << "mem " << m.name << " addr_bits=" << m.geometry.address_bits;
    if (m.geometry.word_bits != 1)
      os << " word_bits=" << m.geometry.word_bits;
    if (m.geometry.num_ports != 1) os << " ports=" << m.geometry.num_ports;
    if (m.powerup_seed != 1) os << " seed=" << m.powerup_seed;
    if (m.row_bits >= 0) os << " row_bits=" << m.row_bits;
    if (m.scramble_seed != 0) os << " scramble=" << m.scramble_seed;
    if (m.repair.spare_rows != 0) os << " spare_rows=" << m.repair.spare_rows;
    if (m.repair.spare_cols != 0) os << " spare_cols=" << m.repair.spare_cols;
    os << "\n";
  }
  bool any_fault = false;
  for (const auto& m : chip.memories())
    for (const auto& f : m.faults) {
      if (!any_fault) os << "\n";
      any_fault = true;
      os << "fault " << m.name << " " << fault_text(f) << "\n";
    }
  os << "\n";
  for (const auto& a : plan.assignments()) {
    os << "assign " << a.memory << " " << quoted(a.algorithm) << " "
       << to_string(a.controller);
    if (!a.share_group.empty()) os << " group=" << a.share_group;
    if (a.power_weight > 0.0)
      os << " weight=" << detail::real_text(a.power_weight);
    os << "\n";
  }
  return os.str();
}

}  // namespace pmbist::soc
