#include "soc/chip.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "march/coverage.h"
#include "soc/chip_json.h"
#include "soc/fault_codec.h"

namespace pmbist::soc {

constexpr std::string_view kChipDirectives[] = {
    "soc", "power_budget", "power_model", "mem", "fault", "assign"};
const common::DirectiveFormat kChipFormat{"chip file", 0, kChipDirectives,
                                          common::throw_as<ChipError>};

namespace {

using common::KeyValues;

/// "addr:bit" cell reference, bounds-checked against the geometry.
memsim::BitRef cell_arg(const KeyValues& args, const std::string& key,
                        const memsim::MemoryGeometry& g) {
  const auto& text = args.raw(key);
  const auto colon = text.find(':');
  if (colon == std::string::npos)
    args.fail(key + " must be <addr>:<bit>, got '" + text + "'");
  const auto addr = common::parse_u64(text.substr(0, colon), args.base());
  const auto bit = common::parse_u64(text.substr(colon + 1), args.base());
  if (!addr || !bit) args.fail("bad cell reference '" + text + "'");
  if (*addr >= g.num_words() || *bit >= static_cast<std::uint64_t>(g.word_bits))
    args.fail(key + "=" + std::to_string(*addr) + ":" + std::to_string(*bit) +
              " is outside the geometry");
  return {static_cast<memsim::Address>(*addr), static_cast<int>(*bit)};
}

/// AF `physical=` list: comma-separated addresses, or `none`.
std::vector<memsim::Address> address_list_arg(const KeyValues& args,
                                              const std::string& key,
                                              const memsim::MemoryGeometry& g) {
  const auto& text = args.raw(key);
  std::vector<memsim::Address> out;
  if (text == "none") return out;
  for (std::size_t start = 0; start <= text.size();) {
    const auto comma = std::min(text.find(',', start), text.size());
    const auto a = common::parse_u64(text.substr(start, comma - start),
                                     args.base());
    if (!a) args.fail("bad address list for " + key + ": '" + text + "'");
    if (*a >= g.num_words()) args.fail(key + " address too big");
    out.push_back(static_cast<memsim::Address>(*a));
    start = comma + 1;
  }
  return out;
}

memsim::Fault parse_fault_args(const std::string& kind, const KeyValues& args,
                               const memsim::MemoryGeometry& g) {
  using namespace memsim;
  auto cell = [&](const char* key = "cell") { return cell_arg(args, key, g); };
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
    if (af.logical >= g.num_words()) args.fail("logical address too big");
    af.physical = address_list_arg(args, "physical", g);
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
      args.fail("port/bit outside the geometry");
    return PortReadFault{port, bit};
  }
  if (kind == "sample") {
    const auto& name = args.raw("class");
    const auto cls = memsim::parse_fault_class(name);
    if (!cls) args.fail("unknown fault class '" + name + "'");
    const auto seed = args.u64_or("seed", 1);
    const auto index = args.u64_or("index", 0);
    const auto universe = march::make_fault_universe(
        *cls, g, seed, static_cast<int>(std::max<std::uint64_t>(64, index + 1)));
    if (universe.empty())
      args.fail("empty fault universe for this class/geometry");
    return universe[index % universe.size()];
  }
  args.fail("unknown fault kind '" + kind + "'");
}

/// parse_fault_args, then no argument may be left over.
memsim::Fault parse_fault(const std::string& kind, const KeyValues& args,
                          const memsim::MemoryGeometry& g) {
  auto fault = parse_fault_args(kind, args, g);
  args.finish();
  return fault;
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
  return parse_fault(kind, KeyValues{kv, where, kChipFormat}, geometry);
}

std::string cell_text(const memsim::BitRef& cell) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u:%d", cell.addr, cell.bit);
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
  return parse_chip_directives(common::lex(text, kChipFormat), options);
}

ChipFile parse_chip_directives(const std::vector<common::Directive>& directives,
                               const ChipParseOptions& options) {
  ChipFile chip;
  bool named = false;
  for (const auto& d : directives) {
    const auto& tokens = d.tokens;
    const auto& directive = tokens[0];
    const auto fail = [&](const std::string& what) {
      kChipFormat.fail(d.line, what);
    };
    try {
      if (directive == "soc") {
        if (tokens.size() != 2) fail("usage: soc <name>");
        if (named) fail("duplicate soc directive");
        chip.description = SocDescription{tokens[1]};
        named = true;
      } else if (directive == "power_budget") {
        if (tokens.size() != 2) fail("usage: power_budget <weight>");
        const auto budget = common::parse_real(tokens[1]);
        if (!budget) fail("bad power budget '" + tokens[1] + "'");
        chip.plan.set_power_budget(*budget);
      } else if (directive == "power_model") {
        if (tokens.size() != 2 ||
            (tokens[1] != "calibrated" && tokens[1] != "heuristic")) {
          fail("usage: power_model calibrated|heuristic");
        }
        chip.plan.set_power_calibrated(tokens[1] == "calibrated");
      } else if (directive == "mem") {
        if (tokens.size() < 3) fail("usage: mem <name> addr_bits=N ...");
        const KeyValues args{d, 2, kChipFormat};
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
        args.finish();
        chip.description.add(std::move(m));
      } else if (directive == "fault") {
        if (tokens.size() < 3) fail("usage: fault <mem> <KIND> ...");
        const auto* mem = chip.description.find(tokens[1]);
        if (mem == nullptr)
          fail("fault names unknown memory '" + tokens[1] +
               "' (declare mem first)");
        chip.description.add_fault(
            tokens[1],
            parse_fault(tokens[2], KeyValues{d, 3, kChipFormat}, mem->geometry));
      } else {  // assign
        if (tokens.size() < 4)
          fail("usage: assign <mem> \"<algorithm>\" <ucode|pfsm|hardwired>");
        const KeyValues args{d, 4, kChipFormat};
        TestAssignment a;
        a.memory = tokens[1];
        a.algorithm = tokens[2];
        a.controller = controller_kind_by_name(tokens[3]);
        if (args.has("group")) a.share_group = args.raw("group");
        if (args.has("weight")) a.power_weight = args.real("weight");
        args.finish();
        chip.plan.assign(std::move(a));
      }
    } catch (const ChipError&) {
      throw;
    } catch (const std::exception& e) {
      fail(e.what());
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

bool is_chip_json(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  return first != std::string::npos && text[first] == '{';
}

ChipFile parse_chip(const std::string& text, const ChipParseOptions& options) {
  return is_chip_json(text) ? parse_chip_json(text, options)
                            : parse_chip_text(text, options);
}

std::string to_chip_text(const SocDescription& chip, const TestPlan& plan) {
  std::ostringstream os;
  os << "soc " << common::token_text(chip.name()) << "\n";
  if (plan.power().budget > 0.0)
    os << "power_budget " << common::real_text(plan.power().budget) << "\n";
  if (plan.power().calibrated) os << "power_model calibrated\n";
  os << "\n";
  for (const auto& m : chip.memories()) {
    os << "mem " << common::token_text(m.name) << " addr_bits=" << m.geometry.address_bits;
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
      os << "fault " << common::token_text(m.name) << " " << fault_text(f)
         << "\n";
    }
  os << "\n";
  for (const auto& a : plan.assignments()) {
    os << "assign " << common::token_text(a.memory) << " "
       << quoted(a.algorithm) << " " << to_string(a.controller);
    if (!a.share_group.empty())
      os << " group=" << common::token_text(a.share_group);
    if (a.power_weight > 0.0)
      os << " weight=" << common::real_text(a.power_weight);
    os << "\n";
  }
  return os.str();
}

}  // namespace pmbist::soc
