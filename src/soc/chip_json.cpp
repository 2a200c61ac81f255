#include "soc/chip_json.h"

#include <map>
#include <set>
#include <sstream>

#include "common/json.h"
#include "soc/fault_codec.h"

namespace pmbist::soc {
namespace {

using common::json::JsonError;
using common::json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw ChipError{
      (path.empty() ? std::string{"chip json"} : "chip json " + path) + ": " +
      what};
}

/// Rejects members outside the schema so typos surface instead of being
/// silently dropped (mirrors the text parser's unknown-directive error).
void check_keys(const Value& obj, std::initializer_list<const char*> allowed,
                const std::string& path) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) fail(path, "unknown field \"" + key + "\"");
  }
}

const Value& member(const Value& obj, const char* key,
                    const std::string& path) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail(path, std::string{"missing \""} + key + "\"");
  return *v;
}

std::string string_field(const Value& obj, const char* key,
                         const std::string& path) {
  const Value& v = member(obj, key, path);
  if (!v.is_string()) fail(path, std::string{"\""} + key + "\" must be a string");
  return v.as_string();
}

int int_field_or(const Value& obj, const char* key, int fallback,
                 const std::string& path) {
  const Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  try {
    return static_cast<int>(v->as_i64());
  } catch (const JsonError&) {
    fail(path, std::string{"\""} + key + "\" must be an integer");
  }
}

std::uint64_t u64_field_or(const Value& obj, const char* key,
                           std::uint64_t fallback, const std::string& path) {
  const Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->as_u64();
  } catch (const JsonError&) {
    fail(path, std::string{"\""} + key + "\" must be a non-negative integer");
  }
}

/// Renders one fault-argument value as the text codec's key=value payload:
/// numbers keep their lexeme, bools map to 1/0, strings pass through.
std::string scalar_text(const Value& v, const std::string& path) {
  switch (v.kind()) {
    case Value::Kind::Number:
      return v.number_text();
    case Value::Kind::String:
      return v.as_string();
    case Value::Kind::Bool:
      return v.as_bool() ? "1" : "0";
    default:
      fail(path, "fault arguments must be numbers, strings or booleans");
  }
}

memsim::Fault parse_fault_json(const Value& fault,
                               const memsim::MemoryGeometry& geometry,
                               const std::string& path) {
  if (!fault.is_object()) fail(path, "fault must be an object");
  std::string kind;
  std::map<std::string, std::string> kv;
  for (const auto& [key, value] : fault.members()) {
    if (key == "kind") {
      if (!value.is_string()) fail(path, "\"kind\" must be a string");
      kind = value.as_string();
    } else {
      kv[key] = scalar_text(value, path);
    }
  }
  if (kind.empty()) fail(path, "missing \"kind\"");
  return detail::parse_fault_kv(kind, kv, geometry,
                                "chip json " + path);
}

MemoryInstance parse_memory_json(const Value& mem, const std::string& path) {
  if (!mem.is_object()) fail(path, "memory must be an object");
  check_keys(mem,
             {"name", "addr_bits", "word_bits", "ports", "seed", "row_bits",
              "scramble", "spare_rows", "spare_cols", "faults"},
             path);
  MemoryInstance m;
  m.name = string_field(mem, "name", path);
  member(mem, "addr_bits", path);
  m.geometry = {.address_bits = int_field_or(mem, "addr_bits", 0, path),
                .word_bits = int_field_or(mem, "word_bits", 1, path),
                .num_ports = int_field_or(mem, "ports", 1, path)};
  m.powerup_seed = u64_field_or(mem, "seed", 1, path);
  m.row_bits = int_field_or(mem, "row_bits", -1, path);
  m.scramble_seed = u64_field_or(mem, "scramble", 0, path);
  m.repair = {.spare_rows = int_field_or(mem, "spare_rows", 0, path),
              .spare_cols = int_field_or(mem, "spare_cols", 0, path)};
  return m;
}

TestAssignment parse_assignment_json(const Value& a, const std::string& path) {
  if (!a.is_object()) fail(path, "assignment must be an object");
  check_keys(a, {"memory", "algorithm", "controller", "group", "weight"},
             path);
  TestAssignment out;
  out.memory = string_field(a, "memory", path);
  out.algorithm = string_field(a, "algorithm", path);
  try {
    out.controller =
        controller_kind_by_name(string_field(a, "controller", path));
  } catch (const ChipError&) {
    throw;
  } catch (const std::exception& e) {
    fail(path, e.what());
  }
  if (const Value* g = a.find("group")) {
    if (!g->is_string()) fail(path, "\"group\" must be a string");
    out.share_group = g->as_string();
  }
  if (const Value* w = a.find("weight")) {
    try {
      out.power_weight = w->as_double();
    } catch (const JsonError&) {
      fail(path, "\"weight\" must be a number");
    }
  }
  return out;
}

/// True when the text codec's value is a plain JSON integer lexeme (the
/// serializer emits those unquoted so 1/0 flags read naturally).
bool is_integer_text(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text)
    if (c < '0' || c > '9') return false;
  return !(text.size() > 1 && text[0] == '0');
}

}  // namespace

ChipFile parse_chip_json(const std::string& text,
                         const ChipParseOptions& options) {
  Value root;
  try {
    root = Value::parse(text);
  } catch (const JsonError& e) {
    fail("", e.what());
  }
  if (!root.is_object()) fail("", "top level must be an object");
  check_keys(root, {"soc", "power_budget", "power_model", "memories",
                    "assignments"},
             "");

  ChipFile chip;
  if (const Value* name = root.find("soc")) {
    if (!name->is_string()) fail("", "\"soc\" must be a string");
    chip.description = SocDescription{name->as_string()};
  }
  if (const Value* budget = root.find("power_budget")) {
    try {
      chip.plan.set_power_budget(budget->as_double());
    } catch (const JsonError&) {
      fail("", "\"power_budget\" must be a number");
    }
  }
  if (const Value* model = root.find("power_model")) {
    if (!model->is_string() || (model->as_string() != "calibrated" &&
                                model->as_string() != "heuristic")) {
      fail("", "\"power_model\" must be \"calibrated\" or \"heuristic\"");
    }
    chip.plan.set_power_calibrated(model->as_string() == "calibrated");
  }

  // Memories first (with faults deferred until the instance exists, same
  // declare-before-fault order the text format enforces).
  std::vector<const Value*> fault_lists;
  if (const Value* memories = root.find("memories")) {
    if (!memories->is_array()) fail("", "\"memories\" must be an array");
    for (std::size_t i = 0; i < memories->items().size(); ++i) {
      const std::string path = "memories[" + std::to_string(i) + "]";
      const Value& mem = memories->items()[i];
      try {
        chip.description.add(parse_memory_json(mem, path));
      } catch (const ChipError&) {
        throw;
      } catch (const std::exception& e) {
        fail(path, e.what());
      }
      fault_lists.push_back(mem.is_object() ? mem.find("faults") : nullptr);
    }
    for (std::size_t i = 0; i < fault_lists.size(); ++i) {
      const Value* faults = fault_lists[i];
      if (faults == nullptr) continue;
      const std::string mem_path = "memories[" + std::to_string(i) + "]";
      if (!faults->is_array()) fail(mem_path, "\"faults\" must be an array");
      const MemoryInstance& m = chip.description.memories()[i];
      for (std::size_t f = 0; f < faults->items().size(); ++f) {
        const std::string path =
            mem_path + ".faults[" + std::to_string(f) + "]";
        chip.description.add_fault(
            m.name, parse_fault_json(faults->items()[f], m.geometry, path));
      }
    }
  }

  if (const Value* assignments = root.find("assignments")) {
    if (!assignments->is_array()) fail("", "\"assignments\" must be an array");
    for (std::size_t i = 0; i < assignments->items().size(); ++i) {
      const std::string path = "assignments[" + std::to_string(i) + "]";
      try {
        chip.plan.assign(parse_assignment_json(assignments->items()[i], path));
      } catch (const ChipError&) {
        throw;
      } catch (const std::exception& e) {
        fail(path, e.what());
      }
    }
  }

  if (options.validate_plan) {
    try {
      chip.plan.validate(chip.description);
    } catch (const std::exception& e) {
      throw ChipError{std::string{"chip json: "} + e.what()};
    }
  }
  return chip;
}

std::string serialize_chip_json(const SocDescription& chip,
                                const TestPlan& plan) {
  using common::json::quote;
  std::ostringstream os;
  os << "{\n";
  os << "  \"soc\": " << quote(chip.name());
  if (plan.power().budget > 0.0)
    os << ",\n  \"power_budget\": " << common::real_text(plan.power().budget);
  if (plan.power().calibrated) os << ",\n  \"power_model\": \"calibrated\"";
  os << ",\n  \"memories\": [";
  for (std::size_t i = 0; i < chip.memories().size(); ++i) {
    const MemoryInstance& m = chip.memories()[i];
    os << (i ? ",\n    {" : "\n    {");
    os << "\"name\": " << quote(m.name)
       << ", \"addr_bits\": " << m.geometry.address_bits;
    if (m.geometry.word_bits != 1)
      os << ", \"word_bits\": " << m.geometry.word_bits;
    if (m.geometry.num_ports != 1)
      os << ", \"ports\": " << m.geometry.num_ports;
    if (m.powerup_seed != 1) os << ", \"seed\": " << m.powerup_seed;
    if (m.row_bits >= 0) os << ", \"row_bits\": " << m.row_bits;
    if (m.scramble_seed != 0) os << ", \"scramble\": " << m.scramble_seed;
    if (m.repair.spare_rows != 0)
      os << ", \"spare_rows\": " << m.repair.spare_rows;
    if (m.repair.spare_cols != 0)
      os << ", \"spare_cols\": " << m.repair.spare_cols;
    if (!m.faults.empty()) {
      os << ", \"faults\": [";
      for (std::size_t f = 0; f < m.faults.size(); ++f) {
        const auto [kind, kv] = detail::fault_kv(m.faults[f]);
        os << (f ? ",\n      {" : "\n      {");
        os << "\"kind\": " << quote(kind);
        for (const auto& [key, value] : kv) {
          os << ", " << quote(key) << ": ";
          if (is_integer_text(value)) {
            os << value;
          } else {
            os << quote(value);
          }
        }
        os << "}";
      }
      os << "\n    ]";
    }
    os << "}";
  }
  os << (chip.memories().empty() ? "]" : "\n  ]");
  os << ",\n  \"assignments\": [";
  for (std::size_t i = 0; i < plan.assignments().size(); ++i) {
    const TestAssignment& a = plan.assignments()[i];
    os << (i ? ",\n    {" : "\n    {");
    os << "\"memory\": " << quote(a.memory)
       << ", \"algorithm\": " << quote(a.algorithm)
       << ", \"controller\": " << quote(std::string{to_string(a.controller)});
    if (!a.share_group.empty()) os << ", \"group\": " << quote(a.share_group);
    if (a.power_weight > 0.0)
      os << ", \"weight\": " << common::real_text(a.power_weight);
    os << "}";
  }
  os << (plan.assignments().empty() ? "]" : "\n  ]");
  os << "\n}\n";
  return os.str();
}

}  // namespace pmbist::soc
