#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "backend/memtest.h"
#include "common/json.h"

namespace pmbist::serve {
namespace {

namespace json = common::json;

[[noreturn]] void fail(const std::string& what) { throw ProtocolError(what); }

using enum FieldType;
using enum Surface;

template <auto M>
constexpr auto member() {
  return +[](Request& r) -> auto& { return r.*M; };
}
template <auto M>
constexpr auto geometry() {
  return +[](Request& r) -> auto& { return r.geometry.*M; };
}
constexpr Field cli(Field f) {  // a CLI-only row
  f.surface = Cli;
  return f;
}
constexpr Field required(Field f) {
  f.required = true;
  return f;
}

constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------------------
// The field tables.  Columns: wire name, CLI spelling, type, member,
// default (spelled as on the command line and read like a given value),
// metavar, help, min, max.

constexpr Field kJobs{"jobs", "--jobs", Int, member<&Request::jobs>(), "0",
                      "N", "worker threads, 0 = all cores", 0, 1024};
constexpr Field kMaxFailures{"max_failures", "--max-failures", U64,
                             member<&Request::max_failures>(), "1024", "N",
                             "failure-log capacity", 0, 1 << 24};
constexpr Field kAlgorithm = required(
    {"algorithm", "", Text, member<&Request::algorithm>(), "",
     "<algorithm|dsl>", "library name or DSL string"});
constexpr Field kSeed{"seed", "--seed", U64, member<&Request::seed>(), "1", "N",
                      "fault-sampling seed", 0, kMaxU64};
constexpr Field kFault{"classes", "--fault", Classes,
                       member<&Request::fault_classes>(), "", "CLASS",
                       "fault class, repeatable (default: all 12)"};
constexpr Field kArch = cli({"arch", "--arch", Text, member<&Request::arch>(),
                             "ucode", "ucode|pfsm|hardwired",
                             "controller architecture"});
constexpr Field kFlat = cli({"flat", "--flat", Bool, member<&Request::flat>(),
                             "", "", "no Repeat fold"});

// A served campaign is bounded; the one-memory commands (run, area, export)
// leave the bounds to the engines, which name the ports an op can address.
constexpr auto kAddrSlot = geometry<&memsim::MemoryGeometry::address_bits>();
constexpr auto kWordSlot = geometry<&memsim::MemoryGeometry::word_bits>();
constexpr auto kPortSlot = geometry<&memsim::MemoryGeometry::num_ports>();
constexpr Field kCampaignGeometry[] = {
    {"addr_bits", "--addr-bits", Int, kAddrSlot, "8", "N",
     "address bits (2^N words)", 1, 20},
    {"word_bits", "--word-bits", Int, kWordSlot, "1", "N", "bits per word", 1,
     64},
    {"ports", "--ports", Int, kPortSlot, "1", "N", "ports", 1, 4},
};
constexpr Field kGeometry[] = {
    cli({"addr_bits", "--addr-bits", Int, kAddrSlot, "8", "N",
         "address bits (2^N words)", 1, 32}),
    cli({"word_bits", "--word-bits", Int, kWordSlot, "1", "N", "bits per word",
         1, 64}),
    cli({"ports", "--ports", Int, kPortSlot, "1", "N", "ports", 1, kMaxInt}),
};

constexpr Field kCoverage[] = {
    kAlgorithm, kCampaignGeometry[0], kCampaignGeometry[1],
    kCampaignGeometry[2],
    {"samples", "--samples", Int, member<&Request::samples>(), "64", "N",
     "fault instances per class", 1, 1 << 20},
    kSeed, kJobs,
    {"kernel", "--kernel", Kernel, member<&Request::kernel>(), "auto",
     "auto|scalar|packed", "campaign inner loop (same results)"},
    kFault,
};

// soc and field: the CLI runs the built-in demo for a missing chip/profile.
constexpr Field kChip = required({"chip", "--chip", File,
                                  member<&Request::chip>(), "", "FILE",
                                  "chip description (docs/SOC.md); "
                                  "default: the built-in demo"});
constexpr Field kProfile = required({"profile", "--profile", File,
                                     member<&Request::profile>(), "", "FILE",
                                     "mission profile (docs/FIELD.md); "
                                     "default: the built-in demo"});
constexpr Field kScheduleRows[] = {
    cli({"backend", "--backend", Backend, member<&Request::backend>(), "sim",
         "sim|hostram", "memory-under-test backend"}),
    cli({"certify", "--certify", Bool, member<&Request::certify>(), "", "",
         "certify the schedule (report on stderr, exit 1 on errors)"}),
    cli({"emit_schedule", "--emit-schedule", Text,
         member<&Request::emit_schedule>(), "", "FILE",
         "write the schedule to FILE"}),
};

constexpr Field kSoc[] = {
    kChip, kJobs,
    {"power_budget", "--power-budget", Double, member<&Request::power_budget>(),
     "-1", "W", "override the chip's power budget (< 0 keeps it)"},
    kMaxFailures, kScheduleRows[0], kScheduleRows[1], kScheduleRows[2],
};
constexpr Field kField[] = {
    kChip, kProfile, kJobs, kMaxFailures,
    kScheduleRows[0], kScheduleRows[1], kScheduleRows[2],
};

constexpr Field kMemtest[] = {
    {"algorithm", "", Text, member<&Request::algorithm>(), "March C",
     "<algorithm|dsl>", "library name or DSL string"},
    // Capped at 16 GiB, the engine's geometry bound, so a request fails
    // here before any mapping.
    {"size_mb", "--size", Size, member<&Request::size_bytes>(), "256M",
     "BYTES", "buffer size, K/M/G suffixes (whole MiB on the wire)", 1,
     16ull << 30},
    {"passes", "--passes", Int, member<&Request::passes>(), "1", "N",
     "full sweeps of the buffer", 1, 1 << 10},
    {"backgrounds", "--backgrounds", Int, member<&Request::backgrounds>(), "0",
     "N", "data backgrounds, 0 = all 7 standard", 0, 7},
    kJobs,
    {"backend", "--backend", Backend, member<&Request::backend>(), "hostram",
     "sim|hostram", "host RAM or the behavioral simulator"},
    cli({"huge_pages", "--huge-pages", Bool, member<&Request::huge_pages>(),
         "", "", "ask for huge pages (graceful fallback)"}),
    cli({"inject", "--inject", Bool, member<&Request::inject>(), "", "",
         "flip one bit mid-run; the run must FAIL"}),
    kMaxFailures,
};

constexpr Field kLint[] = {
    required({"input", "", Input, member<&Request::input>(), "",
              "<file|algorithm|dsl>", "a path when it opens, else inline"}),
    {"unit", "", Text, member<&Request::unit>(), "input", "",
     "name the diagnostics give the input", 0, 0, Serve},
    {"json", "--json", Bool, member<&Request::lint_json>(), "", "",
     "machine-readable diagnostics"},
    {"storage_depth", "--storage-depth", Int,
     member<&Request::storage_depth>(), "32", "N",
     "microcode storage words assumed", 1, 1 << 16},
    {"buffer_depth", "--buffer-depth", Int, member<&Request::buffer_depth>(),
     "16", "N", "pFSM buffer rows assumed", 1, 1 << 16},
    {"against", "--against", TextOrFile, member<&Request::against>(), "",
     "SRC", "prove a controller image realizes SRC (file, name or DSL)"},
    {"chip", "--chip", File, member<&Request::chip>(), "", "FILE",
     "chip a profile or schedule is checked against"},
    {"profile", "--profile", File, member<&Request::profile>(), "", "FILE",
     "mission profile a field schedule is certified against"},
    {"certify", "--certify", Bool, member<&Request::certify>(), "", "",
     "chip/profile inputs: also certify their schedule"},
    cli({"fix", "--fix", Bool, member<&Request::fix>(), "", "",
         "rewrite the input file with the mechanical fixes"}),
};

constexpr Field kCancel[] = {
    required({"target", "", Text, member<&Request::target>(), "",
              "<session id>", "id of the session to abort"}),
};

constexpr Field kList[] = {kJobs};
constexpr Field kAssemble[] = {
    kAlgorithm, kArch, kFlat,
    cli({"hex", "--hex", Bool, member<&Request::hex>(), "", "",
         "print the portable hex image"}),
};
constexpr Field kQualify[] = {kAlgorithm, kJobs};
constexpr Field kRun[] = {
    cli({"algorithm", "", Text, member<&Request::algorithm>(), "",
         "<algorithm|dsl>", "library name or DSL string"}),
    kArch, kGeometry[0], kGeometry[1], kGeometry[2],
    cli({"classes", "--fault", Classes, member<&Request::fault_classes>(), "",
         "CLASS", "inject one sampled fault of CLASS"}),
    kSeed,
    cli({"program", "--program", Text, member<&Request::program_file>(), "",
         "FILE", "run this hex microcode image instead"}),
    kFlat,
};
constexpr Field kExport[] = {kRun[0], kGeometry[0], kGeometry[1],
                             kGeometry[2]};
constexpr Field kServe[] = {
    cli({"port", "--port", Int, member<&Request::port>(), "", "N",
         "serve loopback TCP (0 = ephemeral); default pipe mode", 0, 65535}),
    cli({"sessions", "--sessions", Int, member<&Request::sessions>(), "2", "N",
         "concurrent session workers", 1, 1024}),
    cli({"cache_mb", "--cache-mb", Int, member<&Request::cache_mb>(), "64", "N",
         "op-stream cache budget in MiB", 0, 1 << 20}),
    cli({"payload_dir", "--payload-dir", Text, member<&Request::payload_dir>(),
         "", "DIR", "pipe mode: mirror result payloads to DIR/<id>.out"}),
    cli({"certify", "--certify", Bool, member<&Request::certify>(), "", "",
         "certify every soc/field schedule; a violation fails the request"}),
};
constexpr Field kSubmit[] = {
    cli({"port", "--port", Int, member<&Request::port>(), "", "N",
         "the port `pmbist serve --port` printed (required)", 0, 65535}),
    cli({"kind", "--req", Kind, member<&Request::kind>(), "lint", "KIND",
         "campaign|soc|field|memtest|lint|cancel|stats"}),
    cli({"id", "--id", Text, member<&Request::id>(), "cli", "ID",
         "client-chosen request id"}),
};

constexpr Command kCommands[] = {
    {"list", {}, kList, "library algorithms, complexity, qualification"},
    {"assemble", {}, kAssemble, "compile an algorithm, print the listing"},
    {"qualify", {}, kQualify, "static detection guarantees per fault class"},
    {"run", {}, kRun, "cycle-accurate BIST run on one memory"},
    {"area", {}, kGeometry, "area report of all architectures"},
    {"coverage", RequestKind::Campaign, kCoverage,
     "fault-simulation campaign for one algorithm"},
    {"export", {}, kExport, "controller Verilog (no algorithm: ucode unit)"},
    {"export-decoder", {}, {}, "microcode decoder + pFSM lower controller"},
    {"soc", RequestKind::Soc, kSoc, "whole-chip scheduled BIST"},
    {"field", RequestKind::Field, kField,
     "in-field transparent BIST inside idle windows"},
    {"memtest", RequestKind::Memtest, kMemtest,
     "march-test a block of host RAM (docs/BACKEND.md)"},
    {"lint", RequestKind::Lint, kLint,
     "static verifier: march, images, chip, profile, schedules"},
    {"serve", {}, kServe, "resident BIST service (docs/SERVE.md)"},
    {"submit", {}, kSubmit, "send one request to `pmbist serve --port`"},
    {"", RequestKind::Cancel, kCancel, "abort a running session"},
    {"", RequestKind::Stats, {}, "cache and session counters"},
};

// ---------------------------------------------------------------------------
// Reading and writing one field.

template <class T>
T& slot(const Field& f, Request& r) {
  return std::get<Member<T>>(f.slot)(r);
}

/// How errors name a field: both spellings when both surfaces take it.
std::string label(const Field& f) {
  const std::string spelling{f.flag.empty() ? f.metavar : f.flag};
  if (f.surface == Cli) return spelling;
  const std::string wire = "field '" + std::string{f.json} + "'";
  return f.surface == Serve ? wire : wire + " (" + spelling + ")";
}

std::uint64_t in_range(const Field& f, std::uint64_t v) {
  if (v > f.max)
    fail(label(f) + " out of range (max " + std::to_string(f.max) + ")");
  if (v < f.min) fail(label(f) + " must be >= " + std::to_string(f.min));
  return v;
}

template <class T>
T text_number(const Field& f, const std::string& text, const char* what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || p != end)
    fail(label(f) + " must be " + what);
  return v;
}

std::uint64_t json_u64(const Field& f, const json::Value& v) {
  try {
    return v.as_u64();
  } catch (const json::JsonError&) {
    fail(label(f) + " must be a non-negative integer");
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const Command* find_command(std::string_view name) {
  for (const Command& c : kCommands)
    if (!c.name.empty() && c.name == name) return &c;
  return nullptr;
}

const Command* find_kind(std::string_view name) {
  for (const Command& c : kCommands)
    if (c.kind && to_string(*c.kind) == name) return &c;
  return nullptr;
}

/// Stores an integer the row's range has already bounded.
void store_number(const Field& f, std::uint64_t v, Request& r) {
  if (f.type == Int)
    slot<int>(f, r) = static_cast<int>(v);
  else
    slot<std::uint64_t>(f, r) = v;
}

/// Reads a value spelled as on the command line (also every fallback).
void read_text(const Field& f, const std::string& text, Request& r) {
  switch (f.type) {
    case Int:
    case U64: {
      const auto v =
          text_number<std::uint64_t>(f, text, "a non-negative integer");
      store_number(f, in_range(f, v), r);
      return;
    }
    case Double:
      slot<double>(f, r) = text_number<double>(f, text, "a number");
      return;
    case Bool: slot<bool>(f, r) = true; return;
    case Text: slot<std::string>(f, r) = text; return;
    case File: {
      auto body = read_file(text);
      if (!body) fail("cannot open " + text);
      slot<std::string>(f, r) = std::move(*body);
      return;
    }
    case TextOrFile:
    case Input: {
      const auto body = read_file(text);
      slot<std::string>(f, r) = body.value_or(text);
      if (body && f.type == Input) r.unit = text;
      return;
    }
    case Kernel: {
      const auto kernel = march::parse_kernel(text);
      if (!kernel)
        fail(label(f) + " must be auto, scalar or packed, not '" + text + "'");
      slot<march::CampaignKernel>(f, r) = *kernel;
      return;
    }
    case Backend: {
      const auto backend = backend::parse_backend(text);
      if (!backend)
        fail(label(f) + " must be sim or hostram, not '" + text + "'");
      slot<backend::BackendKind>(f, r) = *backend;
      return;
    }
    case Kind: {
      const Command* c = find_kind(text);
      if (c == nullptr)
        fail(label(f) + " must be campaign, soc, field, memtest, lint, " +
             "cancel or stats, not '" + text + "'");
      slot<RequestKind>(f, r) = *c->kind;
      return;
    }
    case Classes:
      slot<std::vector<std::string>>(f, r).push_back(text);
      return;
    case Size: {
      const auto bytes = backend::parse_size_bytes(text);
      if (!bytes)
        fail(label(f) + " expects BYTES with an optional K/M/G suffix, not " +
             text);
      store_number(f, in_range(f, *bytes), r);
      return;
    }
  }
}

/// Reads a request member; payloads stay inline (no file is opened).
void read_json(const Field& f, const json::Value& v, Request& r) {
  switch (f.type) {
    case Int:
    case U64:
      store_number(f, in_range(f, json_u64(f, v)), r);
      return;
    case Size: {
      const std::uint64_t mib = json_u64(f, v);
      store_number(f, in_range(f, std::min(mib, kMaxU64 >> 20) << 20), r);
      return;
    }
    case Double:
      try {
        slot<double>(f, r) = v.as_double();
      } catch (const json::JsonError&) {
        fail(label(f) + " must be a number");
      }
      return;
    case Bool:
      if (!v.is_bool()) fail(label(f) + " must be a bool");
      slot<bool>(f, r) = v.as_bool();
      return;
    case Classes: {
      if (!v.is_array()) fail(label(f) + " must be an array");
      auto& out = slot<std::vector<std::string>>(f, r);
      out.clear();
      for (const auto& item : v.items()) {
        if (!item.is_string()) fail(label(f) + " must hold strings");
        out.push_back(item.as_string());
      }
      return;
    }
    default:
      break;
  }
  if (!v.is_string()) fail(label(f) + " must be a string");
  switch (f.type) {
    case Text:
    case File:
    case TextOrFile:
    case Input:
      slot<std::string>(f, r) = v.as_string();
      return;
    default:  // names
      read_text(f, v.as_string(), r);
  }
}

json::Value write_json(const Field& f, Request& r) {
  switch (f.type) {
    case Int:
      return json::Value::number(static_cast<std::int64_t>(slot<int>(f, r)));
    case U64:
      return json::Value::number(slot<std::uint64_t>(f, r));
    case Size:
      return json::Value::number(
          std::max<std::uint64_t>(1, slot<std::uint64_t>(f, r) >> 20));
    case Double: return json::Value::number(slot<double>(f, r));
    case Bool: return json::Value::boolean(slot<bool>(f, r));
    case Text:
    case File:
    case TextOrFile:
    case Input:
      return json::Value::string(slot<std::string>(f, r));
    case Kernel:
      return json::Value::string(
          std::string{march::kernel_name(slot<march::CampaignKernel>(f, r))});
    case Backend:
      return json::Value::string(
          std::string{backend::to_string(slot<backend::BackendKind>(f, r))});
    case Kind:
      return json::Value::string(
          std::string{to_string(slot<RequestKind>(f, r))});
    case Classes: {
      json::Value out = json::Value::array();
      for (const auto& name : slot<std::vector<std::string>>(f, r))
        out.push(json::Value::string(name));
      return out;
    }
  }
  return {};
}

void apply_fallback(const Field& f, Request& r) {
  if (!f.fallback.empty()) read_text(f, std::string{f.fallback}, r);
}

void check_required(const Field& f, Request& r) {
  if (f.required && slot<std::string>(f, r).empty())
    fail(label(f) + " is required");
}

std::string require_string(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_string() || v->as_string().empty())
    fail("field '" + std::string(key) + "' (non-empty string) is required");
  return v->as_string();
}

json::Value event_base(std::string_view event, const std::string& id) {
  json::Value obj = json::Value::object();
  obj.set("event", json::Value::string(std::string(event)));
  obj.set("id", json::Value::string(id));
  return obj;
}

}  // namespace

std::string_view to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::Campaign: return "campaign";
    case RequestKind::Soc: return "soc";
    case RequestKind::Field: return "field";
    case RequestKind::Memtest: return "memtest";
    case RequestKind::Lint: return "lint";
    case RequestKind::Cancel: return "cancel";
    case RequestKind::Stats: return "stats";
  }
  return "?";
}

std::span<const Command> commands() { return kCommands; }

Request parse_request(const std::string& line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const json::JsonError& e) {
    fail(std::string("bad json: ") + e.what());
  }
  if (!doc.is_object()) fail("request must be a json object");

  Request req;
  req.id = require_string(doc, "id");
  const std::string kind = require_string(doc, "kind");
  const Command* cmd = find_kind(kind);
  if (cmd == nullptr) fail("unknown kind '" + kind + "'");
  req.command = cmd->name;
  req.kind = *cmd->kind;

  // Unknown fields are hard errors, so a typo ("algorithim") cannot
  // silently select a default.
  auto served = [&](std::string_view key) -> const Field* {
    for (const Field& f : cmd->fields)
      if (f.json == key && f.surface != Cli) return &f;
    return nullptr;
  };
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key != "id" && key != "kind" && served(key) == nullptr)
      fail("unknown field '" + key + "'");
  }
  for (const Field& f : cmd->fields) apply_fallback(f, req);
  for (const Field& f : cmd->fields)
    if (f.surface != Cli)
      if (const json::Value* v = doc.find(f.json)) read_json(f, *v, req);
  for (const Field& f : cmd->fields) check_required(f, req);
  return req;
}

Request parse_args(const std::vector<std::string>& args) {
  if (args.empty()) fail("missing command");
  const Command* cmd = find_command(args[0]);
  if (cmd == nullptr) fail("unknown command " + args[0]);

  Request req;
  req.command = cmd->name;
  if (cmd->kind) req.kind = *cmd->kind;
  std::vector<const Field*> rows;  // the ones this command line may set
  auto take = [&](const Command& c, Surface skip) {
    for (const Field& f : c.fields) {
      apply_fallback(f, req);
      if (f.surface != skip && f.surface != Serve) rows.push_back(&f);
    }
  };
  take(*cmd, Serve);
  if (cmd->name == "submit") {
    // The --req kind's rows both surfaces take ride along: they build the
    // request line.
    const Field& kind_row = cmd->fields[1];
    for (std::size_t i = 1; i + 1 < args.size(); ++i)
      if (args[i] == kind_row.flag) read_text(kind_row, args[i + 1], req);
    take(*find_kind(to_string(req.kind)), Cli);
  }

  std::size_t i = 1;
  if (i < args.size() && !args[i].starts_with('-')) {
    const auto positional =
        std::find_if(rows.begin(), rows.end(),
                     [](const Field* f) { return f->flag.empty(); });
    if (positional == rows.end())
      fail(args[0] + " takes no argument '" + args[i] + "'");
    read_text(**positional, args[i++], req);
  }
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto row =
        std::find_if(rows.begin(), rows.end(),
                     [&](const Field* f) { return f->flag == arg; });
    if (row == rows.end()) fail("unknown option " + arg + " for " + args[0]);
    if ((*row)->type == Bool) {
      slot<bool>(**row, req) = true;
      continue;
    }
    if (i + 1 >= args.size()) fail("missing value for " + arg);
    read_text(**row, args[++i], req);
  }
  // A missing chip or profile file stands for the built-in demo, which the
  // CLI fills in; a submitted request leaves the check to the server.
  for (const Field* f : rows)
    if (f->type != File) check_required(*f, req);
  return req;
}

std::string to_json(const Request& request) {
  // The slots hand out mutable references; nothing below writes through
  // them.
  Request& r = const_cast<Request&>(request);
  json::Value obj = json::Value::object();
  obj.set("id", json::Value::string(r.id));
  obj.set("kind", json::Value::string(std::string{to_string(r.kind)}));
  for (const Field& f : find_kind(to_string(r.kind))->fields)
    if (f.surface != Cli) obj.set(std::string{f.json}, write_json(f, r));
  return obj.dump();
}

std::string event_accepted(const std::string& id) {
  return event_base("accepted", id).dump();
}

std::string event_progress(const std::string& id, int done, int total) {
  json::Value obj = event_base("progress", id);
  obj.set("done", json::Value::number(static_cast<std::int64_t>(done)));
  obj.set("total", json::Value::number(static_cast<std::int64_t>(total)));
  return obj.dump();
}

std::string event_result(const std::string& id, int exit_code,
                         const std::string& payload) {
  json::Value obj = event_base("result", id);
  obj.set("exit", json::Value::number(static_cast<std::int64_t>(exit_code)));
  obj.set("payload", json::Value::string(payload));
  return obj.dump();
}

std::string event_error(const std::string& id, const std::string& message) {
  json::Value obj = event_base("error", id);
  obj.set("message", json::Value::string(message));
  return obj.dump();
}

std::string event_cancelled(const std::string& id) {
  return event_base("cancelled", id).dump();
}

}  // namespace pmbist::serve
