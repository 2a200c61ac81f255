#pragma once
// The request model of `pmbist`: one field table per command, read from
// argv by the CLI and from NDJSON by `pmbist serve` (docs/SERVE.md).
//
// Each command's fields are rows of one table (protocol.cpp): wire name,
// CLI spelling, type, range, default and help line.  parse_request and
// parse_args read the same rows, so both surfaces share defaults, ranges
// and error texts; to_json writes a request back through them (`pmbist
// submit`).  Every request names a client-chosen `id` and a `kind`; the
// five work kinds mirror CLI commands with all file payloads inlined
// (campaign ~ `pmbist coverage`, soc, field, memtest, lint), `cancel`
// aborts a running session and `stats` reports the server's counters.
//
// Responses stream back as JSON events, one per line:
//
//   {"event":"accepted","id":...}             request parsed, session queued
//   {"event":"progress","id":...,"done":D,"total":T}
//   {"event":"result","id":...,"exit":E,"payload":"..."}
//   {"event":"error","id":...,"message":"..."}
//   {"event":"cancelled","id":...}
//
// `payload` is byte-identical to the stdout of the equivalent one-shot CLI
// invocation (same jobs/kernel) — both run serve::execute — and `exit` is
// the CLI's unified exit code (0 ok, 1 check failed).  Progress events
// carry counts only (never memory or class names), so an event stream from
// a single-session server is byte-stable for any jobs value.
//
// parse_request is the hardened edge: malformed or truncated JSON, wrong
// types, unknown fields and unknown kinds all throw ProtocolError (callers
// turn it into an `error` event); it never crashes on hostile input
// (fuzzed by tests/test_serve.cpp).

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "backend/backend.h"
#include "march/kernel.h"
#include "memsim/memory.h"

namespace pmbist::serve {

/// Raised for every malformed request line or command line.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RequestKind : std::uint8_t {
  Campaign,  ///< fault-simulation coverage matrix for one algorithm
  Soc,       ///< whole-chip scheduled BIST from an inline chip payload
  Field,     ///< in-field windowed BIST from inline chip + profile payloads
  Memtest,   ///< host-RAM march sweep (~ pmbist memtest)
  Lint,      ///< static verification of an inline input
  Cancel,    ///< abort a running session by id
  Stats,     ///< cache hit/miss/eviction counters
};

[[nodiscard]] std::string_view to_string(RequestKind kind);

/// One parsed request or command line.  Every field a command takes has a
/// row in its table, which holds the default; the initializers below are
/// the values of fields a command does not take.
struct Request {
  std::string command;  ///< CLI command ("coverage"; "" for cancel/stats)
  /// The serve kind `command` mirrors; for a CLI-only command (`run`,
  /// `serve`, ...) it stays Stats and means nothing.  `submit` sets it
  /// from --req.
  RequestKind kind = RequestKind::Stats;
  std::string id = "cli";  ///< client-chosen; `pmbist submit --id`

  int jobs = 0;  ///< 0 = hardware concurrency

  // campaign (~ pmbist coverage); run, area and export take the geometry,
  // run also the fault class and seed.
  std::string algorithm;  ///< library name or DSL text
  memsim::MemoryGeometry geometry;
  int samples = 0;
  std::uint64_t seed = 0;
  march::CampaignKernel kernel = march::CampaignKernel::Auto;
  std::vector<std::string> fault_classes;  ///< empty = all classes

  // soc / field (~ pmbist soc / pmbist field); `chip` and `profile` are
  // inline payloads (chip accepts the text format or the JSON mirror).
  std::string chip;
  std::string profile;
  double power_budget = -1.0;  ///< < 0 = keep the chip payload's budget
  std::size_t max_failures = 0;
  backend::BackendKind backend = backend::BackendKind::Sim;
  bool certify = false;        ///< lint: certify the schedule; soc/field:
                               ///< the CLI's --certify; serve: --certify
  std::string emit_schedule;   ///< soc/field CLI: write the schedule here

  // memtest (~ pmbist memtest); reuses `algorithm`, `jobs`, `backend` and
  // `max_failures`.
  std::uint64_t size_bytes = 0;  ///< CLI --size, wire size_mb
  int passes = 0;
  int backgrounds = 0;  ///< 0 = all standard backgrounds
  bool huge_pages = false;
  bool inject = false;  ///< flip one bit mid-run (self-test)

  // lint (~ pmbist lint); all payloads inline.  Reuses `chip` for the
  // profile-vs-chip cross-check and `profile` for field-schedule
  // certification.
  std::string input;
  std::string unit;  ///< the input's path on the CLI
  bool lint_json = false;
  int storage_depth = 0;
  int buffer_depth = 0;
  std::string against;
  bool fix = false;  ///< CLI: rewrite the input file with the fixes

  // cancel
  std::string target;  ///< id of the session to abort

  // CLI-only commands.
  std::string arch;          ///< assemble/run: ucode|pfsm|hardwired
  bool flat = false;         ///< assemble/run: no Repeat fold
  bool hex = false;          ///< assemble: print the hex image
  std::string program_file;  ///< run: hex microcode image to load
  int port = -1;             ///< serve/submit: TCP port (-1 = pipe mode)
  int sessions = 0;          ///< serve: concurrent session workers
  int cache_mb = 0;          ///< serve: stream-cache budget in MiB
  std::string payload_dir;   ///< serve pipe mode: mirror payloads here

  friend bool operator==(const Request&, const Request&) = default;
};

/// How a field is read on each surface.
enum class FieldType : std::uint8_t {
  Int,         ///< integer in [min, max]
  U64,         ///< unsigned 64-bit integer in [min, max]
  Double,      ///< any number
  Bool,        ///< JSON bool; a bare CLI flag
  Text,        ///< string
  File,        ///< string; the CLI reads the named file
  TextOrFile,  ///< string; the CLI reads a path that opens, else the text
  Input,       ///< TextOrFile that also sets `unit` to the path (lint)
  Kernel,      ///< march::parse_kernel name
  Backend,     ///< backend::parse_backend name
  Kind,        ///< serve kind name (`submit --req`)
  Classes,     ///< fault class names; each CLI --fault adds one
  Size,        ///< byte count: BYTES[K|M|G] on the CLI, whole MiB on the
               ///< wire; the range is in bytes
};

/// The surfaces a row is read from.
enum class Surface : std::uint8_t { Both, Cli, Serve };

/// The Request member a row fills.
template <class T>
using Member = T& (*)(Request&);
using Slot = std::variant<Member<int>, Member<std::uint64_t>, Member<double>,
                          Member<bool>, Member<std::string>,
                          Member<std::vector<std::string>>,
                          Member<march::CampaignKernel>,
                          Member<backend::BackendKind>, Member<RequestKind>>;

/// One row of a command's field table.
struct Field {
  std::string_view json{};  ///< wire name
  /// CLI spelling; "" = the positional argument (on a Serve row: none)
  std::string_view flag{};
  FieldType type{};
  Slot slot{};
  /// Value when absent, in CLI spelling; "" = the Request initializer.
  std::string_view fallback{};
  std::string_view metavar{};  ///< value placeholder in the usage text
  std::string_view help{};
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  Surface surface = Surface::Both;
  bool required = false;  ///< a non-empty string must be given
};

/// One CLI command or serve kind with its field table.
struct Command {
  std::string_view name{};            ///< CLI command; "" = serve-only kind
  std::optional<RequestKind> kind{};  ///< the serve kind; none = CLI only
  std::span<const Field> fields{};
  std::string_view summary{};  ///< usage-text line
};

/// Every command, in usage-text order, then the serve-only kinds.
[[nodiscard]] std::span<const Command> commands();

/// Parses one request line.  Throws ProtocolError on anything malformed;
/// never crashes on hostile input.
[[nodiscard]] Request parse_request(const std::string& line);

/// Parses a command line, args[0] being the command; file flags are read
/// into their inline fields.  Throws ProtocolError with the same texts
/// parse_request uses for the rows both surfaces take.  `submit` also
/// takes the flags of the rows of its --req kind that both surfaces take.
[[nodiscard]] Request parse_args(const std::vector<std::string>& args);

/// Serializes a request of a serve kind as one request line, through the
/// rows serve accepts.  parse_request(to_json(r)) == r for every request
/// parse_args returns with CLI-only rows at their defaults and --size a
/// whole number of MiB.
[[nodiscard]] std::string to_json(const Request& request);

/// Event constructors: one complete JSON line each (no trailing newline),
/// built through the deterministic JSON writer so escaping is correct and
/// member order is fixed.
[[nodiscard]] std::string event_accepted(const std::string& id);
[[nodiscard]] std::string event_progress(const std::string& id, int done,
                                         int total);
[[nodiscard]] std::string event_result(const std::string& id, int exit_code,
                                       const std::string& payload);
[[nodiscard]] std::string event_error(const std::string& id,
                                      const std::string& message);
[[nodiscard]] std::string event_cancelled(const std::string& id);

}  // namespace pmbist::serve
