// pmbist — command-line front end to the programmable-MBIST library.
//
// `pmbist --help` lists the commands and their options.  Each command's
// options are rows of one field table (src/serve/protocol.cpp), the same
// rows `pmbist serve` reads its requests through: coverage, soc, field,
// memtest and lint parse into a serve::Request and run serve::execute, so
// their stdout is byte-identical to the serve payloads by construction.
// Host-dependent lines (wall time, memtest throughput), certificate
// reports and notices go to stderr.
//
// Exit codes are uniform across subcommands: 0 = success, 1 = the checked
// artifact failed (BIST mismatch, unhealthy chip, lint errors), 2 = usage
// or input errors.  `pmbist --help` (or `<command> --help`) prints the
// usage text on stdout and exits 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bist/session.h"
#include "common/json.h"
#include "field/profile.h"
#include "lint/diagnostics.h"
#include "lint/fix.h"
#include "march/analysis.h"
#include "march/coverage.h"
#include "march/library.h"
#include "mbist_hardwired/area.h"
#include "mbist_hardwired/controller.h"
#include "mbist_hardwired/generator.h"
#include "mbist_pfsm/area.h"
#include "mbist_pfsm/compiler.h"
#include "mbist_pfsm/controller.h"
#include "mbist_ucode/area.h"
#include "mbist_ucode/assembler.h"
#include "mbist_ucode/controller.h"
#include "mbist_ucode/rtl.h"
#include "netlist/verilog.h"
#include "serve/execute.h"
#include "serve/server.h"
#include "soc/chip.h"

namespace {

using namespace pmbist;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: pmbist <command> [<argument>] [options]\n\ncommands:\n");
  for (const serve::Command& c : serve::commands())
    if (!c.name.empty())
      std::fprintf(out, "  %-15s %s\n", std::string{c.name}.c_str(),
                   std::string{c.summary}.c_str());
  std::fprintf(out, "\noptions by command:\n");
  for (const serve::Command& c : serve::commands()) {
    if (c.name.empty() || c.fields.empty()) continue;
    std::fprintf(out, "  %s", std::string{c.name}.c_str());
    for (const serve::Field& f : c.fields)
      if (f.flag.empty() && f.surface != serve::Surface::Serve)
        std::fprintf(out, f.required ? " %s" : " [%s]",
                     std::string{f.metavar}.c_str());
    std::fprintf(out, "\n");
    for (const serve::Field& f : c.fields) {
      if (f.flag.empty() || f.surface == serve::Surface::Serve) continue;
      std::string spelling{f.flag};
      if (f.type != serve::FieldType::Bool)
        spelling.append(" ").append(f.metavar);
      std::string help{f.help};
      if (!f.fallback.empty())
        help.append(" (default ").append(f.fallback).append(")");
      std::fprintf(out, "    %-28s %s\n", spelling.c_str(), help.c_str());
    }
  }
  std::fprintf(
      out,
      "\n`submit` also takes the options of the --req kind's command that\n"
      "serve accepts; its exit code is the result event's exit field, 2 on\n"
      "error events, 1 on cancelled.\n"
      "\n"
      "exit codes: 0 success, 1 check failed, 2 usage/input error\n"
      "`pmbist --help` or `pmbist <command> --help` prints this text.\n");
}

[[noreturn]] void usage(const char* why = nullptr) {
  if (why) std::fprintf(stderr, "error: %s\n\n", why);
  print_usage(stderr);
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream is{path};
  if (!is) usage(("cannot open " + path).c_str());
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

int cmd_list(const serve::Request& opt) {
  const auto algorithms = march::all_algorithms();
  std::printf("%-16s %5s %8s %8s\n", "algorithm", "ops/n", "ucode", "pFSM");
  for (const auto& alg : algorithms) {
    const auto ucode = mbist_ucode::assemble(alg);
    std::string why;
    const bool pfsm_ok = mbist_pfsm::is_mappable(alg, &why);
    std::printf("%-16s %5d %7d%c %8s\n", alg.name().c_str(),
                alg.ops_per_cell(), ucode.program.size(),
                ucode.used_repeat ? '*' : ' ', pfsm_ok ? "yes" : "no");
  }
  std::printf("\n(* = Repeat-folded symmetric encoding)\n\n");
  std::printf("static qualification (G guaranteed / p partial / - none):\n");
  const auto& classes = memsim::all_fault_classes();
  std::printf("%s",
              march::format_analysis_table(algorithms, classes, opt.jobs)
                  .c_str());
  return 0;
}

int cmd_assemble(const serve::Request& opt) {
  const auto alg = march::resolve_algorithm(opt.algorithm);
  if (opt.arch == "pfsm") {
    const auto r = mbist_pfsm::compile(alg);
    std::printf("%s", opt.hex ? r.program.to_hex_text().c_str()
                              : r.program.listing().c_str());
    return 0;
  }
  const auto r = mbist_ucode::assemble(
      alg, {.symmetric_encoding = !opt.flat});
  std::printf("%s", opt.hex ? r.program.to_hex_text().c_str()
                            : r.program.listing().c_str());
  return 0;
}

int cmd_qualify(const serve::Request& opt) {
  const auto alg = march::resolve_algorithm(opt.algorithm);
  std::printf("%s = %s\n\n", alg.name().c_str(), alg.to_string().c_str());
  const auto verdicts = march::analyze_all(alg, opt.jobs);
  for (auto cls : memsim::all_fault_classes()) {
    std::printf("  %-5s %s\n",
                std::string(memsim::fault_class_name(cls)).c_str(),
                std::string(march::to_string(verdicts.at(cls))).c_str());
  }
  return 0;
}

int cmd_run(const serve::Request& opt) {
  const bool from_image = !opt.program_file.empty();
  if (!from_image && opt.algorithm.empty())
    usage("run needs an algorithm name or DSL string, or --program FILE");
  const auto alg = from_image ? march::march_c()  // placeholder, unused
                              : march::resolve_algorithm(opt.algorithm);
  const auto geometry = opt.geometry;

  std::unique_ptr<bist::Controller> controller;
  if (from_image) {
    auto c = std::make_unique<mbist_ucode::MicrocodeController>(
        mbist_ucode::ControllerConfig{.geometry = geometry,
                                      .storage_depth = 64});
    c->load(mbist_ucode::MicrocodeProgram::from_hex_text(
        read_file(opt.program_file)));
    std::printf("loaded image '%s' (%d instructions)\n",
                c->program().name().c_str(), c->program().size());
    controller = std::move(c);
  } else if (opt.arch == "ucode") {
    auto c = std::make_unique<mbist_ucode::MicrocodeController>(
        mbist_ucode::ControllerConfig{.geometry = geometry,
                                      .storage_depth = 64});
    c->load_algorithm(alg, {.symmetric_encoding = !opt.flat});
    controller = std::move(c);
  } else if (opt.arch == "pfsm") {
    auto c = std::make_unique<mbist_pfsm::PfsmController>(
        mbist_pfsm::PfsmConfig{.geometry = geometry, .buffer_depth = 32});
    c->load_algorithm(alg);
    controller = std::move(c);
  } else if (opt.arch == "hardwired") {
    controller = std::make_unique<mbist_hardwired::HardwiredController>(
        alg, mbist_hardwired::HardwiredConfig{.geometry = geometry});
  } else {
    usage("unknown --arch");
  }

  memsim::FaultyMemory memory{geometry, opt.seed};
  if (opt.fault_classes.size() > 1) usage("run injects one fault: one --fault");
  if (!opt.fault_classes.empty()) {
    const auto cls = memsim::parse_fault_class(opt.fault_classes[0]);
    if (!cls) usage(("unknown fault class " + opt.fault_classes[0]).c_str());
    const auto universe =
        march::make_fault_universe(*cls, geometry, opt.seed, 64);
    const auto& fault = universe[opt.seed % universe.size()];
    memory.add_fault(fault);
    std::printf("injected: %s\n", memsim::describe(fault).c_str());
  }

  const auto result = bist::run_session(*controller, memory);
  const std::string label =
      from_image ? "hex image " + opt.program_file : alg.name();
  std::printf("%s on %s: %s\n", controller->name().c_str(), label.c_str(),
              result.passed() ? "PASS" : "FAIL");
  std::printf("  cycles=%llu reads=%llu writes=%llu pauses=%llu\n",
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.reads),
              static_cast<unsigned long long>(result.writes),
              static_cast<unsigned long long>(result.pauses));
  for (std::size_t i = 0; i < result.failures.size() && i < 8; ++i) {
    const auto& f = result.failures[i];
    std::printf("  fail[%zu]: addr=0x%X expected=0x%llX actual=0x%llX\n", i,
                f.op.addr, static_cast<unsigned long long>(f.op.data),
                static_cast<unsigned long long>(f.actual));
  }
  return result.passed() ? 0 : 1;
}

int cmd_area(const serve::Request& opt) {
  const auto geometry = opt.geometry;
  const auto lib = netlist::TechLibrary::cmos5s();

  mbist_ucode::AreaConfig uc{.geometry = geometry};
  std::printf("%s\n", mbist_ucode::microcode_area(uc).to_string(lib).c_str());
  uc.storage_cell = netlist::StorageCellClass::ScanOnly;
  std::printf("adjusted (scan-only storage): %.1f GE\n\n",
              mbist_ucode::microcode_area(uc).total_ge(lib));
  std::printf(
      "%s\n",
      mbist_pfsm::pfsm_area({.geometry = geometry}).to_string(lib).c_str());
  for (const auto& alg : march::paper_table_algorithms()) {
    const auto r = mbist_hardwired::hardwired_area(alg, {.geometry = geometry});
    std::printf("hardwired %-12s: %8.1f GE  %10.0f um^2\n",
                alg.name().c_str(), r.total_ge(lib), r.total_area_um2(lib));
  }
  return 0;
}

int cmd_export_decoder() {
  std::vector<netlist::SopOutput> outputs;
  for (const auto& d : mbist_ucode::decoder_covers())
    outputs.push_back({d.name, d.cover});
  std::printf("%s\n",
              netlist::emit_sop_module("ucode_decoder",
                                       mbist_ucode::decoder_input_names(),
                                       outputs)
                  .c_str());
  std::printf("%s",
              netlist::emit_fsm_module(mbist_pfsm::lower_controller_fsm(),
                                       "pfsm_lower_ctrl")
                  .c_str());
  return 0;
}

int cmd_export(const serve::Request& opt) {
  if (opt.algorithm.empty()) {
    // No algorithm: emit the full programmable unit (storage, decoder,
    // datapath) — it runs any algorithm, so none is needed.
    std::printf("%s",
                mbist_ucode::emit_controller_rtl(
                    {.geometry = opt.geometry, .storage_depth = 32})
                    .c_str());
    return 0;
  }
  const auto alg = march::resolve_algorithm(opt.algorithm);
  const auto fsm = mbist_hardwired::generate_fsm(
      alg, mbist_hardwired::HardwiredFeatures::for_geometry(opt.geometry));
  std::printf("%s", netlist::emit_fsm_module(
                        fsm, "bist_" + netlist::verilog_identifier(
                                           alg.name()) + "_ctrl")
                        .c_str());
  return 0;
}

int cmd_serve(const serve::Request& opt) {
  serve::ServerOptions sopts;
  sopts.sessions = opt.sessions;
  sopts.stream_cache_bytes = static_cast<std::size_t>(opt.cache_mb) << 20;
  sopts.certify = opt.certify;
  serve::Server server{sopts};

  if (opt.port >= 0) {
    std::string error;
    const int rc = server.serve_tcp(
        opt.port,
        [](int bound) {
          std::fprintf(stderr, "serving on 127.0.0.1:%d\n", bound);
        },
        &error);
    if (rc != 0) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    return 0;
  }
  server.run_pipe(std::cin, std::cout, opt.payload_dir);
  return 0;
}

int cmd_submit(const serve::Request& opt) {
  if (opt.port < 0)
    usage("submit needs --port N (the port a `pmbist serve --port` printed)");
  const std::string line = serve::to_json(opt) + "\n";

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 2;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d: %s\n",
                 opt.port, std::strerror(errno));
    ::close(fd);
    return 2;
  }
  for (std::size_t off = 0; off < line.size();) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      std::fprintf(stderr, "error: send: %s\n", std::strerror(errno));
      ::close(fd);
      return 2;
    }
    off += static_cast<std::size_t>(n);
  }
  // Half-close: the server drains this connection's sessions before closing
  // its end, so reading to EOF is guaranteed to see every terminal event.
  ::shutdown(fd, SHUT_WR);

  int exit_code = 2;
  bool terminal = false;
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string event = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      std::fputs(event.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);  // events stream live, not at exit
      try {
        const auto v = common::json::Value::parse(event);
        const auto* name = v.find("event");
        const std::string kind =
            name != nullptr && name->is_string() ? name->as_string() : "";
        const auto* exit_field = v.find("exit");
        if (kind == "result")
          exit_code = exit_field != nullptr && exit_field->is_number()
                          ? static_cast<int>(exit_field->as_i64())
                          : 0;
        else if (kind == "error" || kind == "cancelled")
          exit_code = kind == "error" ? 2 : 1;
        terminal = terminal || kind == "result" || kind == "error" ||
                   kind == "cancelled";
      } catch (const common::json::JsonError&) {
        // A non-JSON line is the server's bug, not ours: pass it through
        // verbatim and keep the connection-level exit semantics.
      }
    }
  }
  ::close(fd);
  if (!terminal)
    std::fprintf(stderr,
                 "error: connection closed before a terminal event\n");
  return exit_code;
}

/// Writes `text` to `path` (for --emit-schedule and --fix); exits 2 when
/// the file cannot be created.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) usage(("cannot write " + path).c_str());
  out << text;
}

/// coverage, soc, field, memtest and lint: serve's executor, its payload
/// on stdout.
int cmd_served(serve::Request req) {
  if (req.kind == serve::RequestKind::Soc ||
      req.kind == serve::RequestKind::Field) {
    if (req.chip.empty()) {
      req.chip = soc::to_chip_text(soc::demo_soc(), soc::demo_plan());
      std::fprintf(stderr, "no --chip given: running the built-in demo chip\n");
    }
    if (req.kind == serve::RequestKind::Field && req.profile.empty()) {
      req.profile = field::to_profile_text(field::demo_profile());
      std::fprintf(stderr,
                   "no --profile given: using the built-in demo profile\n");
    }
  }
  if (req.fix) {
    if (req.unit == "input")
      usage("--fix rewrites the input in place and needs a file argument");
    const lint::FixResult fixed = lint::fix_text(req.input, req.unit);
    std::printf("%s: %s\n", req.unit.c_str(), fixed.summary.c_str());
    if (fixed.changed) {
      write_file(req.unit, fixed.text);
      req.input = fixed.text;
    }
  }

  const serve::ExecResult result =
      serve::execute(req, {.certify = req.certify});
  std::fputs(result.payload.c_str(), stdout);
  std::fputs(result.notes.c_str(), stderr);
  if (!req.emit_schedule.empty())
    write_file(req.emit_schedule, result.schedule);
  if (req.certify && req.kind != serve::RequestKind::Lint) {
    const std::string what{serve::to_string(req.kind)};
    if (result.certificate.empty()) {
      std::fprintf(stderr, "certificate: %s schedule OK\n", what.c_str());
    } else {
      std::fputs(lint::format_text(result.certificate).c_str(), stderr);
      if (result.certificate.has_errors()) return 1;
    }
  }
  return result.exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // `--help` anywhere (and the bare `help` command) wins over everything
  // else: print the usage text on stdout and exit 0, uniformly across
  // subcommands.
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--help") == 0 || std::strcmp(argv[a], "-h") == 0) {
      print_usage(stdout);
      return 0;
    }
  }
  if (argc < 2) usage();
  if (std::strcmp(argv[1], "help") == 0) {
    print_usage(stdout);
    return 0;
  }
  try {
    serve::Request req;
    try {
      req = serve::parse_args({argv + 1, argv + argc});
    } catch (const serve::ProtocolError& e) {
      usage(e.what());
    }
    const std::string& command = req.command;
    if (command == "list") return cmd_list(req);
    if (command == "assemble") return cmd_assemble(req);
    if (command == "qualify") return cmd_qualify(req);
    if (command == "run") return cmd_run(req);
    if (command == "area") return cmd_area(req);
    if (command == "export") return cmd_export(req);
    if (command == "export-decoder") return cmd_export_decoder();
    if (command == "serve") return cmd_serve(req);
    if (command == "submit") return cmd_submit(req);
    return cmd_served(std::move(req));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
