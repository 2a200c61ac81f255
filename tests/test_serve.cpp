// The serve subsystem (src/serve): wire protocol hardening, the
// serve/CLI byte-equivalence contract, cross-request caching,
// cancellation, server isolation and the TCP transport.
//
// The equivalence tests recompute each result through the same shared
// formatter the CLI uses (march::format_coverage_table,
// soc::format_soc_report, field::format_field_report, lint::format_cli)
// and require the serve payload to match byte for byte — the contract
// docs/SERVE.md promises and tools/run_serve_equiv_test.cmake re-checks
// end-to-end through the built binary.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/memtest.h"
#include "common/json.h"
#include "field/manager.h"
#include "field/profile.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "march/coverage.h"
#include "march/library.h"
#include "memsim/fault_model.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "soc/chip.h"
#include "soc/schedule_io.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;
namespace json = common::json;

std::string read_file(const std::string& relative) {
  const std::string path = std::string(PMBIST_SOURCE_DIR) + "/" + relative;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Field accessor over an emitted event line; fails the test on
/// malformed events (the server must only ever emit valid JSON).
std::string event_field(const std::string& line, const std::string& key) {
  const json::Value doc = json::Value::parse(line);
  const json::Value* value = doc.find(key);
  if (value == nullptr) return {};
  if (value->is_string()) return value->as_string();
  return value->number_text();
}

/// A sink that collects events under a lock and can block until a
/// terminal event (result/error/cancelled) arrives for a given id.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> events;

  serve::Server::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard lock{mu};
      events.push_back(line);
      cv.notify_all();
    };
  }

  std::vector<std::string> snapshot() {
    std::lock_guard lock{mu};
    return events;
  }

  bool wait_for_terminal(const std::string& id, std::chrono::seconds budget) {
    auto terminal = [&] {
      for (const std::string& line : events) {
        const std::string event = event_field(line, "event");
        if (event_field(line, "id") != id) continue;
        if (event == "result" || event == "error" || event == "cancelled")
          return true;
      }
      return false;
    };
    std::unique_lock lock{mu};
    return cv.wait_for(lock, budget, terminal);
  }

  bool wait_for_event(const std::string& id, const std::string& kind,
                      std::chrono::seconds budget) {
    auto seen = [&] {
      for (const std::string& line : events)
        if (event_field(line, "id") == id && event_field(line, "event") == kind)
          return true;
      return false;
    };
    std::unique_lock lock{mu};
    return cv.wait_for(lock, budget, seen);
  }
};

// ---------------------------------------------------------------------------
// Protocol parsing: the hardened edge.

TEST(ServeProtocol, CampaignDefaultsMirrorTheCli) {
  const auto req = serve::parse_request(
      R"({"id":"c","kind":"campaign","algorithm":"MATS"})");
  EXPECT_EQ(req.id, "c");
  EXPECT_EQ(req.kind, serve::RequestKind::Campaign);
  EXPECT_EQ(req.algorithm, "MATS");
  EXPECT_EQ(req.geometry.address_bits, 8);
  EXPECT_EQ(req.geometry.word_bits, 1);
  EXPECT_EQ(req.geometry.num_ports, 1);
  EXPECT_EQ(req.samples, 64);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_EQ(req.kernel, march::CampaignKernel::Auto);
  EXPECT_EQ(req.jobs, 0);
  EXPECT_TRUE(req.fault_classes.empty());
}

TEST(ServeProtocol, LintDefaultsMirrorTheCli) {
  const auto req =
      serve::parse_request(R"({"id":"l","kind":"lint","input":"March C"})");
  EXPECT_EQ(req.kind, serve::RequestKind::Lint);
  EXPECT_EQ(req.unit, "input");
  EXPECT_FALSE(req.lint_json);
  EXPECT_EQ(req.storage_depth, 32);
  EXPECT_EQ(req.buffer_depth, 16);
}

TEST(ServeProtocol, MemtestDefaultsMirrorTheCli) {
  const auto req =
      serve::parse_request(R"({"id":"m","kind":"memtest"})");
  EXPECT_EQ(req.kind, serve::RequestKind::Memtest);
  EXPECT_EQ(req.algorithm, "March C");
  EXPECT_EQ(req.size_bytes, 256ull << 20);
  EXPECT_EQ(req.passes, 1);
  EXPECT_EQ(req.backgrounds, 0);
  EXPECT_EQ(req.backend, backend::BackendKind::HostRam);
  EXPECT_EQ(req.jobs, 0);

  const auto full = serve::parse_request(
      R"({"id":"m","kind":"memtest","algorithm":"MATS+","size_mb":64,)"
      R"("passes":2,"backgrounds":3,"jobs":4,"backend":"sim",)"
      R"("max_failures":8})");
  EXPECT_EQ(full.algorithm, "MATS+");
  EXPECT_EQ(full.size_bytes, 64ull << 20);
  EXPECT_EQ(full.passes, 2);
  EXPECT_EQ(full.backgrounds, 3);
  EXPECT_EQ(full.jobs, 4);
  EXPECT_EQ(full.backend, backend::BackendKind::Sim);
  EXPECT_EQ(full.max_failures, 8u);
  EXPECT_EQ(serve::to_string(full.kind), std::string{"memtest"});
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const char* bad[] = {
      "",                                             // empty
      "not json",                                     // not JSON at all
      "[1,2,3]",                                      // not an object
      R"({"kind":"stats"})",                          // missing id
      R"({"id":"x"})",                                // missing kind
      R"({"id":"x","kind":"frobnicate"})",            // unknown kind
      R"({"id":"x","kind":"stats","extra":1})",       // unknown field
      R"({"id":"x","kind":"campaign"})",              // missing algorithm
      R"({"id":"x","kind":"campaign","algorithm":5})",       // wrong type
      R"({"id":"x","kind":"campaign","algorithm":"MATS","addr_bits":0})",
      R"({"id":"x","kind":"campaign","algorithm":"MATS","addr_bits":21})",
      R"({"id":"x","kind":"campaign","algorithm":"MATS","kernel":"warp"})",
      R"({"id":"x","kind":"campaign","algorithm":"MATS","classes":"SAF"})",
      R"({"id":"x","kind":"lint"})",                  // missing input
      R"({"id":"x","kind":"cancel"})",                // missing target
      R"({"id":"x","kind":"soc","chip":"a","bogus":true})",
      R"({"id":1,"kind":"stats"})",                   // id must be a string
      R"({"id":"x","kind":"memtest","sizemb":4})",    // unknown field
      R"({"id":"x","kind":"memtest","huge_pages":true})",  // CLI-only flag
      R"({"id":"x","kind":"memtest","size_mb":0})",   // empty buffer
      R"({"id":"x","kind":"memtest","size_mb":32768})",  // over the 16G cap
      R"({"id":"x","kind":"memtest","passes":0})",
      R"({"id":"x","kind":"memtest","backgrounds":8})",
      R"({"id":"x","kind":"memtest","backend":"dram"})",  // unknown backend
  };
  for (const char* line : bad)
    EXPECT_THROW((void)serve::parse_request(line), serve::ProtocolError)
        << "accepted: " << line;
}

// Hostile-input fuzz: every truncation of a valid request, plus byte
// mutations, must either parse or throw ProtocolError — never crash,
// and never leak any other exception type.
TEST(ServeProtocol, FuzzTruncationsAndMutationsNeverCrash) {
  const std::string seed =
      R"({"id":"c1","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":8,"seed":7,"kernel":"packed","classes":["SAF","TF"]})";
  std::vector<std::string> cases;
  for (std::size_t len = 0; len <= seed.size(); ++len)
    cases.push_back(seed.substr(0, len));
  // Deterministic single-byte mutations (no RNG: position-derived bytes).
  for (std::size_t pos = 0; pos < seed.size(); pos += 3) {
    std::string mutated = seed;
    mutated[pos] = static_cast<char>('!' + (pos * 31) % 90);
    cases.push_back(std::move(mutated));
  }
  cases.push_back(std::string(1 << 12, '['));   // deep nesting
  cases.push_back(std::string("\"") + std::string(64, '\\'));

  for (const std::string& line : cases) {
    try {
      (void)serve::parse_request(line);
    } catch (const serve::ProtocolError&) {
      // expected for the malformed majority
    }
  }
}

TEST(ServeProtocol, EventsEscapeHostilePayloads) {
  const std::string hostile = "quote\" backslash\\ newline\n tab\t";
  const std::string line = serve::event_result("id\"x", 1, hostile);
  const json::Value doc = json::Value::parse(line);  // must round-trip
  EXPECT_EQ(doc.find("payload")->as_string(), hostile);
  EXPECT_EQ(doc.find("id")->as_string(), "id\"x");
  EXPECT_EQ(doc.find("exit")->as_i64(), 1);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one event = one line
}

// Malformed lines through a live server become error events, never
// exceptions; the server keeps serving afterwards.
TEST(ServeProtocol, ServerTurnsMalformedLinesIntoErrorEvents) {
  serve::Server server{{.sessions = 1}};
  for (const char* line :
       {"not json", R"({"id":"x","kind":"frobnicate"})", "{", ""}) {
    const auto events = server.call(line);
    ASSERT_EQ(events.size(), 1u) << line;
    EXPECT_EQ(event_field(events[0], "event"), "error");
  }
  // Still healthy: a well-formed request completes normally.
  const auto ok = server.call(R"({"id":"s","kind":"stats"})");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(event_field(ok[0], "event"), "result");
}

// ---------------------------------------------------------------------------
// Serve/CLI equivalence: payloads are byte-identical to the shared
// formatters the CLI prints.

TEST(ServeEquivalence, CampaignPayloadMatchesEngineOutput) {
  serve::Server server{{.sessions = 1}};
  const auto events = server.call(
      R"({"id":"c1","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})");

  const auto& classes = memsim::all_fault_classes();
  ASSERT_EQ(events.size(), classes.size() + 2);  // accepted + progress + result
  EXPECT_EQ(event_field(events.front(), "event"), "accepted");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    EXPECT_EQ(event_field(events[i + 1], "event"), "progress");
    EXPECT_EQ(event_field(events[i + 1], "done"), std::to_string(i + 1));
    EXPECT_EQ(event_field(events[i + 1], "total"),
              std::to_string(classes.size()));
  }
  EXPECT_EQ(event_field(events.back(), "event"), "result");
  EXPECT_EQ(event_field(events.back(), "exit"), "0");

  // Recompute through the same engine + formatter the CLI uses.
  march::StreamCache cache;
  const memsim::MemoryGeometry geom{.address_bits = 4, .word_bits = 1,
                                    .num_ports = 1};
  march::CoverageRow row;
  row.algorithm = "MATS";
  const march::CoverageOptions opts{.seed = 1, .max_instances_per_class = 4,
                                    .jobs = 1, .cache = &cache};
  const auto alg = march::by_name("MATS");
  std::vector<memsim::FaultClass> all{classes.begin(), classes.end()};
  for (auto cls : all)
    row.cells[cls] = march::evaluate_coverage(alg, cls, geom, opts);
  const std::vector<march::CoverageRow> rows{row};
  EXPECT_EQ(event_field(events.back(), "payload"),
            march::format_coverage_table(rows, all));
}

TEST(ServeEquivalence, RaggedParallelCampaignKeepsProgressInClassOrder) {
  // 130 samples make two full lane-packs and a ragged one for the sampled
  // classes (128 enumerated faults for the one-variant cell classes), and
  // jobs 4 finishes them out of order on campaign workers; the progress
  // events still count classes 1..T in order, one each, before the result.
  serve::Server server{{.sessions = 1}};
  const auto events = server.call(
      R"({"id":"c1","kind":"campaign","algorithm":"March C+","addr_bits":7,)"
      R"("samples":130,"seed":3,"jobs":4})");

  const auto& classes = memsim::all_fault_classes();
  ASSERT_EQ(events.size(), classes.size() + 2);
  EXPECT_EQ(event_field(events.front(), "event"), "accepted");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    EXPECT_EQ(event_field(events[i + 1], "event"), "progress");
    EXPECT_EQ(event_field(events[i + 1], "done"), std::to_string(i + 1));
    EXPECT_EQ(event_field(events[i + 1], "total"),
              std::to_string(classes.size()));
  }
  EXPECT_EQ(event_field(events.back(), "event"), "result");

  // Per-class oracle on the serial scalar reference.
  const memsim::MemoryGeometry geom{.address_bits = 7, .word_bits = 1,
                                    .num_ports = 1};
  const march::CoverageOptions opts{.seed = 3, .max_instances_per_class = 130,
                                    .jobs = 1,
                                    .kernel = march::CampaignKernel::Scalar};
  const auto alg = march::by_name("March C+");
  march::CoverageRow row;
  row.algorithm = alg.name();
  std::vector<memsim::FaultClass> all{classes.begin(), classes.end()};
  for (auto cls : all)
    row.cells[cls] = march::evaluate_coverage(alg, cls, geom, opts);
  const std::vector<march::CoverageRow> rows{row};
  EXPECT_EQ(event_field(events.back(), "payload"),
            march::format_coverage_table(rows, all));
}

TEST(ServeEquivalence, LintPayloadMatchesFormatCli) {
  serve::Server server{{.sessions = 1}};
  const auto events =
      server.call(R"({"id":"l1","kind":"lint","input":"March C"})");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(event_field(events[0], "event"), "accepted");
  EXPECT_EQ(event_field(events[1], "event"), "result");

  const lint::Report report = lint::lint_text("March C", "input", {});
  EXPECT_EQ(event_field(events[1], "payload"),
            lint::format_cli(report, "input", false));
  EXPECT_EQ(event_field(events[1], "exit"), report.has_errors() ? "1" : "0");
}

TEST(ServeEquivalence, MemtestPayloadMatchesEngineOutput) {
  serve::Server server{{.sessions = 1}};
  const auto events = server.call(
      R"({"id":"m1","kind":"memtest","algorithm":"MATS+","size_mb":1,)"
      R"("backgrounds":1,"jobs":1,"backend":"sim"})");
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(event_field(events.front(), "event"), "accepted");
  EXPECT_EQ(event_field(events.back(), "event"), "result");

  backend::MemtestOptions opts;
  opts.size_bytes = 1ull << 20;
  opts.backgrounds = 1;
  opts.jobs = 1;
  opts.backend = backend::BackendKind::Sim;
  const auto report = backend::run_memtest(march::by_name("MATS+"), opts);
  EXPECT_EQ(event_field(events.back(), "payload"),
            backend::format_memtest_report(report));
  EXPECT_EQ(event_field(events.back(), "exit"), report.passed() ? "0" : "1");
}

TEST(ServeEquivalence, SocPayloadMatchesFormatSocReport) {
  const std::string chip_text = read_file("examples/soc_demo.chip");
  json::Value req = json::Value::object();
  req.set("id", json::Value::string("s1"));
  req.set("kind", json::Value::string("soc"));
  req.set("chip", json::Value::string(chip_text));
  req.set("jobs", json::Value::number(std::int64_t{1}));

  serve::Server server{{.sessions = 1}};
  const auto events = server.call(req.dump());
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(event_field(events.front(), "event"), "accepted");
  EXPECT_EQ(event_field(events.back(), "event"), "result");

  const soc::ChipFile chip = soc::parse_chip(chip_text);
  soc::SchedulerOptions opts;
  opts.jobs = 1;
  const auto result = soc::run_soc(chip.description, chip.plan, opts);
  EXPECT_EQ(event_field(events.back(), "payload"),
            soc::format_soc_report(chip.description, chip.plan, result));
  EXPECT_EQ(event_field(events.back(), "exit"),
            result.all_healthy() ? "0" : "1");
}

TEST(ServeEquivalence, FieldPayloadMatchesFormatFieldReport) {
  const std::string chip_text = read_file("examples/soc_demo.chip");
  const std::string profile_text = read_file("examples/soc_demo.profile");
  json::Value req = json::Value::object();
  req.set("id", json::Value::string("f1"));
  req.set("kind", json::Value::string("field"));
  req.set("chip", json::Value::string(chip_text));
  req.set("profile", json::Value::string(profile_text));
  req.set("jobs", json::Value::number(std::int64_t{1}));

  serve::Server server{{.sessions = 1}};
  const auto events = server.call(req.dump());
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(event_field(events.back(), "event"), "result");

  const soc::ChipFile chip = soc::parse_chip(chip_text);
  const auto profile = field::parse_profile_text(profile_text);
  field::FieldOptions opts;
  opts.jobs = 1;
  const auto report =
      field::run_field(chip.description, chip.plan, profile, opts);
  EXPECT_EQ(event_field(events.back(), "payload"),
            field::format_field_report(report));
  EXPECT_EQ(event_field(events.back(), "exit"),
            report.all_healthy() ? "0" : "1");
}

// Determinism across transports and runs: the pipe transport produces a
// byte-identical event stream for the same batch, twice in a row on
// fresh servers.
TEST(ServeEquivalence, PipeBatchIsByteStable) {
  const std::string batch =
      R"({"id":"a","kind":"lint","input":"March C"})" "\n"
      R"({"id":"b","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})" "\n"
      "not json\n";
  auto run = [&] {
    serve::Server server{{.sessions = 1}};
    std::istringstream in{batch};
    std::ostringstream out;
    server.run_pipe(in, out);
    return out.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(ServeEquivalence, PipeMirrorsPayloadsToFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pmbist_serve_payload_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  serve::Server server{{.sessions = 1}};
  std::istringstream in{R"({"id":"l1","kind":"lint","input":"March C"})" "\n"};
  std::ostringstream out;
  server.run_pipe(in, out, dir.string());

  std::ifstream mirrored{dir / "l1.out", std::ios::binary};
  ASSERT_TRUE(mirrored.good());
  std::ostringstream payload;
  payload << mirrored.rdbuf();
  const lint::Report report = lint::lint_text("March C", "input", {});
  EXPECT_EQ(payload.str(), lint::format_cli(report, "input", false));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Caching: cross-request hits, deterministic LRU eviction.

TEST(ServeCaches, LintVerdictsAreServedFromCacheOnRepeat) {
  serve::Server server{{.sessions = 1}};
  const std::string line = R"({"id":"l1","kind":"lint","input":"March C"})";
  const auto first = server.call(line);
  const auto second =
      server.call(R"({"id":"l2","kind":"lint","input":"March C"})");
  EXPECT_EQ(event_field(first.back(), "payload"),
            event_field(second.back(), "payload"));

  const auto stats = server.stats();
  EXPECT_EQ(stats.lints.misses, 1u);
  EXPECT_EQ(stats.lints.hits, 1u);
  EXPECT_EQ(stats.lints.entries, 1u);
}

TEST(ServeCaches, LintEvictionIsDeterministicUnderEntryBudget) {
  serve::Server server{{.sessions = 1, .lint_cache_entries = 1}};
  auto lint = [&](const char* id, const char* input) {
    return server.call(std::string(R"({"id":")") + id +
                       R"(","kind":"lint","input":")" + input + R"("})");
  };
  const auto a1 = lint("a1", "March C");
  (void)lint("b1", "MATS+");     // evicts the March C verdict
  const auto a2 = lint("a2", "March C");  // recomputed, identical bytes

  EXPECT_EQ(event_field(a1.back(), "payload"),
            event_field(a2.back(), "payload"));
  const auto stats = server.stats();
  EXPECT_EQ(stats.lints.hits, 0u);
  EXPECT_EQ(stats.lints.misses, 3u);
  EXPECT_EQ(stats.lints.evictions, 2u);
  EXPECT_EQ(stats.lints.entries, 1u);
}

// ---------------------------------------------------------------------------
// Lint requests with cross-file context (against / chip / profile /
// certify) and the schedule-certificate gate on soc/field sessions.

TEST(ServeProtocol, LintAcceptsCertifyAndProfileFields) {
  const auto req = serve::parse_request(
      R"({"id":"l","kind":"lint","input":"x","chip":"c","profile":"p",)"
      R"("certify":true})");
  EXPECT_TRUE(req.certify);
  EXPECT_EQ(req.chip, "c");
  EXPECT_EQ(req.profile, "p");
  const auto off =
      serve::parse_request(R"({"id":"l","kind":"lint","input":"x"})");
  EXPECT_FALSE(off.certify);
  EXPECT_TRUE(off.profile.empty());
  EXPECT_THROW(
      (void)serve::parse_request(
          R"({"id":"l","kind":"lint","input":"x","certify":"yes"})"),
      serve::ProtocolError);
}

TEST(ServeEquivalence, LintAgainstPayloadMatchesFormatCli) {
  const std::string image = read_file("examples/march_c.ucode.hex");
  json::Value req = json::Value::object();
  req.set("id", json::Value::string("la"));
  req.set("kind", json::Value::string("lint"));
  req.set("input", json::Value::string(image));
  req.set("against", json::Value::string("March C"));

  serve::Server server{{.sessions = 1}};
  const auto events = server.call(req.dump());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(event_field(events[1], "event"), "result");

  lint::LintOptions lopts;
  lopts.against = "March C";
  const lint::Report report = lint::lint_text(image, "input", lopts);
  EXPECT_TRUE(report.has_code("EQ04")) << lint::format_text(report);
  EXPECT_EQ(event_field(events[1], "payload"),
            lint::format_cli(report, "input", false));
  EXPECT_EQ(event_field(events[1], "exit"), "0");
}

TEST(ServeEquivalence, LintCertifiesScheduleAgainstChipPayload) {
  const std::string chip_text = read_file("examples/soc_demo.chip");
  const soc::ChipFile chip = soc::parse_chip(chip_text);
  const std::string schedule_text = soc::to_schedule_text(
      "s", soc::Scheduler{}.compute_schedule(chip.description, chip.plan));

  json::Value req = json::Value::object();
  req.set("id", json::Value::string("lc"));
  req.set("kind", json::Value::string("lint"));
  req.set("input", json::Value::string(schedule_text));
  req.set("chip", json::Value::string(chip_text));
  req.set("certify", json::Value::boolean(true));

  serve::Server server{{.sessions = 1}};
  const auto events = server.call(req.dump());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(event_field(events[1], "event"), "result");
  EXPECT_EQ(event_field(events[1], "exit"), "0");

  lint::LintOptions lopts;
  lopts.chip = chip_text;
  lopts.certify = true;
  const lint::Report report =
      lint::lint_text(schedule_text, "input", lopts);
  EXPECT_TRUE(report.empty()) << lint::format_text(report);
  EXPECT_EQ(event_field(events[1], "payload"),
            lint::format_cli(report, "input", false));
}

TEST(ServeCaches, CertifyOptionShapesShareOneVerdictEntry) {
  // An omitted `certify` and an explicit `certify:false` (plus an empty
  // `profile`) are the same request; only `certify:true` is a new key.
  serve::Server server{{.sessions = 1}};
  (void)server.call(R"({"id":"a","kind":"lint","input":"March C"})");
  (void)server.call(
      R"({"id":"b","kind":"lint","input":"March C","certify":false,)"
      R"("profile":""})");
  auto stats = server.stats();
  EXPECT_EQ(stats.lints.misses, 1u);
  EXPECT_EQ(stats.lints.hits, 1u);
  (void)server.call(
      R"({"id":"c","kind":"lint","input":"March C","certify":true})");
  stats = server.stats();
  EXPECT_EQ(stats.lints.misses, 2u);
  EXPECT_EQ(stats.lints.hits, 1u);
}

TEST(ServeCertify, CertifyingServerKeepsResultPayloadsUnchanged) {
  // ServerOptions::certify re-verifies every soc/field schedule before
  // replying; when the certificate holds (always, for the real engines)
  // the result payload is byte-identical to an uncertified server's.
  const std::string chip_text = read_file("examples/soc_demo.chip");
  const std::string profile_text = read_file("examples/soc_demo.profile");
  json::Value soc_req = json::Value::object();
  soc_req.set("id", json::Value::string("s"));
  soc_req.set("kind", json::Value::string("soc"));
  soc_req.set("chip", json::Value::string(chip_text));
  soc_req.set("jobs", json::Value::number(std::int64_t{1}));
  json::Value field_req = json::Value::object();
  field_req.set("id", json::Value::string("f"));
  field_req.set("kind", json::Value::string("field"));
  field_req.set("chip", json::Value::string(chip_text));
  field_req.set("profile", json::Value::string(profile_text));
  field_req.set("jobs", json::Value::number(std::int64_t{1}));

  serve::Server plain{{.sessions = 1}};
  serve::Server certifying{{.sessions = 1, .certify = true}};
  for (const auto* req : {&soc_req, &field_req}) {
    const auto a = plain.call(req->dump());
    const auto b = certifying.call(req->dump());
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(event_field(b.back(), "event"), "result");
    EXPECT_EQ(event_field(a.back(), "payload"),
              event_field(b.back(), "payload"));
    EXPECT_EQ(event_field(a.back(), "exit"), event_field(b.back(), "exit"));
  }
}

TEST(ServeCaches, StreamCacheHitsAccumulateAcrossRequests) {
  serve::Server server{{.sessions = 1}};
  const std::string line =
      R"({"id":"c1","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})";
  (void)server.call(line);
  const auto after_first = server.stats().streams;
  // One expansion per (algorithm, geometry), fetched once per request: a
  // row replays every class from one stream.
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  (void)server.call(
      R"({"id":"c2","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})");
  const auto after_second = server.stats().streams;
  EXPECT_EQ(after_second.misses, 1u);  // the second request hits
  EXPECT_EQ(after_second.hits, 1u);
}

// ---------------------------------------------------------------------------
// Isolation: two servers in one process share nothing — the pin for the
// no-global-state refactor of the engine layers.

TEST(ServeIsolation, TwoServersInOneProcessShareNothing) {
  serve::Server left{{.sessions = 1}};
  serve::Server right{{.sessions = 2}};
  const std::string campaign =
      R"({"id":"c","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})";
  const std::string lint_line = R"({"id":"l","kind":"lint","input":"March C"})";

  const auto left_events = left.call(campaign);
  (void)left.call(lint_line);
  const auto right_events = right.call(campaign);
  (void)right.call(lint_line);

  // Identical results...
  EXPECT_EQ(event_field(left_events.back(), "payload"),
            event_field(right_events.back(), "payload"));
  // ...from fully independent caches: each server paid its own misses.
  const auto ls = left.stats();
  const auto rs = right.stats();
  EXPECT_EQ(ls.streams.misses, 1u);
  EXPECT_EQ(rs.streams.misses, 1u);
  EXPECT_EQ(ls.lints.misses, 1u);
  EXPECT_EQ(rs.lints.misses, 1u);
  EXPECT_EQ(ls.completed, 2u);
  EXPECT_EQ(rs.completed, 2u);
}

// ---------------------------------------------------------------------------
// Cancellation and session registry.

TEST(ServeSessions, CancelMidCampaignLeavesTheServerReusable) {
  serve::Server server{{.sessions = 1}};
  Collector events;

  // Big enough that lane-packs remain long after the first progress
  // event: the engine polls the cancel flag before each pack it claims.
  // The final r1 fails in a fault-free memory, so every pack replays the
  // whole write phase (docs/KERNEL.md, "Dense fallback"): 192 packs of
  // ~0.3M ops each, about 0.3 s in an optimized build.
  const std::string big =
      R"j({"id":"big","kind":"campaign","addr_bits":14,"samples":1024,)j"
      R"j("jobs":2,"algorithm":"any(w0); )j"
      R"j(up(w1,w0,w1,w0,w1,w0,w1,w0,w1,w0,w1,w0,w1,w0,w1,w0); up(r1)"})j";
  ASSERT_TRUE(server.post(big, events.sink()));
  ASSERT_TRUE(events.wait_for_event("big", "progress",
                                    std::chrono::seconds(120)));

  // A duplicate id is rejected while the session is active.
  Collector dup;
  EXPECT_FALSE(server.post(big, dup.sink()));
  ASSERT_EQ(dup.snapshot().size(), 1u);
  EXPECT_EQ(event_field(dup.snapshot()[0], "event"), "error");

  const auto cancel_events =
      server.call(R"({"id":"k","kind":"cancel","target":"big"})");
  ASSERT_EQ(cancel_events.size(), 1u);
  EXPECT_EQ(event_field(cancel_events[0], "event"), "result");

  ASSERT_TRUE(events.wait_for_terminal("big", std::chrono::seconds(120)));
  const auto all = events.snapshot();
  EXPECT_EQ(event_field(all.back(), "event"), "cancelled");
  EXPECT_EQ(event_field(all.back(), "id"), "big");

  // The worker pool and the registry survived: a fresh request on the
  // same server completes normally with the exact engine output.
  const auto after = server.call(
      R"({"id":"c1","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})");
  EXPECT_EQ(event_field(after.back(), "event"), "result");
  EXPECT_EQ(event_field(after.back(), "exit"), "0");
  EXPECT_EQ(server.stats().active, 0);
}

TEST(ServeSessions, CancelUnknownTargetIsAnError) {
  serve::Server server{{.sessions = 1}};
  const auto events =
      server.call(R"({"id":"k","kind":"cancel","target":"ghost"})");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(event_field(events[0], "event"), "error");
}

TEST(ServeSessions, StatsPayloadIsWellFormed) {
  serve::Server server{{.sessions = 1}};
  (void)server.call(R"({"id":"l","kind":"lint","input":"March C"})");
  const auto events = server.call(R"({"id":"s","kind":"stats"})");
  ASSERT_EQ(events.size(), 1u);
  const json::Value doc =
      json::Value::parse(event_field(events[0], "payload"));
  ASSERT_NE(doc.find("streams"), nullptr);
  ASSERT_NE(doc.find("lints"), nullptr);
  EXPECT_EQ(doc.find("lints")->find("misses")->as_u64(), 1u);
  EXPECT_EQ(doc.find("active")->as_i64(), 0);
  EXPECT_EQ(doc.find("completed")->as_u64(), 1u);
}

TEST(ServeSessions, EngineFailuresBecomeErrorEvents) {
  serve::Server server{{.sessions = 1}};
  // Well-formed request, broken payloads: unknown algorithm DSL, bad chip.
  const auto bad_alg = server.call(
      R"({"id":"e1","kind":"campaign","algorithm":"March Zeta"})");
  EXPECT_EQ(event_field(bad_alg.back(), "event"), "error");
  const auto bad_chip =
      server.call(R"({"id":"e2","kind":"soc","chip":"mem bogus"})");
  EXPECT_EQ(event_field(bad_chip.back(), "event"), "error");
  const auto bad_class = server.call(
      R"({"id":"e3","kind":"campaign","algorithm":"MATS","classes":["XYZ"]})");
  EXPECT_EQ(event_field(bad_class.back(), "event"), "error");
  // The server remains usable after engine failures.
  const auto ok = server.call(R"({"id":"s","kind":"stats"})");
  EXPECT_EQ(event_field(ok.back(), "event"), "result");
}

// Mixed-kind concurrent clients through the async path: every session
// reaches a terminal event and payloads equal their sequential
// counterparts (the TSan job runs this test to pin thread safety).
TEST(ServeSessions, ConcurrentMixedKindsMatchSequentialResults) {
  const std::string campaign =
      R"({"id":"ID","kind":"campaign","algorithm":"MATS","addr_bits":4,)"
      R"("samples":4,"jobs":1})";
  const std::string lint_line = R"({"id":"ID","kind":"lint","input":"MATS+"})";

  serve::Server reference{{.sessions = 1}};
  auto expect_campaign = reference.call(campaign);
  auto expect_lint = reference.call(lint_line);
  const std::string campaign_payload =
      event_field(expect_campaign.back(), "payload");
  const std::string lint_payload = event_field(expect_lint.back(), "payload");

  serve::Server server{{.sessions = 4}};
  std::vector<std::thread> clients;
  std::mutex results_mu;
  std::vector<std::pair<bool, std::string>> results;  // (is_campaign, payload)
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      const bool is_campaign = i % 2 == 0;
      std::string line = is_campaign ? campaign : lint_line;
      line.replace(line.find("ID"), 2, "client" + std::to_string(i));
      const auto events = server.call(line);
      std::lock_guard lock{results_mu};
      results.emplace_back(is_campaign, event_field(events.back(), "payload"));
    });
  }
  for (auto& t : clients) t.join();

  ASSERT_EQ(results.size(), 8u);
  for (const auto& [is_campaign, payload] : results)
    EXPECT_EQ(payload, is_campaign ? campaign_payload : lint_payload);
  EXPECT_EQ(server.stats().completed, 8u);
  EXPECT_EQ(server.stats().active, 0);
}

// ---------------------------------------------------------------------------
// TCP transport smoke: ephemeral loopback port, one client, clean
// shutdown with events delivered before the connection closes.

/// A Server::serve_tcp loop on an ephemeral loopback port, run on its own
/// thread until stop().
class TcpServing {
 public:
  TcpServing() {
    std::promise<int> port_promise;
    auto port_future = port_promise.get_future();
    thread_ = std::thread{[&] {
      std::string error;
      const int rc = server_.serve_tcp(
          0, [&](int port) { port_promise.set_value(port); }, &error);
      EXPECT_EQ(rc, 0) << error;
    }};
    port_ = port_future.get();
  }
  ~TcpServing() { stop(); }

  /// Connects a client, sends `batch` in sends of at most `chunk` bytes,
  /// half-closes and returns everything received up to EOF; the server
  /// closes the connection once it has answered every request.
  std::string exchange(const std::string& batch,
                       std::size_t chunk = std::string::npos) const {
    const int fd = connect();
    for (std::size_t off = 0; off < batch.size(); off += chunk) {
      const std::size_t len = std::min(chunk, batch.size() - off);
      EXPECT_EQ(::send(fd, batch.data() + off, len, 0),
                static_cast<ssize_t>(len));
    }
    // Half-close the write side; the server drains in-flight sessions and
    // delivers every event before closing.
    ::shutdown(fd, SHUT_WR);
    return receive_all(fd);
  }

  /// A connected client socket (TCP_NODELAY).
  [[nodiscard]] int connect() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  /// Everything received on `fd` until the server closes it; closes `fd`.
  static std::string receive_all(int fd) {
    std::string received;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
      received.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return received;
  }

  void stop() {
    if (!thread_.joinable()) return;
    server_.shutdown();
    thread_.join();
  }

  [[nodiscard]] int port() const { return port_; }

 private:
  serve::Server server_{{.sessions = 2}};
  std::thread thread_;
  int port_ = 0;
};

TEST(ServeTcp, LoopbackRoundTrip) {
  TcpServing serving;
  ASSERT_GT(serving.port(), 0);
  const std::string received = serving.exchange(
      R"({"id":"l1","kind":"lint","input":"March C"})" "\n"
      R"({"id":"s1","kind":"stats"})" "\n");

  std::vector<std::string> lines;
  std::istringstream in{received};
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  bool lint_result = false;
  bool stats_result = false;
  for (const std::string& line : lines) {
    if (event_field(line, "event") != "result") continue;
    if (event_field(line, "id") == "l1") {
      const lint::Report report = lint::lint_text("March C", "input", {});
      EXPECT_EQ(event_field(line, "payload"),
                lint::format_cli(report, "input", false));
      lint_result = true;
    }
    if (event_field(line, "id") == "s1") stats_result = true;
  }
  EXPECT_TRUE(lint_result) << received;
  EXPECT_TRUE(stats_result) << received;
}

/// Events grouped by request id, each group in arrival order.
std::map<std::string, std::vector<std::string>> by_id(
    const std::vector<std::string>& events) {
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& e : events) out[event_field(e, "id")].push_back(e);
  return out;
}

// The reader splits lines out of arbitrary recv fragments: a request sent
// one byte per send, and three requests in one send, give each request the
// same events post() gives it.
TEST(ServeTcp, FragmentedAndBatchedLinesMatchPost) {
  const std::vector<std::string> requests{
      R"({"id":"a","kind":"lint","input":"March C"})",
      R"({"id":"b","kind":"lint","input":"MATS+"})",
      R"({"id":"c","kind":"lint","input":"any(w0); up(r0,w1"})"};
  serve::Server reference{{.sessions = 2}};
  std::vector<std::string> expected;
  for (const std::string& r : requests)
    for (std::string& e : reference.call(r)) expected.push_back(std::move(e));

  const auto received_events = [](const std::string& received) {
    std::vector<std::string> lines;
    std::istringstream in{received};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  TcpServing serving;
  ASSERT_GT(serving.port(), 0);
  const auto one_byte =
      received_events(serving.exchange(requests[0] + "\n", 1));
  std::vector<std::string> first;
  for (const std::string& e : expected)
    if (event_field(e, "id") == "a") first.push_back(e);
  ASSERT_EQ(first.size(), 2u);  // accepted, result
  EXPECT_EQ(one_byte, first);

  const auto batched = received_events(serving.exchange(
      requests[0] + "\n" + requests[1] + "\n" + requests[2] + "\n"));
  ASSERT_EQ(by_id(expected).size(), requests.size());
  EXPECT_EQ(batched.size(), expected.size());
  EXPECT_EQ(by_id(batched), by_id(expected));
}

// A numeric field of /proc/self/status ("Threads", "VmSize" in kB).
long status_field(const std::string& name) {
  std::ifstream in{"/proc/self/status"};
  for (std::string line; std::getline(in, line);)
    if (line.rfind(name + ":", 0) == 0)
      return std::stol(line.substr(name.size() + 1));
  return -1;
}

TEST(ServeTcp, ClosedConnectionsReleaseTheirReaders) {
  // Every connection gets a reader thread.  The server must join a reader
  // once its client is gone, not at shutdown: each unjoined thread keeps
  // its stack mapped (several MiB of address space per connection).  The
  // baseline is taken after a few cycles, once the allocator's per-thread
  // arenas exist.
  TcpServing serving;
  ASSERT_GT(serving.port(), 0);
  long threads = 0;
  long vm_kb = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    ASSERT_EQ(serving.exchange(""), "");  // connect, half-close, drain
    if (cycle == 9) {
      threads = status_field("Threads");
      vm_kb = status_field("VmSize");
    }
  }
  ASSERT_GT(threads, 0);
  EXPECT_LE(status_field("Threads"), threads + 2);
  EXPECT_LE(status_field("VmSize"), vm_kb + 128 * 1024);
}

TEST(ServeTcp, ShutdownLeavesReusedDescriptorsAlone) {
  // A finished connection's descriptor number is free for reuse: the
  // socketpair below takes the lowest free numbers, the ones the client
  // and the server's side of the connection just released.  Shutting the
  // server down must not reach them through a stale record.
  TcpServing serving;
  ASSERT_GT(serving.port(), 0);
  const std::string received =
      serving.exchange(R"({"id":"s1","kind":"stats"})" "\n");
  ASSERT_NE(received.find(R"("id":"s1")"), std::string::npos) << received;

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  serving.stop();

  for (const auto& [from, to] : {std::pair{pair[0], pair[1]},
                                std::pair{pair[1], pair[0]}}) {
    ASSERT_EQ(::send(from, "x", 1, MSG_NOSIGNAL), 1);
    char c = 0;
    EXPECT_EQ(::recv(to, &c, 1, 0), 1);
    EXPECT_EQ(c, 'x');
  }
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(ServeTcp, OverlongLineGetsOneErrorAndClosesItsConnection) {
  // A client that never sends a newline may not grow the server's line
  // buffer without bound: past Server::kMaxLineBytes it gets one error
  // event and its connection is closed.  The request it sent before the
  // flood still completes, and other connections are served meanwhile.
  TcpServing serving;
  ASSERT_GT(serving.port(), 0);
  const int fd = serving.connect();
  const std::string first = R"({"id":"before","kind":"stats"})" "\n";
  ASSERT_EQ(::send(fd, first.data(), first.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(first.size()));
  const std::string chunk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent <= serve::Server::kMaxLineBytes + chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the server has closed the connection
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_GT(sent, serve::Server::kMaxLineBytes);

  const std::string other =
      serving.exchange(R"({"id":"other","kind":"stats"})" "\n");
  EXPECT_NE(other.find(R"("event":"result","id":"other")"), std::string::npos)
      << other;

  // Half-close, so a server that kept buffering ends with EOF, not a hang.
  ::shutdown(fd, SHUT_WR);
  std::vector<std::string> lines;
  std::istringstream in{TcpServing::receive_all(fd)};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  int errors = 0;
  bool before = false;
  for (const std::string& line : lines) {
    if (event_field(line, "event") == "error") {
      ++errors;
      EXPECT_NE(line.find("request line longer than"), std::string::npos)
          << line;
    }
    before = before || (event_field(line, "event") == "result" &&
                        event_field(line, "id") == "before");
  }
  EXPECT_EQ(errors, 1);
  EXPECT_TRUE(before);
}

}  // namespace
