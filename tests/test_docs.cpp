// Keeps the docs honest: every fenced ```march block in docs/DSL.md must
// parse and round-trip through to_string(), every ```march-error block must
// be rejected with march::ParseError — and likewise every ```chip block in
// docs/SOC.md must parse (and round-trip) through soc::parse_chip_text /
// every ```chip-error block must raise ChipError, and every ```profile
// block in docs/FIELD.md must parse (and round-trip) through
// field::parse_profile_text / every ```profile-error block must raise
// FieldError.  docs/LINT.md blocks tagged ```lint-<kind>:<CODE> are run
// through the linter and must emit the named diagnostic code, and every
// registered code must have such a block (api-only codes are pinned by
// prose mention + a unit test in test_lint.cpp).  docs/SERVE.md blocks
// tagged ```serve are request batches run through a fresh
// serve::Server's pipe transport twice — the event stream must be
// byte-stable, error-free and completely terminal — and every
// ```serve-error line must answer with exactly one error event.
// docs/KERNEL.md blocks
// tagged ```kernel-check:class=...:n=...:seed=... hold a march DSL body
// whose campaign is run under both the scalar and the packed kernel and
// must produce byte-identical detection records.  docs/BACKEND.md blocks
// tagged ```memtest-check:size=...[:backgrounds=N] hold a march DSL body
// run through the memtest engine on both the sim and the hostram backend
// and must PASS with identical signatures and op counts.  The docs and
// the tools cannot drift apart without this test failing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "backend/memtest.h"
#include "common/json.h"
#include "field/profile.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "march/campaign.h"
#include "march/coverage.h"
#include "march/parser.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "soc/chip.h"
#include "soc/chip_json.h"

namespace {

using namespace pmbist;

struct DocExample {
  std::string text;
  std::size_t line;  // 1-based line of the opening fence
  bool must_fail;
};

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Extracts fenced code blocks tagged `<tag>` / `<tag>-error`.
std::vector<DocExample> extract_examples(const std::string& doc,
                                         const std::string& tag = "march") {
  std::vector<DocExample> examples;
  std::istringstream lines{doc};
  std::string line;
  std::size_t lineno = 0;
  bool in_block = false;
  DocExample current;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!in_block) {
      if (line == "```" + tag || line == "```" + tag + "-error") {
        in_block = true;
        current = DocExample{"", lineno, line == "```" + tag + "-error"};
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      examples.push_back(current);
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated code fence";
  return examples;
}

std::vector<DocExample> doc_examples(const char* relative,
                                     const std::string& tag = "march") {
  return extract_examples(
      read_file(std::string{PMBIST_SOURCE_DIR} + "/" + relative), tag);
}

// A ```lint-<kind>:<CODE>[:storage-depth=N][:buffer-depth=N][:against=SRC]
// block from a doc file: linting `text` as `kind` must emit `code`.
// docs/LINT.md carries one block per code; docs/EQUIV.md uses the same
// fence syntax for its control-flow-recovery walkthrough.
struct LintExample {
  std::string kind;
  std::string code;
  std::string text;
  std::size_t line = 0;  // 1-based line of the opening fence
  lint::LintOptions options;
};

std::vector<LintExample> lint_doc_examples(
    const std::string& rel = "docs/LINT.md") {
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} + "/" + rel);
  std::vector<LintExample> examples;
  std::istringstream lines{doc};
  std::string line;
  std::size_t lineno = 0;
  bool in_block = false;
  LintExample current;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!in_block) {
      if (line.rfind("```lint-", 0) != 0) continue;
      in_block = true;
      current = LintExample{};
      current.line = lineno;
      // Split the info string "lint-<kind>:<CODE>[:key=value]..." fields.
      std::string info = line.substr(8);  // after "```lint-"
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (start <= info.size()) {
        const auto colon = info.find(':', start);
        fields.push_back(info.substr(start, colon - start));
        if (colon == std::string::npos) break;
        start = colon + 1;
      }
      if (fields.size() < 2) {
        ADD_FAILURE() << rel << ":" << lineno << ": " << line;
        in_block = false;
        continue;
      }
      current.kind = fields[0];
      current.code = fields[1];
      for (std::size_t i = 2; i < fields.size(); ++i) {
        const auto eq = fields[i].find('=');
        if (eq == std::string::npos) {
          ADD_FAILURE() << rel << ":" << lineno << ": bad option "
                        << fields[i];
          continue;
        }
        const std::string key = fields[i].substr(0, eq);
        const std::string value = fields[i].substr(eq + 1);
        if (key == "storage-depth")
          current.options.storage_depth = std::atoi(value.c_str());
        else if (key == "buffer-depth")
          current.options.buffer_depth = std::atoi(value.c_str());
        else if (key == "against")  // no colons in names, spaces are fine
          current.options.against = value;
        else if (key == "chip")  // repo-relative path, read like --chip
          current.options.chip =
              read_file(std::string{PMBIST_SOURCE_DIR} + "/" + value);
        else if (key == "profile")  // repo-relative path, read like --profile
          current.options.profile =
              read_file(std::string{PMBIST_SOURCE_DIR} + "/" + value);
        else ADD_FAILURE() << rel << ":" << lineno << ": unknown option "
                           << key;
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      examples.push_back(current);
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated lint code fence";
  return examples;
}

// A ```kernel-check:class=CLS:n=N:seed=S[:addr-bits=A][:word-bits=W]
// [:ports=P] block from docs/KERNEL.md: the march DSL body is campaigned
// over N sampled CLS instances under both kernels, which must agree.
struct KernelExample {
  memsim::FaultClass cls = memsim::FaultClass::SAF;
  int instances = 0;
  std::uint64_t seed = 0;
  memsim::MemoryGeometry geometry{.address_bits = 4, .word_bits = 1,
                                  .num_ports = 1};
  std::string text;
  std::size_t line = 0;  // 1-based line of the opening fence
};

std::vector<KernelExample> kernel_doc_examples() {
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/KERNEL.md");
  std::vector<KernelExample> examples;
  std::istringstream lines{doc};
  std::string line;
  std::size_t lineno = 0;
  bool in_block = false;
  KernelExample current;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!in_block) {
      if (line.rfind("```kernel-check:", 0) != 0) continue;
      in_block = true;
      current = KernelExample{};
      current.line = lineno;
      // Split the "key=value[:key=value]..." info fields.
      std::string info = line.substr(16);  // after "```kernel-check:"
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (start <= info.size()) {
        const auto colon = info.find(':', start);
        fields.push_back(info.substr(start, colon - start));
        if (colon == std::string::npos) break;
        start = colon + 1;
      }
      for (const auto& field : fields) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) {
          ADD_FAILURE() << "docs/KERNEL.md:" << lineno << ": bad option "
                        << field;
          continue;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "class") {
          bool found = false;
          for (const auto cls : memsim::all_fault_classes())
            if (memsim::fault_class_name(cls) == value) {
              current.cls = cls;
              found = true;
            }
          EXPECT_TRUE(found) << "docs/KERNEL.md:" << lineno
                             << ": unknown fault class " << value;
        } else if (key == "n")
          current.instances = std::atoi(value.c_str());
        else if (key == "seed")
          current.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "addr-bits")
          current.geometry.address_bits = std::atoi(value.c_str());
        else if (key == "word-bits")
          current.geometry.word_bits = std::atoi(value.c_str());
        else if (key == "ports")
          current.geometry.num_ports = std::atoi(value.c_str());
        else ADD_FAILURE() << "docs/KERNEL.md:" << lineno
                           << ": unknown option " << key;
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      examples.push_back(current);
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated kernel-check code fence";
  return examples;
}

// A ```memtest-check:size=BYTES[:backgrounds=N] block from
// docs/BACKEND.md: the march DSL body is run through the memtest engine
// on both backends, which must agree.
struct MemtestExample {
  std::uint64_t size_bytes = 0;
  int backgrounds = 1;
  std::string text;
  std::size_t line = 0;  // 1-based line of the opening fence
};

std::vector<MemtestExample> memtest_doc_examples() {
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/BACKEND.md");
  std::vector<MemtestExample> examples;
  std::istringstream lines{doc};
  std::string line;
  std::size_t lineno = 0;
  bool in_block = false;
  MemtestExample current;
  while (std::getline(lines, line)) {
    ++lineno;
    if (!in_block) {
      if (line.rfind("```memtest-check:", 0) != 0) continue;
      in_block = true;
      current = MemtestExample{};
      current.line = lineno;
      // Split the "key=value[:key=value]..." info fields.
      std::string info = line.substr(17);  // after "```memtest-check:"
      std::vector<std::string> fields;
      std::size_t start = 0;
      while (start <= info.size()) {
        const auto colon = info.find(':', start);
        fields.push_back(info.substr(start, colon - start));
        if (colon == std::string::npos) break;
        start = colon + 1;
      }
      for (const auto& field : fields) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) {
          ADD_FAILURE() << "docs/BACKEND.md:" << lineno << ": bad option "
                        << field;
          continue;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "size") {
          const auto bytes = backend::parse_size_bytes(value);
          EXPECT_TRUE(bytes.has_value())
              << "docs/BACKEND.md:" << lineno << ": bad size " << value;
          current.size_bytes = bytes.value_or(0);
        } else if (key == "backgrounds")
          current.backgrounds = std::atoi(value.c_str());
        else ADD_FAILURE() << "docs/BACKEND.md:" << lineno
                           << ": unknown option " << key;
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      examples.push_back(current);
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated memtest-check code fence";
  return examples;
}

lint::InputKind lint_kind_of(const std::string& kind) {
  if (kind == "march") return lint::InputKind::March;
  if (kind == "ucode") return lint::InputKind::UcodeImage;
  if (kind == "pfsm") return lint::InputKind::PfsmImage;
  if (kind == "chip") return lint::InputKind::Chip;
  if (kind == "profile") return lint::InputKind::Profile;
  if (kind == "soc-schedule") return lint::InputKind::SocSchedule;
  if (kind == "field-schedule") return lint::InputKind::FieldSchedule;
  ADD_FAILURE() << "unknown lint block kind " << kind;
  return lint::InputKind::March;
}

TEST(DocExamples, DslDocHasExamples) {
  const auto examples = doc_examples("docs/DSL.md");
  int valid = 0, invalid = 0;
  for (const auto& e : examples) (e.must_fail ? invalid : valid)++;
  // The doc promises at least one round-trip example per construct and a
  // rejection example per error class.
  EXPECT_GE(valid, 6);
  EXPECT_GE(invalid, 7);
}

TEST(DocExamples, ValidExamplesParseAndRoundTrip) {
  for (const auto& e : doc_examples("docs/DSL.md")) {
    if (e.must_fail) continue;
    SCOPED_TRACE("docs/DSL.md:" + std::to_string(e.line));
    march::MarchAlgorithm alg{"", {}};
    ASSERT_NO_THROW(alg = march::parse(e.text)) << e.text;
    EXPECT_FALSE(alg.elements().empty());
    // Round trip: the canonical printed form re-parses to the same
    // algorithm.
    const auto printed = alg.to_string();
    march::MarchAlgorithm again{"", {}};
    ASSERT_NO_THROW(again = march::parse(printed, alg.name())) << printed;
    EXPECT_EQ(alg, again) << printed;
  }
}

TEST(DocExamples, ErrorExamplesAreRejected) {
  for (const auto& e : doc_examples("docs/DSL.md")) {
    if (!e.must_fail) continue;
    SCOPED_TRACE("docs/DSL.md:" + std::to_string(e.line));
    EXPECT_THROW((void)march::parse(e.text), march::ParseError) << e.text;
  }
}

TEST(DocExamples, SocDocHasExamples) {
  const auto examples = doc_examples("docs/SOC.md", "chip");
  int valid = 0, invalid = 0;
  for (const auto& e : examples) (e.must_fail ? invalid : valid)++;
  EXPECT_GE(valid, 3);
  EXPECT_GE(invalid, 3);
}

TEST(DocExamples, ChipExamplesParseAndRoundTrip) {
  for (const auto& e : doc_examples("docs/SOC.md", "chip")) {
    if (e.must_fail) continue;
    SCOPED_TRACE("docs/SOC.md:" + std::to_string(e.line));
    soc::ChipFile chip;
    ASSERT_NO_THROW(chip = soc::parse_chip_text(e.text)) << e.text;
    EXPECT_FALSE(chip.description.memories().empty());
    // The serialized form re-parses to the same chip.
    const auto printed = soc::to_chip_text(chip.description, chip.plan);
    soc::ChipFile again;
    ASSERT_NO_THROW(again = soc::parse_chip_text(printed)) << printed;
    EXPECT_EQ(again.description, chip.description) << printed;
    EXPECT_EQ(again.plan, chip.plan) << printed;
  }
}

TEST(DocExamples, ChipErrorExamplesAreRejected) {
  for (const auto& e : doc_examples("docs/SOC.md", "chip")) {
    if (!e.must_fail) continue;
    SCOPED_TRACE("docs/SOC.md:" + std::to_string(e.line));
    EXPECT_THROW((void)soc::parse_chip_text(e.text), soc::ChipError)
        << e.text;
  }
}

TEST(DocExamples, ChipJsonExamplesParseAndRoundTrip) {
  const auto examples = doc_examples("docs/SOC.md", "chip-json");
  int valid = 0, invalid = 0;
  for (const auto& e : examples) (e.must_fail ? invalid : valid)++;
  EXPECT_GE(valid, 1);
  EXPECT_GE(invalid, 1);
  for (const auto& e : examples) {
    SCOPED_TRACE("docs/SOC.md:" + std::to_string(e.line));
    if (e.must_fail) {
      EXPECT_THROW((void)soc::parse_chip_json(e.text), soc::ChipError)
          << e.text;
      continue;
    }
    soc::ChipFile chip;
    ASSERT_NO_THROW(chip = soc::parse_chip_json(e.text)) << e.text;
    EXPECT_FALSE(chip.description.memories().empty());
    // The serialized mirror re-parses to the same chip, and parse_chip
    // sniffs the format from the leading '{'.
    const auto printed =
        soc::serialize_chip_json(chip.description, chip.plan);
    soc::ChipFile again;
    ASSERT_NO_THROW(again = soc::parse_chip_json(printed)) << printed;
    EXPECT_EQ(again.description, chip.description) << printed;
    EXPECT_EQ(again.plan, chip.plan) << printed;
    EXPECT_EQ(soc::parse_chip(e.text).description, chip.description);
  }
}

TEST(DocExamples, FieldDocHasExamples) {
  const auto examples = doc_examples("docs/FIELD.md", "profile");
  int valid = 0, invalid = 0;
  for (const auto& e : examples) (e.must_fail ? invalid : valid)++;
  EXPECT_GE(valid, 2);
  EXPECT_GE(invalid, 2);
}

TEST(DocExamples, ProfileExamplesParseAndRoundTrip) {
  for (const auto& e : doc_examples("docs/FIELD.md", "profile")) {
    if (e.must_fail) continue;
    SCOPED_TRACE("docs/FIELD.md:" + std::to_string(e.line));
    field::MissionProfile profile;
    ASSERT_NO_THROW(profile = field::parse_profile_text(e.text)) << e.text;
    EXPECT_FALSE(profile.windows.empty());
    // The serialized form re-parses to the same profile.
    const auto printed = field::to_profile_text(profile);
    field::MissionProfile again;
    ASSERT_NO_THROW(again = field::parse_profile_text(printed)) << printed;
    EXPECT_EQ(again, profile) << printed;
  }
}

TEST(DocExamples, ProfileErrorExamplesAreRejected) {
  for (const auto& e : doc_examples("docs/FIELD.md", "profile")) {
    if (!e.must_fail) continue;
    SCOPED_TRACE("docs/FIELD.md:" + std::to_string(e.line));
    EXPECT_THROW((void)field::parse_profile_text(e.text), field::FieldError)
        << e.text;
  }
}

TEST(DocExamples, LintExamplesEmitTheirCode) {
  for (const char* rel : {"docs/LINT.md", "docs/EQUIV.md"}) {
    for (const auto& e : lint_doc_examples(rel)) {
      SCOPED_TRACE(std::string{rel} + ":" + std::to_string(e.line));
      ASSERT_NE(lint::find_code(e.code), nullptr)
          << "block names unregistered code " << e.code;
      const auto report = lint::lint_text_as(lint_kind_of(e.kind), e.text,
                                             "doc-example", e.options);
      EXPECT_TRUE(report.has_code(e.code))
          << "block does not trigger " << e.code << "; got:\n"
          << lint::format_text(report);
      // The auto-detector must agree with the block's declared kind, since
      // `pmbist lint` relies on it.
      EXPECT_EQ(lint::detect_kind(e.text), lint_kind_of(e.kind));
    }
  }
}

TEST(DocExamples, EveryLintCodeIsDocumented) {
  const auto examples = lint_doc_examples();
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/LINT.md");
  for (const auto& info : lint::all_codes()) {
    const std::string code{info.code};
    if (info.api_only) {
      // Not expressible in any on-disk input; pinned by prose here and a
      // unit test in test_lint.cpp.
      EXPECT_NE(doc.find(code), std::string::npos)
          << code << " is not mentioned in docs/LINT.md";
      continue;
    }
    bool documented = false;
    for (const auto& e : examples) documented |= e.code == code;
    EXPECT_TRUE(documented)
        << code << " has no ```lint-<kind>:" << code
        << " example block in docs/LINT.md";
  }
}

TEST(DocExamples, CampaignsDocExists) {
  // CAMPAIGNS.md carries C++ snippets, not DSL blocks; just pin the cross
  // references so a rename breaks loudly.
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/CAMPAIGNS.md");
  EXPECT_NE(doc.find("determinism contract"), std::string::npos);
  EXPECT_NE(doc.find("run_campaign"), std::string::npos);
  for (const auto& e : extract_examples(doc)) {
    if (!e.must_fail) {
      EXPECT_NO_THROW((void)march::parse(e.text));
    }
  }
}

TEST(DocExamples, ServeDocHasExamples) {
  const auto examples = doc_examples("docs/SERVE.md", "serve");
  int valid = 0, invalid = 0;
  for (const auto& e : examples) (e.must_fail ? invalid : valid)++;
  EXPECT_GE(valid, 3);
  EXPECT_GE(invalid, 3);
}

TEST(DocExamples, ServeExamplesAreByteStableAndErrorFree) {
  for (const auto& e : doc_examples("docs/SERVE.md", "serve")) {
    if (e.must_fail) continue;
    SCOPED_TRACE("docs/SERVE.md:" + std::to_string(e.line));

    auto run = [&] {
      serve::Server server{{.sessions = 1}};
      std::istringstream in{e.text};
      std::ostringstream out;
      server.run_pipe(in, out);
      return out.str();
    };
    const std::string first = run();
    EXPECT_EQ(first, run()) << "pipe batch is not byte-stable";

    // Every event line parses, none is an error, and every request in
    // the batch reaches a terminal event.
    std::vector<std::string> pending_ids;
    {
      std::istringstream requests{e.text};
      for (std::string line; std::getline(requests, line);) {
        const auto req = serve::parse_request(line);
        if (req.kind != serve::RequestKind::Cancel) pending_ids.push_back(req.id);
      }
    }
    std::istringstream events{first};
    for (std::string line; std::getline(events, line);) {
      common::json::Value doc;
      ASSERT_NO_THROW(doc = common::json::Value::parse(line)) << line;
      const auto* event = doc.find("event");
      ASSERT_NE(event, nullptr) << line;
      EXPECT_NE(event->as_string(), "error") << line;
      if (event->as_string() == "result" || event->as_string() == "cancelled")
        std::erase(pending_ids, doc.find("id")->as_string());
    }
    EXPECT_TRUE(pending_ids.empty())
        << pending_ids.size() << " request(s) never reached a terminal event";
  }
}

TEST(DocExamples, ServeErrorExamplesAnswerWithErrorEvents) {
  serve::Server server{{.sessions = 1}};
  for (const auto& e : doc_examples("docs/SERVE.md", "serve")) {
    if (!e.must_fail) continue;
    SCOPED_TRACE("docs/SERVE.md:" + std::to_string(e.line));
    std::istringstream lines{e.text};
    for (std::string line; std::getline(lines, line);) {
      const auto events = server.call(line);
      ASSERT_EQ(events.size(), 1u) << line;
      const auto doc = common::json::Value::parse(events[0]);
      EXPECT_EQ(doc.find("event")->as_string(), "error") << line;
    }
  }
}

// The request table of docs/SERVE.md lists, per kind, exactly the fields
// parse_request accepts: the first backticked word of each comma-separated
// entry (commas inside parentheses belong to the entry).
TEST(DocExamples, ServeRequestTableMatchesTheFieldTable) {
  std::istringstream doc{
      read_file(std::string{PMBIST_SOURCE_DIR} + "/docs/SERVE.md")};
  int rows = 0;
  for (std::string line; std::getline(doc, line);) {
    if (!line.starts_with("| `")) continue;
    std::vector<std::string> cells;
    for (std::size_t at = 1, bar; (bar = line.find('|', at)) !=
                                  std::string::npos;
         at = bar + 1)
      cells.push_back(line.substr(at, bar - at));
    ASSERT_EQ(cells.size(), 3u) << line;
    const std::string kind = cells[0].substr(cells[0].find('`') + 1,
                                             cells[0].rfind('`') -
                                                 cells[0].find('`') - 1);
    std::set<std::string> documented;
    int depth = 0;
    bool named = false;
    for (std::size_t i = 0; i < cells[2].size(); ++i) {
      const char c = cells[2][i];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 0) named = false;
      if (c == '`' && depth == 0 && !named) {
        const std::size_t end = cells[2].find('`', i + 1);
        documented.insert(cells[2].substr(i + 1, end - i - 1));
        named = true;
        i = end;
      }
    }
    std::set<std::string> served;
    for (const auto& c : serve::commands())
      if (c.kind && serve::to_string(*c.kind) == kind)
        for (const auto& f : c.fields)
          if (f.surface != serve::Surface::Cli) served.emplace(f.json);
    EXPECT_EQ(documented, served) << "docs/SERVE.md row of '" << kind << "'";
    ++rows;
  }
  EXPECT_EQ(rows, 7);
}

TEST(DocExamples, KernelDocExists) {
  // KERNEL.md documents the packed engine; pin the cross references so a
  // rename breaks loudly.
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/KERNEL.md");
  EXPECT_NE(doc.find("PackedFaultyMemory"), std::string::npos);
  EXPECT_NE(doc.find("lane-pack"), std::string::npos);
  EXPECT_NE(doc.find("--kernel scalar|packed"), std::string::npos);
  EXPECT_NE(doc.find("byte-identical"), std::string::npos);
  EXPECT_NE(doc.find("docs/CAMPAIGNS.md"), std::string::npos);
}

TEST(DocExamples, KernelDocHasExamples) {
  EXPECT_GE(kernel_doc_examples().size(), 3u);
}

TEST(DocExamples, KernelCheckExamplesAgreeAcrossKernels) {
  for (const auto& e : kernel_doc_examples()) {
    SCOPED_TRACE("docs/KERNEL.md:" + std::to_string(e.line));
    ASSERT_GT(e.instances, 0) << "block needs n=<instances>";

    // The body is an ordinary march DSL algorithm.
    march::MarchAlgorithm alg{"", {}};
    ASSERT_NO_THROW(alg = march::parse(e.text, "doc-example")) << e.text;

    const auto universe =
        march::make_fault_universe(e.cls, e.geometry, e.seed, e.instances);
    ASSERT_FALSE(universe.empty());

    const auto scalar = march::run_campaign(
        alg, e.geometry, universe,
        {.jobs = 1, .powerup_seed = e.seed,
         .kernel = march::CampaignKernel::Scalar});
    const auto packed = march::run_campaign(
        alg, e.geometry, universe,
        {.jobs = 2, .powerup_seed = e.seed,
         .kernel = march::CampaignKernel::Packed});

    // The documented contract: byte-identical records, any jobs count.
    EXPECT_EQ(scalar.records, packed.records);
    // And the examples are meaningful campaigns, not vacuous ones.
    EXPECT_GT(packed.detected(), 0);
  }
}

TEST(DocExamples, BackendDocExists) {
  // BACKEND.md documents the memory seam and its implementations; pin the
  // cross references so a rename breaks loudly.
  const auto doc = read_file(std::string{PMBIST_SOURCE_DIR} +
                             "/docs/BACKEND.md");
  for (const char* name :
       {"memsim::Memory", "SramModel", "FaultyMemory", "HostRamBackend",
        "words()", "huge_pages()", "soc::make_instance_memory",
        "--backend sim|hostram", "pmbist memtest", "BENCH_backend.json"})
    EXPECT_NE(doc.find(name), std::string::npos) << name;
}

TEST(DocExamples, BackendDocHasExamples) {
  EXPECT_GE(memtest_doc_examples().size(), 3u);
}

TEST(DocExamples, MemtestCheckExamplesAgreeAcrossBackends) {
  for (const auto& e : memtest_doc_examples()) {
    SCOPED_TRACE("docs/BACKEND.md:" + std::to_string(e.line));
    ASSERT_GT(e.size_bytes, 0u) << "block needs size=<bytes>";

    // The body is an ordinary march DSL algorithm.
    march::MarchAlgorithm alg{"", {}};
    ASSERT_NO_THROW(alg = march::parse(e.text, "doc-example")) << e.text;

    auto run = [&](backend::BackendKind kind) {
      backend::MemtestOptions opts;
      opts.size_bytes = e.size_bytes;
      opts.backgrounds = e.backgrounds;
      opts.jobs = 2;
      opts.backend = kind;
      return backend::run_memtest(alg, opts);
    };
    const auto sim = run(backend::BackendKind::Sim);
    const auto host = run(backend::BackendKind::HostRam);

    // The documented contract: identical deterministic reports (past the
    // header line, which names the backend), PASS.
    auto body = [](const backend::MemtestReport& r) {
      const auto text = backend::format_memtest_report(r);
      return text.substr(text.find('\n') + 1);
    };
    EXPECT_EQ(body(sim), body(host));
    EXPECT_EQ(sim.signature, host.signature);
    EXPECT_EQ(sim.reads, host.reads);
    EXPECT_EQ(sim.writes, host.writes);
    EXPECT_TRUE(sim.passed());
    EXPECT_TRUE(host.passed());
  }
}

}  // namespace
