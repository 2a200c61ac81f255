// The request model (src/serve/protocol.h): one field table per command,
// read from argv by parse_args and from NDJSON by parse_request.  The
// parity tests walk the tables themselves, so a row added to a table is
// checked on both surfaces without a new test: same defaults, same range
// errors, and to_json round-trips what the command line parsed.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "serve/protocol.h"

namespace {

using namespace pmbist;
namespace json = common::json;
using serve::Field;
using serve::FieldType;
using serve::Surface;

/// A file holding `text`, for the rows the CLI reads from a path.
std::string temp_file(const std::string& name, const std::string& text) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("pmbist_test_request_" + name);
  std::ofstream{path, std::ios::trunc} << text;
  return path.string();
}

/// The commands both surfaces take: every serve kind with a CLI command.
std::vector<const serve::Command*> shared_commands() {
  std::vector<const serve::Command*> out;
  for (const auto& c : serve::commands())
    if (c.kind && !c.name.empty()) out.push_back(&c);
  return out;
}

/// One value for a row, spelled for each surface.
struct Sample {
  std::vector<std::string> argv;  ///< flag (unless positional) and value
  json::Value wire;
};

/// A value other than the row's default, within its range.
Sample sample(const Field& f) {
  std::vector<std::string> argv;
  if (!f.flag.empty()) argv.emplace_back(f.flag);
  auto with = [&](std::string text, json::Value wire) {
    if (f.type != FieldType::Bool) argv.push_back(std::move(text));
    return Sample{argv, std::move(wire)};
  };
  switch (f.type) {
    case FieldType::Int:
    case FieldType::U64: {
      const std::uint64_t v =
          f.fallback == std::to_string(f.max) ? f.min : f.max;
      return with(std::to_string(v), json::Value::number(v));
    }
    case FieldType::Size:
      return with("1M", json::Value::number(std::uint64_t{1}));
    case FieldType::Double:
      return with("12.5", json::Value::number(12.5));
    case FieldType::Bool:
      return with("", json::Value::boolean(true));
    case FieldType::File:
      return with(temp_file(std::string{f.json}, "text of " +
                                                     std::string{f.json}),
                  json::Value::string("text of " + std::string{f.json}));
    case FieldType::Kernel:
      return with("scalar", json::Value::string("scalar"));
    case FieldType::Backend: {
      const std::string other = f.fallback == "sim" ? "hostram" : "sim";
      return with(other, json::Value::string(other));
    }
    case FieldType::Classes: {
      json::Value classes = json::Value::array();
      classes.push(json::Value::string("SAF"));
      return with("SAF", std::move(classes));
    }
    default:  // inline text
      return with("MATS", json::Value::string("MATS"));
  }
}

/// The shortest command line and request line of a command: its required
/// rows and nothing else.
std::pair<std::vector<std::string>, json::Value> minimal(
    const serve::Command& c) {
  std::vector<std::string> argv{std::string{c.name}};
  json::Value wire = json::Value::object();
  wire.set("id", json::Value::string("cli"));
  wire.set("kind", json::Value::string(std::string{to_string(*c.kind)}));
  for (const Field& f : c.fields) {
    if (!f.required) continue;
    Sample s = sample(f);
    // The positional comes first on the command line.
    argv.insert(f.flag.empty() ? argv.begin() + 1 : argv.end(),
                s.argv.begin(), s.argv.end());
    wire.set(std::string{f.json}, std::move(s.wire));
  }
  return {argv, wire};
}

std::string cli_error(const std::vector<std::string>& argv) {
  try {
    (void)serve::parse_args(argv);
  } catch (const serve::ProtocolError& e) {
    return e.what();
  }
  return "(accepted)";
}

std::string wire_error(const json::Value& wire) {
  try {
    (void)serve::parse_request(wire.dump());
  } catch (const serve::ProtocolError& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(RequestParity, DefaultsAreTheSameOnBothSurfaces) {
  for (const serve::Command* c : shared_commands()) {
    const auto [argv, wire] = minimal(*c);
    const serve::Request cli = serve::parse_args(argv);
    const serve::Request served = serve::parse_request(wire.dump());
    EXPECT_TRUE(cli == served)
        << c->name << ": " << serve::to_json(cli) << " vs "
        << serve::to_json(served);
  }
}

TEST(RequestParity, RangeErrorsAreTheSameOnBothSurfaces) {
  int checked = 0;
  for (const serve::Command* c : shared_commands()) {
    for (const Field& f : c->fields) {
      if (f.surface != Surface::Both) continue;
      if (f.type != FieldType::Int && f.type != FieldType::U64 &&
          f.type != FieldType::Size)
        continue;
      std::vector<std::uint64_t> outside;
      if (f.min > 0) outside.push_back(f.min - 1);
      if (f.max < std::numeric_limits<std::uint64_t>::max())
        outside.push_back(f.max + 1);
      for (const std::uint64_t v : outside) {
        SCOPED_TRACE(std::string{c->name} + " " + std::string{f.flag} + " " +
                     std::to_string(v));
        auto [argv, wire] = minimal(*c);
        argv.push_back(std::string{f.flag});
        argv.push_back(std::to_string(v));
        // The wire spells sizes in MiB: the neighbouring whole MiB.
        const std::uint64_t w =
            f.type != FieldType::Size ? v : v < f.min ? 0 : (f.max >> 20) + 1;
        wire.set(std::string{f.json}, json::Value::number(w));
        const std::string message = cli_error(argv);
        EXPECT_NE(message, "(accepted)");
        EXPECT_NE(message.find(f.json), std::string::npos) << message;
        EXPECT_EQ(message, wire_error(wire));
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 20);
}

TEST(RequestParity, ToJsonRoundTripsEveryServedRow) {
  for (const serve::Command* c : shared_commands()) {
    std::vector<std::string> argv{std::string{c->name}};
    for (const Field& f : c->fields) {
      if (f.surface != Surface::Both) continue;
      const Sample s = sample(f);
      argv.insert(f.flag.empty() ? argv.begin() + 1 : argv.end(),
                  s.argv.begin(), s.argv.end());
    }
    const serve::Request cli = serve::parse_args(argv);
    const std::string line = serve::to_json(cli);
    EXPECT_TRUE(serve::parse_request(line) == cli) << c->name << ": " << line;
  }
}

// Rows the CLI alone takes are unknown fields on the wire (a one-row edit
// offers one there).
TEST(RequestParity, ServeRejectsCliOnlyRows) {
  for (const serve::Command* c : shared_commands()) {
    for (const Field& f : c->fields) {
      if (f.surface != Surface::Cli) continue;
      json::Value wire = minimal(*c).second;
      wire.set(std::string{f.json}, sample(f).wire);
      EXPECT_EQ(wire_error(wire),
                "unknown field '" + std::string{f.json} + "'");
    }
  }
}

TEST(ParseArgs, ForeignFlagsAreUsageErrors) {
  for (const std::vector<std::string>& argv :
       std::vector<std::vector<std::string>>{
           {"lint", "March C", "--inject"},
           {"lint", "March C", "--samples", "5"},
           {"coverage", "MATS", "--chip", "nonexistent"},
           {"coverage", "MATS", "--huge-pages"},
           {"soc", "--size", "4M"},
           {"soc", "positional"},
           {"list", "--addr-bits", "4"},
           {"frobnicate"},
       })
    EXPECT_THROW((void)serve::parse_args(argv), serve::ProtocolError)
        << argv[0] << " " << argv.back();
}

TEST(ParseArgs, NumbersAreStrict) {
  for (const char* bad : {"abc", "4x", "-1", "", "99999999999999999999"})
    EXPECT_THROW(
        (void)serve::parse_args({"coverage", "MATS", "--addr-bits", bad}),
        serve::ProtocolError)
        << bad;
  EXPECT_THROW((void)serve::parse_args({"coverage", "MATS", "--addr-bits"}),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_args({"coverage"}), serve::ProtocolError);
  EXPECT_EQ(serve::parse_args({"coverage", "MATS", "--addr-bits", "12"})
                .geometry.address_bits,
            12);
}

TEST(ParseArgs, CoverageFaultSelectsClasses) {
  const auto req = serve::parse_args(
      {"coverage", "MATS", "--fault", "SAF", "--fault", "TF"});
  EXPECT_EQ(req.fault_classes, (std::vector<std::string>{"SAF", "TF"}));
  EXPECT_TRUE(serve::parse_request(
                  R"({"id":"cli","kind":"campaign","algorithm":"MATS",)"
                  R"("classes":["SAF","TF"]})") == req);
}

TEST(ParseArgs, FilesAreReadIntoTheInlineFields) {
  const std::string chip = temp_file("chip", "soc x\n");
  const auto soc = serve::parse_args({"soc", "--chip", chip});
  EXPECT_EQ(soc.chip, "soc x\n");
  EXPECT_THROW((void)serve::parse_args({"soc", "--chip", chip + ".missing"}),
               serve::ProtocolError);
  // A missing chip is the CLI's built-in demo, not an error.
  EXPECT_TRUE(serve::parse_args({"soc"}).chip.empty());

  // lint's positional is a path when it opens (the unit names it), else
  // inline text; --against likewise.
  const std::string march = temp_file("march", "any(w0); any(r0)\n");
  const auto file = serve::parse_args({"lint", march, "--against", march});
  EXPECT_EQ(file.input, "any(w0); any(r0)\n");
  EXPECT_EQ(file.unit, march);
  EXPECT_EQ(file.against, file.input);
  const auto text = serve::parse_args({"lint", "March C"});
  EXPECT_EQ(text.input, "March C");
  EXPECT_EQ(text.unit, "input");
}

TEST(ParseArgs, MemtestSizeIsOneByteCountOnBothSurfaces) {
  const auto cli = serve::parse_args({"memtest", "--size", "64M"});
  EXPECT_EQ(cli.size_bytes, 64ull << 20);
  EXPECT_EQ(cli.backend, backend::BackendKind::HostRam);
  EXPECT_TRUE(serve::parse_request(serve::to_json(cli)) == cli);
  EXPECT_EQ(serve::parse_args({"memtest", "--size", "4K"}).size_bytes, 4096u);
  EXPECT_THROW((void)serve::parse_args({"memtest", "--size", "17G"}),
               serve::ProtocolError);
  // The wire carries whole MiB: a size that is not one cannot be sent
  // (rounding would test another size); a whole one goes out exactly.
  for (const char* size : {"4K", "1536K", "1048575"}) {
    const auto sub = serve::parse_args(
        {"submit", "--req", "memtest", "--size", size, "--port", "7"});
    EXPECT_THROW((void)serve::to_json(sub), serve::ProtocolError) << size;
  }
  const auto whole = serve::parse_args(
      {"submit", "--req", "memtest", "--size", "2048K", "--port", "7"});
  EXPECT_EQ(json::Value::parse(serve::to_json(whole)).find("size_mb")->as_u64(),
            2u);
}

TEST(ParseArgs, OneMemoryCommandsLeaveThePortBoundToTheEngine) {
  EXPECT_EQ(serve::parse_args({"run", "MATS", "--ports", "65536"})
                .geometry.num_ports,
            65536);
  EXPECT_THROW((void)serve::parse_args({"coverage", "MATS", "--ports", "5"}),
               serve::ProtocolError);
}

TEST(ParseArgs, SubmitSendsTheServedRowsOfItsKind) {
  const auto mem = serve::parse_args({"submit", "--req", "memtest", "--size",
                                      "4M", "--port", "7", "--id", "m"});
  EXPECT_EQ(mem.kind, serve::RequestKind::Memtest);
  EXPECT_EQ(mem.port, 7);
  const auto line = json::Value::parse(serve::to_json(mem));
  EXPECT_EQ(line.find("id")->as_string(), "m");
  EXPECT_EQ(line.find("size_mb")->as_u64(), 4u);
  EXPECT_EQ(line.find("port"), nullptr);

  const auto cancel = serve::parse_args({"submit", "s1", "--req", "cancel"});
  EXPECT_EQ(cancel.target, "s1");
  EXPECT_EQ(serve::parse_args({"submit", "March C", "--port", "1"}).kind,
            serve::RequestKind::Lint);
  // CLI-only rows of the kind are not sendable, and the kind must exist.
  EXPECT_THROW((void)serve::parse_args(
                   {"submit", "--req", "soc", "--emit-schedule", "x"}),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_args({"submit", "--req", "frobnicate"}),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_args({"submit", "--req", "campaign"}),
               serve::ProtocolError);  // no algorithm
}

}  // namespace
