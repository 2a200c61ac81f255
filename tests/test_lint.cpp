// The static verifier (`pmbist lint`).
//
// The acceptance-critical suite is ProverVsQualifier: for every library
// algorithm and every provable fault class, the lint prover's *guaranteed*
// verdict must coincide exactly with the exhaustive simulation-based
// qualifier (march::analyze) — the prover reasons structurally, the
// qualifier by brute force, and they may never disagree.  On top of that,
// guaranteed classes must show 100% detection in the sampled
// fault-simulation campaign.
//
// The rest pins the diagnostics engine, each lint pass on crafted inputs
// (including the on-disk corpus under tests/lint_cases/ that the CLI
// WILL_FAIL tests also run), input-kind sniffing, determinism, and the
// error-location contract of the assembler / compiler / image loaders.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "lint/cfg.h"

#include "common/directives.h"
#include "field/manager.h"
#include "field/profile.h"
#include "field/schedule_io.h"
#include "lint/certify.h"
#include "lint/chip_lint.h"
#include "lint/diagnostics.h"
#include "lint/driver.h"
#include "lint/equiv.h"
#include "lint/fix.h"
#include "lint/lifter.h"
#include "lint/march_lint.h"
#include "lint/profile_lint.h"
#include "lint/program_lint.h"
#include "lint/prover.h"
#include "march/analysis.h"
#include "march/coverage.h"
#include "march/kernel.h"
#include "march/library.h"
#include "march/parser.h"
#include "mbist_pfsm/compiler.h"
#include "mbist_ucode/assembler.h"
#include "soc/chip.h"
#include "soc/chip_json.h"
#include "soc/schedule_io.h"
#include "soc/scheduler.h"

namespace {

using namespace pmbist;

std::string read_case(const std::string& name) {
  const std::string path =
      std::string{PMBIST_SOURCE_DIR} + "/tests/lint_cases/" + name;
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

lint::Report lint_case(const std::string& name) {
  return lint::lint_text(read_case(name), name);
}

std::string read_repo_file(const std::string& rel) {
  const std::string path = std::string{PMBIST_SOURCE_DIR} + "/" + rel;
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Prover vs the exhaustive qualifier and the fault-simulation campaign.

TEST(Prover, AgreesWithQualifierOnEveryLibraryAlgorithm) {
  for (const auto& alg : march::all_algorithms()) {
    const auto proof = lint::prove_coverage(alg);
    for (const auto cls : lint::provable_classes()) {
      const auto* p = proof.find(cls);
      ASSERT_NE(p, nullptr) << alg.name();
      const bool qualified =
          march::analyze(alg, cls) == march::Detection::Guaranteed;
      EXPECT_EQ(p->guaranteed, qualified)
          << alg.name() << " / " << memsim::fault_class_name(cls)
          << ": prover says " << (p->guaranteed ? "guaranteed" : "partial")
          << " (" << p->detail << ") but the exhaustive qualifier says "
          << (qualified ? "guaranteed" : "not guaranteed");
    }
  }
}

TEST(Prover, GuaranteedClassesReachFullSimulatedCoverage) {
  const memsim::MemoryGeometry geometry{.address_bits = 4,
                                        .word_bits = 1,
                                        .num_ports = 1};
  // The prover is pinned against the campaign under BOTH kernels: a static
  // "guaranteed" that either the scalar reference or the packed PPSFP
  // engine fails to reproduce is a bug in one of the three.  The kernel is
  // carried per-evaluation (CoverageOptions::kernel) — no process state.
  for (const auto kernel :
       {march::CampaignKernel::Scalar, march::CampaignKernel::Packed}) {
    for (const auto& alg : march::all_algorithms()) {
      const auto proof = lint::prove_coverage(alg);
      for (const auto& [cls, p] : proof.classes) {
        if (!p.guaranteed) continue;
        // LF is a composite class (pairs of coupling faults); the
        // campaign's per-class universes enumerate single faults only.
        if (cls == memsim::FaultClass::LF) continue;
        const auto cell = march::evaluate_coverage(
            alg, cls, geometry,
            {.seed = 7,
             .max_instances_per_class = 32,
             .jobs = 1,
             .kernel = kernel});
        ASSERT_GT(cell.total, 0) << alg.name();
        EXPECT_EQ(cell.detected, cell.total)
            << alg.name() << " / " << memsim::fault_class_name(cls)
            << " kernel=" << march::kernel_name(kernel)
            << ": proven guaranteed but the campaign missed instances";
      }
    }
  }
}

TEST(Prover, EveryProofCarriesAWitness) {
  const auto proof = lint::prove_coverage(march::mats());
  ASSERT_EQ(proof.classes.size(), lint::provable_classes().size());
  for (const auto& [cls, p] : proof.classes)
    EXPECT_FALSE(p.detail.empty()) << memsim::fault_class_name(cls);
}

TEST(Prover, ExtendedClassesMatchTextbookVerdicts) {
  // Non-vacuity pins for the position-sensitive classes: the table below is
  // the known verdict per library algorithm (matching van de Goor and the
  // paper's Tables 1-2 — e.g. only the triple-read ++ variants and March SS
  // catch DRDF, and only the linked-fault tests catch LF), so a prover
  // regression that flips everything to "partial" (or to "guaranteed")
  // cannot slip past the agreement test above.
  const struct {
    const char* name;
    bool sof, drdf, lf;
  } table[] = {
      {"MATS", false, false, false},
      {"MATS+", false, false, false},
      {"MATS++", true, false, false},
      {"March X", false, false, false},
      {"March Y", true, false, false},
      {"March C", false, false, false},
      {"March C (orig)", false, false, false},
      {"March U", true, false, false},
      {"March LR", true, false, true},
      {"March A", false, false, true},
      {"March B", true, false, true},
      {"March SS", false, true, false},
      {"March G", true, false, true},
      {"March C+", true, false, false},
      {"March C++", true, true, false},
      {"March A+", true, false, true},
      {"March A++", true, true, true},
  };
  for (const auto& row : table) {
    SCOPED_TRACE(row.name);
    const auto proof = lint::prove_coverage(march::by_name(row.name));
    const auto guaranteed = [&proof](memsim::FaultClass cls) {
      const auto* p = proof.find(cls);
      EXPECT_NE(p, nullptr);
      return p != nullptr && p->guaranteed;
    };
    EXPECT_EQ(guaranteed(memsim::FaultClass::SOF), row.sof);
    EXPECT_TRUE(guaranteed(memsim::FaultClass::RDF));
    EXPECT_EQ(guaranteed(memsim::FaultClass::DRDF), row.drdf);
    EXPECT_EQ(guaranteed(memsim::FaultClass::LF), row.lf);
  }
}

// ---------------------------------------------------------------------------
// Translation validation: the round-trip gate lift(assemble(A)) == A /
// lift(compile(A)) == A over the whole library, on both architectures and
// both microcode encodings.

lint::LiftOptions lift_options(std::uint64_t pause_ns) {
  lint::LiftOptions options;
  if (pause_ns != 0) options.pause_ns = pause_ns;
  return options;
}

TEST(RoundTrip, EveryLibraryAlgorithmSurvivesUcodeAssembly) {
  for (const auto& alg : march::all_algorithms()) {
    for (const bool symmetric : {true, false}) {
      SCOPED_TRACE(alg.name() + (symmetric ? " (folded)" : " (unfolded)"));
      const auto r = mbist_ucode::assemble(
          alg, {.symmetric_encoding = symmetric, .emit_loop_tail = true});
      const auto lifted =
          lint::lift_ucode(r.program, lift_options(r.pause_ns));
      ASSERT_TRUE(lifted.ok) << lifted.why;
      EXPECT_TRUE(lifted.full_structure());
      const auto verdict = lint::check_equivalence(lifted, alg);
      EXPECT_EQ(verdict.kind, lint::EquivKind::Equivalent)
          << verdict.detail << "\n"
          << lifted.algorithm.to_string();
    }
  }
}

TEST(RoundTrip, EveryMappableAlgorithmSurvivesPfsmCompilation) {
  int mappable = 0;
  for (const auto& alg : march::all_algorithms()) {
    if (!mbist_pfsm::is_mappable(alg)) continue;
    ++mappable;
    SCOPED_TRACE(alg.name());
    const auto r = mbist_pfsm::compile(alg);
    const auto lifted = lint::lift_pfsm(r.program, lift_options(r.pause_ns));
    ASSERT_TRUE(lifted.ok) << lifted.why;
    EXPECT_TRUE(lifted.full_structure());
    const auto verdict = lint::check_equivalence(lifted, alg);
    EXPECT_EQ(verdict.kind, lint::EquivKind::Equivalent)
        << verdict.detail << "\n"
        << lifted.algorithm.to_string();
  }
  EXPECT_GT(mappable, 0);
}

TEST(RoundTrip, LoopTailAbsenceIsReportedNotFatal) {
  const auto alg = march::march_c();
  const auto r = mbist_ucode::assemble(alg, {.symmetric_encoding = true,
                                             .emit_loop_tail = false});
  const auto lifted = lint::lift_ucode(r.program);
  ASSERT_TRUE(lifted.ok) << lifted.why;
  EXPECT_FALSE(lifted.has_data_loop);
  EXPECT_FALSE(lifted.has_port_loop);
  EXPECT_FALSE(lifted.full_structure());
  // The single pass still applies March C, so equivalence holds.
  EXPECT_EQ(lint::check_equivalence(lifted, alg).kind,
            lint::EquivKind::Equivalent);
}

TEST(Equiv, CanonicalizeRewritesAnyToUp) {
  const auto canon = lint::canonicalize(march::march_c());
  for (const auto& e : canon.elements())
    EXPECT_NE(e.order, march::AddressOrder::Any);
  EXPECT_EQ(canon.name(), march::march_c().name());
}

TEST(Equiv, SeededMiscompilesAreRejectedWithATrace) {
  lint::LintOptions options;
  options.against = "March C";
  for (const char* file :
       {"repeat_bad_mask.ucode.hex", "dropped_element.ucode.hex"}) {
    SCOPED_TRACE(file);
    const auto report = lint::lint_text(read_case(file), file, options);
    EXPECT_TRUE(report.has_code("EQ02")) << lint::format_text(report);
    EXPECT_TRUE(report.has_errors());
    // The diagnostic embeds the counterexample op trace.
    const auto text = lint::format_text(report);
    EXPECT_NE(text.find("diverges"), std::string::npos) << text;
    EXPECT_NE(text.find("both apply"), std::string::npos) << text;
  }

  options.against = "MATS+";
  const auto swapped = lint::lint_text(read_case("swapped_order.pfsm.hex"),
                                       "swapped_order", options);
  EXPECT_TRUE(swapped.has_code("EQ02")) << lint::format_text(swapped);

  options.against = "March C";
  const auto unliftable = lint::lint_text(read_case("unliftable.ucode.hex"),
                                          "unliftable", options);
  EXPECT_TRUE(unliftable.has_code("EQ01")) << lint::format_text(unliftable);
  EXPECT_TRUE(unliftable.has_errors());
}

TEST(Equiv, FaithfulImagesProveEquivalent) {
  lint::LintOptions options;
  options.against = "March C";
  const auto hex = mbist_ucode::assemble(march::march_c()).program
                       .to_hex_text();
  const auto report = lint::lint_text(hex, "march_c", options);
  EXPECT_TRUE(report.has_code("EQ04")) << lint::format_text(report);
  EXPECT_FALSE(report.has_errors()) << lint::format_text(report);

  options.against = "MATS+";
  const auto pfsm_hex =
      mbist_pfsm::compile(march::mats_plus()).program.to_hex_text();
  const auto preport = lint::lint_text(pfsm_hex, "mats_plus", options);
  EXPECT_TRUE(preport.has_code("EQ04")) << lint::format_text(preport);
  EXPECT_FALSE(preport.has_errors()) << lint::format_text(preport);
}

TEST(Equiv, AgainstSourceMayBeInlineDsl) {
  lint::LintOptions options;
  options.against = "any(w0); up(r0,w1); up(r1,w0); down(r0,w1); "
                    "down(r1,w0); any(r0)";
  const auto hex = mbist_ucode::assemble(march::march_c()).program
                       .to_hex_text();
  const auto report = lint::lint_text(hex, "march_c", options);
  EXPECT_TRUE(report.has_code("EQ04")) << lint::format_text(report);
}

TEST(Equiv, MissingLoopTailWarnsEq03) {
  lint::LintOptions options;
  options.against = "March C";
  const auto hex = mbist_ucode::assemble(march::march_c(),
                                         {.symmetric_encoding = true,
                                          .emit_loop_tail = false})
                       .program.to_hex_text();
  const auto report = lint::lint_text(hex, "single_pass", options);
  EXPECT_TRUE(report.has_code("EQ03")) << lint::format_text(report);
  EXPECT_TRUE(report.has_code("EQ04")) << lint::format_text(report);
}

TEST(Equiv, AgainstMisusesAreEq00) {
  lint::LintOptions options;
  options.against = "March C";
  // --against a march algorithm input: nothing to lift.
  EXPECT_TRUE(lint::lint_text("March C", "m", options).has_code("EQ00"));
  // --against a chip file input.
  EXPECT_TRUE(lint::lint_text("soc x\nmem a addr_bits=4 seed=1\n", "c",
                              options)
                  .has_code("EQ00"));
  // An unresolvable source.
  options.against = "March Zeta";
  const auto hex = mbist_ucode::assemble(march::march_c()).program
                       .to_hex_text();
  EXPECT_TRUE(lint::lint_text(hex, "u", options).has_code("EQ00"));
}

// ---------------------------------------------------------------------------
// Mechanical autofix (`pmbist lint --fix`).

TEST(Fix, DropsUcodeDeadCodeAndRelintsClean) {
  auto program =
      mbist_ucode::MicrocodeProgram::from_hex_text(read_case(
          "dead_code.ucode.hex"));
  ASSERT_TRUE(lint::lint_ucode(program).has_errors());
  const auto before = program.instructions().size();
  const auto outcome = lint::fix_ucode(program);
  EXPECT_TRUE(outcome.changed);
  EXPECT_NE(outcome.summary.find("unreachable"), std::string::npos)
      << outcome.summary;
  EXPECT_LT(program.instructions().size(), before);
  EXPECT_TRUE(lint::lint_ucode(program).empty())
      << lint::format_text(lint::lint_ucode(program));
}

TEST(Fix, DropsPfsmUnusedTrailingRows) {
  auto compiled = mbist_pfsm::compile(march::mats_plus()).program;
  auto rows = compiled.instructions();
  mbist_pfsm::PfsmInstruction extra;  // an unused row after PORT_LOOP
  rows.push_back(extra);
  mbist_pfsm::PfsmProgram program{"padded", rows};
  ASSERT_FALSE(lint::lint_pfsm(program).empty());
  const auto outcome = lint::fix_pfsm(program);
  EXPECT_TRUE(outcome.changed);
  EXPECT_NE(outcome.summary.find("trailing"), std::string::npos)
      << outcome.summary;
  EXPECT_EQ(program.instructions().size(), compiled.instructions().size());
  EXPECT_TRUE(lint::lint_pfsm(program).empty());
}

TEST(Fix, FixPreservesTheLiftedAlgorithm) {
  auto program = mbist_ucode::MicrocodeProgram::from_hex_text(
      read_case("dead_code.ucode.hex"));
  const auto before = lint::lift_ucode(program);
  (void)lint::fix_ucode(program);
  const auto after = lint::lift_ucode(program);
  ASSERT_TRUE(before.ok && after.ok);
  EXPECT_EQ(before.algorithm.elements(), after.algorithm.elements());
}

TEST(Fix, FixTextHandlesEveryInputKind) {
  // A fixable image: rewritten text must parse and lint clean.
  const auto fixed = lint::fix_text(read_case("dead_code.ucode.hex"), "u");
  EXPECT_TRUE(fixed.changed);
  EXPECT_TRUE(lint::lint_text(fixed.text, "u").empty());

  // Already-clean images report no mechanical fix.
  const auto clean_hex =
      mbist_ucode::assemble(march::march_c()).program.to_hex_text();
  const auto clean = lint::fix_text(clean_hex, "u");
  EXPECT_FALSE(clean.changed);

  // Library algorithms are canonical; the march fixer never rewrites them.
  const auto march_fix = lint::fix_text("March C", "m");
  EXPECT_FALSE(march_fix.changed);
  EXPECT_NE(march_fix.summary.find("canonical"), std::string::npos)
      << march_fix.summary;

  // Profiles have no mechanical subset.
  const auto profile_fix =
      lint::fix_text("profile p\nwindow a start=0 end=10\n", "p");
  EXPECT_FALSE(profile_fix.changed);
  EXPECT_NE(profile_fix.summary.find("semantic"), std::string::npos)
      << profile_fix.summary;

  // Unparseable images are reported, not thrown.
  const auto broken =
      lint::fix_text("; pmbist microcode image v1\nxyz\n", "u");
  EXPECT_FALSE(broken.changed);
  EXPECT_NE(broken.summary.find("cannot fix"), std::string::npos)
      << broken.summary;
}

// ---------------------------------------------------------------------------
// Diagnostics engine.

TEST(Diagnostics, RegistryIsWellFormed) {
  EXPECT_GE(lint::all_codes().size(), 30u);
  for (const auto& info : lint::all_codes()) {
    EXPECT_EQ(info.code.size(), 4u) << info.code;
    EXPECT_FALSE(info.summary.empty()) << info.code;
    EXPECT_EQ(lint::find_code(info.code), &info);
    EXPECT_EQ(lint::severity_of(info.code), info.severity);
  }
  EXPECT_EQ(lint::find_code("ZZ99"), nullptr);
  EXPECT_EQ(lint::severity_of("ZZ99"), lint::Severity::Error);
}

TEST(Diagnostics, ReportCountsAndRenderers) {
  lint::Report report;
  report.add("MA03", "unit_a", 2, "impossible read", "fix the data");
  report.add("MA04", "unit_a", -1, "odd pause");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code("MA03"));
  EXPECT_FALSE(report.has_code("MA05"));
  EXPECT_EQ(report.count(lint::Severity::Error), 1);
  EXPECT_EQ(report.count(lint::Severity::Warning), 1);

  const auto text = lint::format_text(report);
  EXPECT_NE(text.find("error[MA03] unit_a:2: impossible read"),
            std::string::npos);
  EXPECT_NE(text.find("hint: fix the data"), std::string::npos);
  // index -1 renders without a :index segment.
  EXPECT_NE(text.find("warning[MA04] unit_a: odd pause"), std::string::npos);

  const auto json = lint::format_json(report);
  EXPECT_NE(json.find("\"code\":\"MA03\""), std::string::npos);
  EXPECT_NE(json.find("\"index\":2"), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST(Diagnostics, JsonEscapesSpecials) {
  lint::Report report;
  report.add("MA00", "a\"b\\c", -1, "line1\nline2");
  const auto json = lint::format_json(report);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// March pass.

TEST(MarchLint, CleanLibraryAlgorithmsHaveNoFindings) {
  for (const auto& alg : march::all_algorithms()) {
    const auto report = lint::lint_march(alg);
    EXPECT_FALSE(report.has_errors()) << alg.name() << "\n"
                                      << lint::format_text(report);
    // Every library algorithm guarantees SAF, so MA06 never fires.
    EXPECT_FALSE(report.has_code("MA06")) << alg.name();
    EXPECT_TRUE(report.has_code("MA05")) << alg.name();
  }
}

TEST(MarchLint, CraftedDefectsEmitTheirCodes) {
  const auto lint_dsl = [](const char* dsl) {
    return lint::lint_march(march::parse(dsl, "t"));
  };
  EXPECT_TRUE(lint_dsl("up(r0); up(w0)").has_code("MA01"));
  EXPECT_TRUE(lint_dsl("up(w0); down(w1)").has_code("MA02"));
  EXPECT_TRUE(lint_dsl("up(w0); up(r1)").has_code("MA03"));
  EXPECT_TRUE(lint_dsl("any(w0); pause(100ns); any(r0); pause(200ns); any(r0)")
                  .has_code("MA04"));
  EXPECT_TRUE(lint_dsl("up(w0); up(r0)").has_code("MA06"));
}

// ---------------------------------------------------------------------------
// Program passes (ucode + pFSM), including the on-disk corpus the CLI
// WILL_FAIL tests exercise end to end.

struct CorpusCase {
  const char* file;
  const char* code;
};

TEST(ProgramLint, CorpusCasesEmitTheirStableCodes) {
  const CorpusCase cases[] = {
      {"dead_code.ucode.hex", "UC03"},
      {"runs_off_end.ucode.hex", "UC04"},
      {"empty_repeat.ucode.hex", "UC05"},
      {"nested_repeat.ucode.hex", "UC05"},
      {"no_reads.ucode.hex", "UC06"},
      {"oversized.ucode.hex", "UC02"},
      {"deadlock.pfsm.hex", "PF04"},
      {"no_port_loop.pfsm.hex", "PF05"},
      {"dup_mem.chip", "CH01"},
      {"unknown_mem.chip", "CH03"},
      {"infeasible_power.chip", "CH07"},
      {"inconsistent.march", "MA03"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    const auto report = lint_case(c.file);
    EXPECT_TRUE(report.has_code(c.code)) << lint::format_text(report);
    EXPECT_TRUE(report.has_errors());
  }
}

TEST(ProgramLint, AssembledLibraryProgramsAreClean) {
  for (const auto& alg : march::all_algorithms()) {
    const auto r = mbist_ucode::assemble(alg);
    const auto report = lint::lint_ucode(r.program, {.storage_depth = 32});
    EXPECT_FALSE(report.has_errors()) << alg.name() << "\n"
                                      << lint::format_text(report);
    EXPECT_EQ(report.count(lint::Severity::Warning), 0)
        << alg.name() << "\n" << lint::format_text(report);
  }
}

TEST(ProgramLint, CompiledPfsmProgramsAreClean) {
  for (const auto& alg : march::all_algorithms()) {
    if (!mbist_pfsm::is_mappable(alg)) continue;
    const auto r = mbist_pfsm::compile(alg);
    const auto report = lint::lint_pfsm(r.program, {.buffer_depth = 16});
    EXPECT_FALSE(report.has_errors()) << alg.name() << "\n"
                                      << lint::format_text(report);
    EXPECT_EQ(report.count(lint::Severity::Warning), 0)
        << alg.name() << "\n" << lint::format_text(report);
  }
}

TEST(ProgramLint, RoundTripThroughHexTextIsClean) {
  const auto r = mbist_ucode::assemble(march::march_c());
  const auto again =
      mbist_ucode::MicrocodeProgram::from_hex_text(r.program.to_hex_text());
  EXPECT_EQ(again.image(), r.program.image());
  EXPECT_EQ(again.name(), r.program.name());
  EXPECT_TRUE(lint::lint_ucode(again).empty());

  const auto p = mbist_pfsm::compile(march::mats_plus());
  const auto pagain =
      mbist_pfsm::PfsmProgram::from_hex_text(p.program.to_hex_text());
  EXPECT_EQ(pagain.image(), p.program.image());
  EXPECT_EQ(pagain.name(), p.program.name());
  EXPECT_TRUE(lint::lint_pfsm(pagain).empty());
}

TEST(ProgramLint, Pf03ModeRangeIsApiOnlyAndDetected) {
  // The hex encoding holds the mode in 3 bits, so PF03 cannot appear from
  // any on-disk image — it guards programs built directly in C++.
  const auto* info = lint::find_code("PF03");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->api_only);

  mbist_pfsm::PfsmInstruction component;
  component.mode = 9;  // outside SM0..SM7
  mbist_pfsm::PfsmInstruction data_loop;
  data_loop.ctrl = true;
  mbist_pfsm::PfsmInstruction port_loop;
  port_loop.ctrl = true;
  port_loop.ctrl_op = true;
  const mbist_pfsm::PfsmProgram program{"bad_mode",
                                        {component, data_loop, port_loop}};
  const auto report = lint::lint_pfsm(program);
  EXPECT_TRUE(report.has_code("PF03")) << lint::format_text(report);
  EXPECT_TRUE(report.has_errors());
}

// ---------------------------------------------------------------------------
// Control-flow graph analysis (lint/cfg.h) and the CFG-based lifter: block
// recovery, dominator/loop structure, the LT rejection codes, and the
// strict-superset guarantee (every shape the old pattern-matcher accepted
// still lifts; body-equivalent shapes it rejected now lift too).

std::string ucode_hex(std::initializer_list<unsigned> words,
                      const char* name = "crafted") {
  std::string text = "; pmbist microcode image v1\n; name: ";
  text += name;
  text += '\n';
  char buf[8];
  for (const unsigned w : words) {
    std::snprintf(buf, sizeof buf, "%03x\n", w);
    text += buf;
  }
  return text;
}

mbist_ucode::MicrocodeProgram ucode_image(std::initializer_list<unsigned> w,
                                          const char* name = "crafted") {
  return mbist_ucode::MicrocodeProgram::from_hex_text(ucode_hex(w, name));
}

TEST(Cfg, RecoversBlocksDominatorsAndLoopsOfAssembledImages) {
  const auto r = mbist_ucode::assemble(march::march_c());
  const auto cfg = lint::build_ucode_cfg(r.program);
  EXPECT_TRUE(cfg.reducible());
  // Assembled images have no dead code: every instruction is reachable.
  for (std::size_t i = 0; i < cfg.reachable_insn.size(); ++i)
    EXPECT_TRUE(cfg.reachable_insn[i]) << "instruction " << i;
  // The entry block dominates everything; March C has cell loops, a data
  // loop and a port loop, so natural loops must have been recovered.
  ASSERT_FALSE(cfg.rpo.empty());
  const int entry = cfg.block_of[0];
  for (const int b : cfg.rpo) EXPECT_TRUE(cfg.dominates(entry, b));
  EXPECT_FALSE(cfg.loops.empty());
  for (const auto& loop : cfg.loops) {
    // Every loop body is dominated by its header (natural-loop property).
    for (const int b : loop.body) EXPECT_TRUE(cfg.dominates(loop.header, b));
  }
}

TEST(Cfg, EveryLibraryImageIsReducible) {
  for (const auto& alg : march::all_algorithms()) {
    for (const bool symmetric : {true, false}) {
      SCOPED_TRACE(alg.name() + (symmetric ? " (folded)" : " (unfolded)"));
      const auto r = mbist_ucode::assemble(
          alg, {.symmetric_encoding = symmetric, .emit_loop_tail = true});
      EXPECT_TRUE(lint::build_ucode_cfg(r.program).reducible());
    }
    if (!mbist_pfsm::is_mappable(alg)) continue;
    const auto p = mbist_pfsm::compile(alg);
    EXPECT_TRUE(lint::build_pfsm_cfg(p.program).reducible()) << alg.name();
  }
}

TEST(Cfg, SyntheticIrreducibleRegionIsFlagged) {
  // 0 -> {1, 2}, 1 -> {2}, 2 -> {1}: the 1 <-> 2 cycle has two entries, so
  // neither node dominates the other and no natural loop explains the
  // retreating edge.  No controller image can encode this shape (every
  // backward flow targets 0, 1 or the branch register, all of which
  // dominate their uses) — LT01 is pinned through the graph API instead.
  const auto cfg = lint::build_cfg({{1, 2}, {2}, {1}});
  EXPECT_FALSE(cfg.reducible());
  ASSERT_FALSE(cfg.irreducible_edges.empty());
  EXPECT_TRUE(cfg.loops.empty());
  const auto* info = lint::find_code("LT01");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->api_only);
  EXPECT_EQ(info->severity, lint::Severity::Error);

  // A self-loop with a second entry is still reducible (the header
  // dominates itself): 0 -> {1}, 1 -> {1, 2}, 2 -> {}.
  const auto self_loop = lint::build_cfg({{1}, {1, 2}, {}});
  EXPECT_TRUE(self_loop.reducible());
  ASSERT_EQ(self_loop.loops.size(), 1u);
}

TEST(Cfg, BranchValuesTrackLoopCellTargetsExactly) {
  // 141 (LOOP_SELF) saves branch = 1; 021/048 chain; 0b1 (LOOP_CELL) loops
  // back to the saved 1, not to its lexical predecessor.
  const auto program = ucode_image({0x141, 0x021, 0x048, 0x0b1, 0x380});
  const auto values = lint::ucode_branch_values(program.instructions());
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values[3], (std::vector<int>{1}));
  const auto succ = lint::ucode_successors(program.instructions());
  EXPECT_EQ(succ[3], (std::vector<int>{1, 4}));
}

TEST(Lifter, StrictSupersetFormsNowLift) {
  struct Form {
    const char* label;
    std::initializer_list<unsigned> words;
    const char* want;  // march DSL the image must realize
  };
  const Form forms[] = {
      // No-op NEXT padding between the data loop and the port loop.
      {"padded", {0x141, 0x121, 0x284, 0x000, 0x300}, "up(w0); up(r0)"},
      // A no-op cell loop (address stride) between two op groups.
      {"nop stride",
       {0x141, 0x001, 0x080, 0x121, 0x284, 0x300},
       "up(w0); up(r0)"},
      // A no-op LOOP_SELF sweep after the data loop.
      {"trailing sweep",
       {0x141, 0x121, 0x284, 0x100, 0x300},
       "up(w0); up(r0)"},
      // No-op padding falling into a masked Repeat row.
      {"masked repeat",
       {0x141, 0x121, 0x000, 0x19a, 0x284, 0x300},
       "up(w0); up(r0); down(r1)"},
  };
  for (const auto& f : forms) {
    SCOPED_TRACE(f.label);
    const auto lifted = lint::lift_ucode(ucode_image(f.words, f.label));
    ASSERT_TRUE(lifted.ok) << lifted.why;
    EXPECT_TRUE(lifted.full_structure());
    const auto verdict =
        lint::check_equivalence(lifted, march::parse(f.want, "want"));
    EXPECT_EQ(verdict.kind, lint::EquivKind::Equivalent)
        << verdict.detail << "\n"
        << lifted.algorithm.to_string();
    // The forms lint clean too: no structural error is left to report.
    EXPECT_FALSE(lint::lint_ucode(ucode_image(f.words, f.label)).has_errors());
  }
}

TEST(Lifter, RejectionsCarryStableCodes) {
  struct Case {
    const char* label;
    std::initializer_list<unsigned> words;
    const char* code;
  };
  const Case cases[] = {
      // Cell loop whose body re-runs the data-background loop row.
      {"body crosses control", {0x141, 0x121, 0x284, 0x048, 0x0b1}, "LT02"},
      // Nested Repeat livelocks the single repeat bit.
      {"livelock", {0x141, 0x121, 0x182, 0x182, 0x380}, "LT03"},
      // NEXT with addr-inc inside an op group.
      {"mid-element step", {0x141, 0x021, 0x0c9, 0x380}, "LT04"},
      // Real op falls into a control row without a cell loop.
      {"unclosed group", {0x141, 0x020, 0x380}, "LT05"},
      // Operation after the data-background loop.
      {"op after data loop", {0x141, 0x121, 0x284, 0x121, 0x380}, "LT06"},
      // Second data-background loop.
      {"second data loop", {0x141, 0x121, 0x284, 0x284, 0x380}, "LT07"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const auto program = ucode_image(c.words, c.label);
    const auto lifted = lint::lift_ucode(program);
    ASSERT_FALSE(lifted.ok);
    EXPECT_EQ(lifted.code, c.code) << lifted.why;
    EXPECT_FALSE(lifted.why.empty());
    // The structure pass routes the same code through the diagnostics
    // engine, so `--json` consumers can key on it.
    const auto report = lint::lint_ucode(program);
    EXPECT_TRUE(report.has_code(c.code)) << lint::format_text(report);
    EXPECT_TRUE(report.has_errors());
  }
}

TEST(Lifter, CellLoopRejectionComesWithBothPassTraces) {
  // After the data loop the branch register is stale (row 2): the cell
  // loop at row 4 loops back across the LOOP_DATA row, so the loop-back
  // pass cannot equal the first-cell pass.  The rejection names both.
  const auto program = ucode_image({0x141, 0x121, 0x284, 0x048, 0x0b1});
  const auto lifted = lint::lift_ucode(program);
  ASSERT_FALSE(lifted.ok);
  EXPECT_EQ(lifted.code, "LT02");
  ASSERT_EQ(lifted.trace.size(), 2u);
  EXPECT_NE(lifted.trace[0].find("first-cell pass"), std::string::npos)
      << lifted.trace[0];
  EXPECT_NE(lifted.trace[1].find("loop-back pass"), std::string::npos)
      << lifted.trace[1];
  // The trace reaches the rendered diagnostic.
  const auto text = lint::format_text(lint::lint_ucode(program));
  EXPECT_NE(text.find("first-cell pass"), std::string::npos) << text;
}

TEST(Lifter, RejectionCodeAndTraceFlowThroughEquiv) {
  const auto program = ucode_image({0x141, 0x121, 0x284, 0x048, 0x0b1});
  const auto lifted = lint::lift_ucode(program);
  ASSERT_FALSE(lifted.ok);
  const auto verdict = lint::check_equivalence(lifted, march::march_c());
  EXPECT_EQ(verdict.kind, lint::EquivKind::Unliftable);
  EXPECT_EQ(verdict.code, lifted.code);
  EXPECT_EQ(verdict.trace, lifted.trace);

  lint::LintOptions options;
  options.against = "March C";
  const auto report = lint::lint_text(program.to_hex_text(), "u", options);
  EXPECT_TRUE(report.has_code("EQ01")) << lint::format_text(report);
  const auto text = lint::format_text(report);
  EXPECT_NE(text.find("not liftable"), std::string::npos) << text;
  EXPECT_NE(text.find("LT02"), std::string::npos) << text;
}

TEST(ProgramLint, UnreachableBlockIsLt00AndFixRemovesItExactly) {
  // Row 3 sits after TERMINATE: a whole basic block no flow edge reaches.
  auto program = ucode_image({0x141, 0x121, 0x380, 0x048});
  const auto report = lint::lint_ucode(program);
  EXPECT_TRUE(report.has_code("LT00")) << lint::format_text(report);
  EXPECT_TRUE(report.has_code("UC03")) << lint::format_text(report);

  const auto before = lint::lift_ucode(program);
  ASSERT_TRUE(before.ok) << before.why;
  const auto outcome = lint::fix_ucode(program);
  EXPECT_TRUE(outcome.changed);
  EXPECT_EQ(program.size(), 3);
  const auto after = lint::lift_ucode(program);
  ASSERT_TRUE(after.ok) << after.why;
  EXPECT_EQ(before.algorithm.elements(), after.algorithm.elements());
  EXPECT_FALSE(lint::lint_ucode(program).has_code("LT00"));
  EXPECT_FALSE(lint::lint_ucode(program).has_code("UC03"));
}

TEST(ProgramLint, HandwrittenExamplesLintLiftValidateAndFixCleanly) {
  struct Example {
    const char* file;
    const char* want;  // march DSL the image must realize
  };
  const Example examples[] = {
      {"examples/handwritten_padded.ucode.hex", "up(w0); up(r0)"},
      {"examples/handwritten_nop_stride.ucode.hex", "up(w0); up(r0)"},
      {"examples/handwritten_trailing_sweep.ucode.hex", "up(w0); up(r0)"},
      {"examples/handwritten_masked_repeat.ucode.hex",
       "up(w0); up(r0); down(r1)"},
  };
  for (const auto& ex : examples) {
    SCOPED_TRACE(ex.file);
    const auto text = read_repo_file(ex.file);
    // Lints without errors (UC08 no-op-sweep warnings are the point of the
    // shapes and stay warnings).
    const auto report = lint::lint_text(text, ex.file);
    EXPECT_FALSE(report.has_errors()) << lint::format_text(report);

    // Lifts to the documented algorithm with full loop structure.
    auto program = mbist_ucode::MicrocodeProgram::from_hex_text(text);
    const auto lifted = lint::lift_ucode(program);
    ASSERT_TRUE(lifted.ok) << lifted.why;
    EXPECT_TRUE(lifted.full_structure());
    EXPECT_EQ(lint::check_equivalence(lifted, march::parse(ex.want, "want"))
                  .kind,
              lint::EquivKind::Equivalent)
        << lifted.algorithm.to_string();

    // `--against` validation goes through the driver end to end.
    lint::LintOptions options;
    options.against = ex.want;
    const auto against = lint::lint_text(text, ex.file, options);
    EXPECT_TRUE(against.has_code("EQ04")) << lint::format_text(against);
    EXPECT_FALSE(against.has_errors()) << lint::format_text(against);

    // --fix round-trip under the semantic-diff guarantee: every row is
    // reachable (CFG-exact removal finds nothing), the no-op-sweep fixer
    // may compact the padding, and the lifted algorithm must survive.
    const auto outcome = lint::fix_ucode(program);
    EXPECT_EQ(outcome.summary.find("unreachable"), std::string::npos)
        << outcome.summary;
    const auto after = lint::lift_ucode(program);
    ASSERT_TRUE(after.ok) << after.why;
    EXPECT_EQ(lifted.algorithm.elements(), after.algorithm.elements());
    EXPECT_FALSE(lint::lint_ucode(program).has_errors())
        << lint::format_text(lint::lint_ucode(program));
  }
}

TEST(Diagnostics, LtRegistryEntriesAreWellFormed) {
  for (const char* code :
       {"LT00", "LT02", "LT03", "LT04", "LT05", "LT06", "LT07"}) {
    const auto* info = lint::find_code(code);
    ASSERT_NE(info, nullptr) << code;
    EXPECT_EQ(info->severity, lint::Severity::Error) << code;
    EXPECT_FALSE(info->api_only) << code;
  }
}

// ---------------------------------------------------------------------------
// Chip pass on the shipped example.

TEST(ChipLint, DemoChipHasNoErrors) {
  std::ifstream in{std::string{PMBIST_SOURCE_DIR} +
                   "/examples/soc_demo.chip"};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const auto report = lint::lint_chip_text(text.str(), "soc_demo.chip");
  EXPECT_FALSE(report.has_errors()) << lint::format_text(report);
  // The demo deliberately pairs a TF defect with MATS+ (TF not guaranteed)
  // to exercise repair; the linter calls that out as an escape warning.
  EXPECT_TRUE(report.has_code("CH11")) << lint::format_text(report);
}

// ---------------------------------------------------------------------------
// Profile lint: FP00-FP06 on crafted inputs and the on-disk corpus.

TEST(ProfileLint, ParseErrorBecomesFP00) {
  const auto report =
      lint::lint_profile_text("profile p\nwindow m start=5\n", "t");
  EXPECT_TRUE(report.has_code("FP00")) << lint::format_text(report);
  EXPECT_TRUE(report.has_errors());
}

TEST(ProfileLint, CorpusCasesFireTheirStableCodes) {
  const auto overlap = lint::lint_profile_text(read_case("overlap.profile"),
                                               "overlap.profile");
  EXPECT_TRUE(overlap.has_code("FP01")) << lint::format_text(overlap);

  const auto zero = lint::lint_profile_text(read_case("zero_width.profile"),
                                            "zero_width.profile");
  EXPECT_TRUE(zero.has_code("FP02")) << lint::format_text(zero);

  const auto bus = lint::lint_profile_text(read_case("bus_zero.profile"),
                                           "bus_zero.profile");
  EXPECT_TRUE(bus.has_code("FP03")) << lint::format_text(bus);
}

TEST(ProfileLint, ChipCrossChecksFindUnknownAndUntestedMemories) {
  std::ifstream in{std::string{PMBIST_SOURCE_DIR} + "/examples/soc_demo.chip"};
  ASSERT_TRUE(in.good());
  std::ostringstream chip;
  chip << in.rdbuf();

  const auto report = lint::lint_profile_text(
      read_case("unknown_mem.profile"), "unknown_mem.profile", chip.str());
  // l3_cache is not a chip memory; every chip memory except icache has no
  // usable window at all.
  EXPECT_TRUE(report.has_code("FP04")) << lint::format_text(report);
  EXPECT_TRUE(report.has_code("FP05")) << lint::format_text(report);
  EXPECT_TRUE(report.has_errors());

  // Without the chip file the same profile is clean: cross-checks need it.
  const auto alone = lint::lint_profile_text(read_case("unknown_mem.profile"),
                                             "unknown_mem.profile");
  EXPECT_FALSE(alone.has_errors()) << lint::format_text(alone);
}

TEST(ProfileLint, WindowBeyondHorizonWarnsFP06) {
  const auto report = lint::lint_profile_text(
      "profile p\nhorizon 100\nwindow m start=100 end=200\n", "t");
  EXPECT_TRUE(report.has_code("FP06")) << lint::format_text(report);
  EXPECT_FALSE(report.has_errors()) << lint::format_text(report);
}

TEST(ProfileLint, DemoProfileIsCleanAgainstDemoChip) {
  std::ifstream chip_in{std::string{PMBIST_SOURCE_DIR} +
                        "/examples/soc_demo.chip"};
  std::ifstream prof_in{std::string{PMBIST_SOURCE_DIR} +
                        "/examples/soc_demo.profile"};
  ASSERT_TRUE(chip_in.good());
  ASSERT_TRUE(prof_in.good());
  std::ostringstream chip, prof;
  chip << chip_in.rdbuf();
  prof << prof_in.rdbuf();

  const auto report =
      lint::lint_profile_text(prof.str(), "soc_demo.profile", chip.str());
  EXPECT_TRUE(report.empty()) << lint::format_text(report);
}

TEST(ProfileLint, DriverRoutesProfilesAndRejectsAgainst) {
  // The generic driver sniffs profiles and runs the same pass.
  const auto report = lint::lint_text(read_case("overlap.profile"),
                                      "overlap.profile");
  EXPECT_TRUE(report.has_code("FP01")) << lint::format_text(report);

  // Equivalence checking is a march-only feature.
  lint::LintOptions options;
  options.against = "March C";
  const auto eq = lint::lint_text(read_case("overlap.profile"),
                                  "overlap.profile", options);
  EXPECT_TRUE(eq.has_code("EQ00")) << lint::format_text(eq);
}

// ---------------------------------------------------------------------------
// Driver: sniffing, never-throws, determinism.

TEST(Driver, DetectsEveryInputKind) {
  EXPECT_EQ(lint::detect_kind("March C"), lint::InputKind::March);
  EXPECT_EQ(lint::detect_kind("up(w0); up(r0)"), lint::InputKind::March);
  EXPECT_EQ(lint::detect_kind("# comment\nsoc x\nmem a addr_bits=4 seed=1\n"),
            lint::InputKind::Chip);
  EXPECT_EQ(lint::detect_kind("; pmbist microcode image v1\n141\n"),
            lint::InputKind::UcodeImage);
  EXPECT_EQ(lint::detect_kind("; pmbist pfsm image v1\n000\n"),
            lint::InputKind::PfsmImage);
  EXPECT_EQ(lint::detect_kind("profile p\nwindow m start=0 end=9\n"),
            lint::InputKind::Profile);
  EXPECT_EQ(lint::detect_kind("# idle spans\nbus_budget 2\n"),
            lint::InputKind::Profile);
  EXPECT_EQ(lint::detect_kind("{\"soc\":\"x\"}"), lint::InputKind::Chip);
  EXPECT_EQ(lint::detect_kind("schedule s\nsession a start=0 load=1 test=2\n"),
            lint::InputKind::SocSchedule);
  EXPECT_EQ(lint::detect_kind("# emitted\nfieldschedule f\n"),
            lint::InputKind::FieldSchedule);
  EXPECT_EQ(lint::detect_kind(""), lint::InputKind::March);
}

TEST(Driver, ChipStartingWithPowerModelIsAChip) {
  // Every chip directive selects the chip pass, `power_model` included
  // (not the march pass, which would answer MA00 ... got 'power').
  const std::string text = read_case("power_model.chip");
  EXPECT_EQ(lint::detect_kind(text), lint::InputKind::Chip);
  const auto report = lint_case("power_model.chip");
  EXPECT_FALSE(report.has_code("MA00")) << lint::format_text(report);
  EXPECT_FALSE(report.has_errors()) << lint::format_text(report);
}

TEST(Driver, EveryDeclaredDirectiveSelectsItsFormat) {
  // The grammars of docs/SOC.md and docs/FIELD.md, and each format's
  // declared set (the one its parser reads) is exactly that grammar.
  struct Format {
    lint::InputKind kind;
    const common::DirectiveFormat* declared;
    std::vector<std::string> documented;
  };
  const Format formats[] = {
      {lint::InputKind::Chip, &soc::kChipFormat,
       {"soc", "power_budget", "power_model", "mem", "fault", "assign"}},
      {lint::InputKind::Profile, &field::kProfileFormat,
       {"profile", "horizon", "bus_budget", "window"}},
      {lint::InputKind::SocSchedule, &soc::kScheduleFormat,
       {"schedule", "session"}},
      {lint::InputKind::FieldSchedule, &field::kFieldScheduleFormat,
       {"fieldschedule", "fsession"}},
  };
  for (const auto& f : formats) {
    EXPECT_EQ(std::vector<std::string>(f.declared->directives.begin(),
                                       f.declared->directives.end()),
              f.documented);
    for (const auto word : f.declared->directives) {
      const std::string w{word};
      EXPECT_EQ(lint::detect_kind(w + " x\n"), f.kind) << w;
      EXPECT_EQ(lint::detect_kind("# header\n\n  " + w + " x y=1\n"), f.kind)
          << w;
      // A broken quote later on the line is the parser's to report.
      EXPECT_EQ(lint::detect_kind(w + " \"x\n"), f.kind) << w;
    }
  }
}

TEST(Driver, QuotedNamesKeepTheirLines) {
  // Lines come from the lexed records, so quoted names are unquoted
  // there as in the parser: CH01 names 'a', and CH08 and FP02 find the
  // line of a quoted memory.
  const auto dup = lint::lint_chip_text(
      "soc t\nmem \"a\" addr_bits=4\nmem \"a\" addr_bits=4\n", "u");
  ASSERT_TRUE(dup.has_code("CH01")) << lint::format_text(dup);
  EXPECT_EQ(dup.diagnostics()[0].message,
            "duplicate memory instance 'a' (first declared on line 2)");
  EXPECT_EQ(dup.diagnostics()[0].index, 3);

  const auto unassigned = lint::lint_chip_text(
      "soc t\nmem a addr_bits=4\nmem \"b\" addr_bits=4\n"
      "assign a \"March C\" ucode\n",
      "u");
  ASSERT_TRUE(unassigned.has_code("CH08")) << lint::format_text(unassigned);
  for (const auto& d : unassigned.diagnostics()) {
    if (d.code == "CH08") {
      EXPECT_EQ(d.index, 3) << lint::format_text(unassigned);
    }
  }

  const auto empty = lint::lint_profile_text(
      "profile p\nwindow a start=0 end=9\nwindow \"b\" start=5 end=5\n", "u");
  ASSERT_TRUE(empty.has_code("FP02")) << lint::format_text(empty);
  EXPECT_EQ(empty.diagnostics()[0].index, 3) << lint::format_text(empty);
}

TEST(Driver, MalformedInputsBecomeParseDiagnosticsNotThrows) {
  EXPECT_TRUE(lint::lint_text("n@t a march", "u").has_code("MA00"));
  EXPECT_TRUE(lint::lint_text("; pmbist microcode image v1\nxyz\n", "u")
                  .has_code("UC00"));
  EXPECT_TRUE(lint::lint_text("; pmbist pfsm image v1\nzzz\n", "u")
                  .has_code("PF00"));
  EXPECT_TRUE(lint::lint_text("soc x\nfrobnicate\n", "u").has_code("CH02"));
}

TEST(Driver, MarchFilesMayCarryHashComments) {
  const auto report = lint::lint_text(
      "# March C in a file\nany(w0); up(r0,w1); up(r1,w0);\n"
      "down(r0,w1); down(r1,w0); any(r0)  # trailing comment\n",
      "commented.march");
  EXPECT_FALSE(report.has_errors()) << lint::format_text(report);
  EXPECT_TRUE(report.has_code("MA05"));
}

TEST(Driver, ReportsAreDeterministic) {
  const char* inputs[] = {
      "March C",
      "up(w0); up(r1)",
      "; pmbist microcode image v1\n141\n121\n",
      "soc x\nmem a addr_bits=4 seed=1\nassign b \"March C\" ucode\n",
  };
  for (const char* text : inputs) {
    const auto a = lint::lint_text(text, "unit");
    const auto b = lint::lint_text(text, "unit");
    EXPECT_EQ(a, b) << text;
  }
}

TEST(Driver, HonorsDepthOptions) {
  const std::string image = read_case("oversized.ucode.hex");
  lint::LintOptions options;
  options.storage_depth = 32;
  EXPECT_TRUE(lint::lint_text(image, "u", options).has_code("UC02"));
  options.storage_depth = 64;
  EXPECT_FALSE(lint::lint_text(image, "u", options).has_code("UC02"));

  const auto p = mbist_pfsm::compile(march::mats_plus());
  const auto hex = p.program.to_hex_text();
  options.buffer_depth = 4;
  EXPECT_TRUE(lint::lint_text(hex, "u", options).has_code("PF02"));
  options.buffer_depth = 16;
  EXPECT_FALSE(lint::lint_text(hex, "u", options).has_code("PF02"));
}

// ---------------------------------------------------------------------------
// Error-location contract: assembler, compiler and image loaders name the
// offending instruction / element / line.

TEST(ErrorLocations, AssemblerNamesThePauseElement) {
  const auto alg =
      march::parse("any(w0); pause(100ns); any(r0); pause(200ns); any(r0)",
                   "mixed_pauses");
  try {
    (void)mbist_ucode::assemble(alg);
    FAIL() << "expected AssembleError";
  } catch (const mbist_ucode::AssembleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("element 3"), std::string::npos) << what;
    EXPECT_NE(what.find("200ns"), std::string::npos) << what;
    EXPECT_NE(what.find("100ns"), std::string::npos) << what;
  }
}

TEST(ErrorLocations, PfsmCompilerNamesTheElement) {
  const auto alg =
      march::parse("pause(5ns); any(w0); any(r0)", "leading_pause");
  try {
    (void)mbist_pfsm::compile(alg);
    FAIL() << "expected CompileError";
  } catch (const mbist_pfsm::CompileError& e) {
    EXPECT_NE(std::string{e.what()}.find("element 0"), std::string::npos)
        << e.what();
  }
}

TEST(ErrorLocations, ImageLoadersNameInstructionAndLine) {
  try {
    (void)mbist_ucode::MicrocodeProgram::from_hex_text(
        "; pmbist microcode image v1\n141\nxyz\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
  }
  try {
    // 0x3e0: rw field 11 is reserved -> decode error on instruction 1.
    (void)mbist_ucode::MicrocodeProgram::from_image("bad", {0x141, 0x3e0});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("instruction 1"), std::string::npos)
        << e.what();
  }
  try {
    // 0x3ff exceeds the 9-bit pFSM encoding -> decode error, line named.
    (void)mbist_pfsm::PfsmProgram::from_hex_text(
        "; pmbist pfsm image v1\n000\n3ff\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("instruction 1"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(ErrorLocations, LoadersAgreeOnTruncatedInput) {
  // The two hex loaders word their truncation errors identically modulo the
  // architecture token, so tooling that pattern-matches loader errors works
  // on both.  Pinned here; the messages live in the loaders' tails.
  const auto message = [](auto&& load) -> std::string {
    try {
      load();
      ADD_FAILURE() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  };
  const auto unify = [](std::string s, const char* token) {
    const auto at = s.find(token);
    EXPECT_NE(at, std::string::npos) << s;
    if (at != std::string::npos) s.replace(at, std::string{token}.size(), "*");
    return s;
  };

  // Truncated before the header line.
  const auto u_header = message([] {
    (void)mbist_ucode::MicrocodeProgram::from_hex_text("141\n");
  });
  const auto p_header = message([] {
    (void)mbist_pfsm::PfsmProgram::from_hex_text("000\n");
  });
  EXPECT_EQ(unify(u_header, "microcode"), unify(p_header, "pfsm"))
      << u_header << "\nvs\n" << p_header;
  EXPECT_NE(u_header.find("1 line(s)"), std::string::npos) << u_header;

  // Truncated after the header line (no instructions survive).
  const auto u_empty = message([] {
    (void)mbist_ucode::MicrocodeProgram::from_hex_text(
        "; pmbist microcode image v1\n");
  });
  const auto p_empty = message([] {
    (void)mbist_pfsm::PfsmProgram::from_hex_text("; pmbist pfsm image v1\n");
  });
  EXPECT_EQ(u_empty, p_empty) << u_empty << "\nvs\n" << p_empty;
  EXPECT_EQ(u_empty, "image has no instructions (1 line(s) scanned)");
}

// ---------------------------------------------------------------------------
// Schedule certificates: the independent checker (lint/certify.h), the
// .schedule/.fieldsched formats, and the driver routing behind
// `pmbist lint --certify`.

soc::ChipFile example_chip() {
  return soc::parse_chip(read_repo_file("examples/soc_demo.chip"));
}

field::MissionProfile example_profile() {
  return field::parse_profile_text(
      read_repo_file("examples/soc_demo.profile"));
}

TEST(Certify, ComputedSocScheduleIsClean) {
  const auto chip = example_chip();
  const auto schedule =
      soc::Scheduler{}.compute_schedule(chip.description, chip.plan);
  ASSERT_FALSE(schedule.empty());
  const auto report =
      lint::certify_soc(chip.description, chip.plan, schedule);
  EXPECT_TRUE(report.empty()) << lint::format_text(report);
}

TEST(Certify, FoldedRetestScheduleIsClean) {
  // fold_retests queues the BISR second passes as scheduled sessions; the
  // certifier must accept them (including the retest-after-first-pass
  // precedence it checks for SC07).
  const auto chip = example_chip();
  const auto result = soc::run_soc(chip.description, chip.plan,
                                   {.jobs = 1, .fold_retests = true});
  bool any_retest = false;
  for (const auto& s : result.schedule) any_retest |= s.retest;
  EXPECT_TRUE(any_retest) << "demo chip should trigger BISR retests";
  const auto report =
      lint::certify_soc(chip.description, chip.plan, result.schedule);
  EXPECT_TRUE(report.empty()) << lint::format_text(report);
}

TEST(Certify, SeededSocCorruptionsFireTheirCodes) {
  const auto chip = example_chip();
  const auto base = soc::schedule_entries(
      soc::Scheduler{}.compute_schedule(chip.description, chip.plan));
  ASSERT_GE(base.size(), 8u);

  const auto certify = [&](std::vector<soc::ScheduleEntry> entries) {
    return lint::certify_soc(chip.description, chip.plan, entries);
  };
  const auto at = [&](const std::string& mem) -> std::size_t {
    for (std::size_t i = 0; i < base.size(); ++i)
      if (base[i].memory == mem) return i;
    ADD_FAILURE() << mem << " not scheduled";
    return 0;
  };

  // SC01: a session for a memory the chip does not have.
  auto unknown = base;
  unknown[0].memory = "phantom";
  EXPECT_TRUE(certify(unknown).has_code("SC01"));
  // SC01: the same memory tested twice in one pass.
  auto dup = base;
  dup.push_back(base[at("gpu_tile")]);
  EXPECT_TRUE(certify(dup).has_code("SC01"));
  // SC02: icache and dcache share the cpu_ctrl seat; forcing icache to
  // start at 0 overlaps dcache's session on that seat.
  auto seat = base;
  seat[at("icache")].start = seat[at("dcache")].start;
  EXPECT_TRUE(certify(seat).has_code("SC02"));
  // SC03: nic_fifo is seat-independent, but pulling it to cycle 0 pushes
  // the summed toggle weight past the 40-unit budget.
  auto power = base;
  power[at("nic_fifo")].start = 0;
  EXPECT_TRUE(certify(power).has_code("SC03"));
  // SC04: stored cycle counts disagree with the re-derived controller run.
  auto recost = base;
  recost[0].test += 1;
  EXPECT_TRUE(certify(recost).has_code("SC04"));
  // SC05: stored weight disagrees with the plan's effective weight.
  auto weight = base;
  weight[0].weight += 1.0;
  EXPECT_TRUE(certify(weight).has_code("SC05"));
  // SC06: an assigned memory silently dropped from the schedule.
  auto missing = base;
  missing.erase(missing.begin());
  EXPECT_TRUE(certify(missing).has_code("SC06"));
  // SC07: a retest of gpu_tile, where repair can never engage (no spares).
  auto no_repair = base;
  auto ghost = base[at("gpu_tile")];
  ghost.retest = true;
  no_repair.push_back(ghost);
  EXPECT_TRUE(certify(no_repair).has_code("SC07"));
  // SC07: a fuse_box retest that starts before its first pass finishes.
  auto early = base;
  auto retest = base[at("fuse_box")];
  retest.retest = true;
  early.push_back(retest);
  EXPECT_TRUE(certify(early).has_code("SC07"));
}

TEST(Certify, FieldSessionTableIsClean) {
  const auto chip = example_chip();
  const auto profile = example_profile();
  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       {.jobs = 1});
  ASSERT_FALSE(report.sessions.empty());
  // Both overloads: the raw session table and the full report (which adds
  // the SC11 signature-discipline sweep).
  const auto table = lint::certify_field(
      chip.description, chip.plan, profile,
      field::field_schedule_entries(report.sessions));
  EXPECT_TRUE(table.empty()) << lint::format_text(table);
  const auto full =
      lint::certify_field(chip.description, chip.plan, profile, report);
  EXPECT_TRUE(full.empty()) << lint::format_text(full);
}

TEST(Certify, SeededFieldCorruptionsFireTheirCodes) {
  const auto chip = example_chip();
  const auto profile = example_profile();
  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       {.jobs = 1});
  const auto base = field::field_schedule_entries(report.sessions);
  ASSERT_GE(base.size(), 4u);

  const auto certify = [&](std::vector<field::FieldScheduleEntry> entries) {
    return lint::certify_field(chip.description, chip.plan, profile,
                               entries);
  };

  // SC01: a burst for a memory outside the plan.
  auto unknown = base;
  unknown[0].session.memory = "phantom";
  EXPECT_TRUE(certify(unknown).has_code("SC01"));
  // SC07: pass 0 flagged as a BISR retest.
  auto retest = base;
  retest[0].session.retest = true;
  EXPECT_TRUE(certify(retest).has_code("SC07"));
  // SC08: a burst shifted past the horizon sits outside every window.
  auto outside = base;
  {
    auto& s = outside.back().session;
    const auto len = s.end_cycle - s.start_cycle;
    s.start_cycle = profile.horizon + 1000;
    s.end_cycle = s.start_cycle + len;
  }
  EXPECT_TRUE(certify(outside).has_code("SC08"));
  // SC09: breaking a resume chain (a later burst of some memory skips a
  // segment).  Find a memory with two bursts.
  auto chain = base;
  bool broke = false;
  for (std::size_t i = 1; i < chain.size() && !broke; ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (chain[j].session.memory == chain[i].session.memory) {
        chain[i].session.segment_begin += 1;
        broke = true;
        break;
      }
  ASSERT_TRUE(broke) << "no memory needed a second burst";
  EXPECT_TRUE(certify(chain).has_code("SC09"));
  // SC10: more concurrent bursts than the profile's bus lanes.  Pile
  // bursts of distinct memories onto the first burst's span.
  auto bus = base;
  std::size_t piled = 1;
  for (std::size_t i = 1;
       i < bus.size() && piled <= profile.bus_budget; ++i) {
    if (bus[i].session.memory == bus[0].session.memory) continue;
    bus[i].session.start_cycle = bus[0].session.start_cycle;
    bus[i].session.end_cycle = bus[0].session.end_cycle;
    ++piled;
  }
  ASSERT_GT(piled, profile.bus_budget);
  EXPECT_TRUE(certify(bus).has_code("SC10"));
}

TEST(Certify, InterruptedPassWithSignatureIsSc11) {
  // SC11 is api_only: the on-disk table carries no signatures, so the
  // violation is only expressible through the FieldReport overload.
  const auto chip = example_chip();
  const auto profile = example_profile();
  auto report = field::run_field(chip.description, chip.plan, profile,
                                 {.jobs = 1});
  bool corrupted = false;
  for (auto& inst : report.instances) {
    for (auto& pass : inst.passes)
      if (pass.completed() && pass.signature.has_value()) {
        pass.state = bist::SessionState::Interrupted;
        corrupted = true;
        break;
      }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no completed pass with a signature to corrupt";
  const auto cert =
      lint::certify_field(chip.description, chip.plan, profile, report);
  EXPECT_TRUE(cert.has_code("SC11")) << lint::format_text(cert);
  EXPECT_TRUE(lint::find_code("SC11")->api_only);
}

TEST(ScheduleIo, SocRoundTripAndErrorLines) {
  const auto chip = example_chip();
  const auto schedule =
      soc::Scheduler{}.compute_schedule(chip.description, chip.plan);
  const std::string text = soc::to_schedule_text("rt", schedule);
  const auto parsed = soc::parse_schedule_text(text);
  EXPECT_EQ(parsed.name, "rt");
  auto expected = soc::schedule_entries(schedule);
  ASSERT_EQ(parsed.entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    auto e = parsed.entries[i];
    e.line = -1;  // only the source location may differ
    EXPECT_EQ(e, expected[i]) << "entry " << i;
  }
  try {
    (void)soc::parse_schedule_text("schedule x\nsession a start=0\n");
    ADD_FAILURE() << "expected ScheduleError";
  } catch (const soc::ScheduleError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ScheduleIo, FieldRoundTripAndErrorLines) {
  const auto chip = example_chip();
  const auto profile = example_profile();
  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       {.jobs = 1});
  const std::string text =
      field::to_field_schedule_text("rt", report.sessions);
  const auto parsed = field::parse_field_schedule_text(text);
  EXPECT_EQ(parsed.name, "rt");
  ASSERT_EQ(parsed.entries.size(), report.sessions.size());
  for (std::size_t i = 0; i < report.sessions.size(); ++i)
    EXPECT_EQ(parsed.entries[i].session, report.sessions[i]) << "entry " << i;
  try {
    (void)field::parse_field_schedule_text(
        "fieldschedule x\nfsession a pass=0 seg=2..1 start=0 end=9 "
        "reload=0\n");
    ADD_FAILURE() << "expected FieldScheduleError";
  } catch (const field::FieldScheduleError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ScheduleIo, NamesAndWeightsRoundTripExactly) {
  for (const std::string name : {"a b", "tab\there", "hash#tag"}) {
    soc::ScheduledSession s;
    s.memory = name;
    s.start_cycle = 7;
    s.load_cycles = 2;
    s.test_cycles = 40;
    s.power_weight = 1.234567891;
    s.retest = true;
    const auto text = soc::to_schedule_text(name, {s});
    const auto parsed = soc::parse_schedule_text(text);
    EXPECT_EQ(parsed.name, name) << text;
    ASSERT_EQ(parsed.entries.size(), 1u) << text;
    auto entry = parsed.entries[0];
    EXPECT_EQ(entry.line, 3);
    entry.line = -1;
    EXPECT_EQ(entry, soc::schedule_entries({s})[0]) << text;

    field::FieldSession f;
    f.memory = name;
    f.pass = 1;
    f.segment_begin = 2;
    f.segment_end = 5;
    f.start_cycle = 10;
    f.end_cycle = 30;
    f.reload_cycles = 3;
    const auto ftext = field::to_field_schedule_text(name, {f});
    const auto fparsed = field::parse_field_schedule_text(ftext);
    EXPECT_EQ(fparsed.name, name) << ftext;
    ASSERT_EQ(fparsed.entries.size(), 1u) << ftext;
    EXPECT_EQ(fparsed.entries[0].session, f) << ftext;
  }
  // A weight "%g" renders exactly is written that way: 30, not 3e+01.
  soc::ScheduledSession s;
  s.memory = "m";
  s.power_weight = 30;
  EXPECT_NE(soc::to_schedule_text("w", {s}).find(" weight=30\n"),
            std::string::npos)
      << soc::to_schedule_text("w", {s});
}

TEST(ScheduleIo, NumbersAreDecimalAndErrorsCarryTheirLine) {
  const auto parsed = soc::parse_schedule_text(
      "schedule s\nsession m start=010 load=0 test=1\n");
  EXPECT_EQ(parsed.entries[0].start, 10u);
  const auto line_of = [](const auto& parse, const std::string& text) {
    try {
      parse(text);
    } catch (const common::DirectiveError& e) {
      return e.line();
    }
    return 0;
  };
  const auto soc_parse = [](const std::string& t) {
    (void)soc::parse_schedule_text(t);
  };
  const auto field_parse = [](const std::string& t) {
    (void)field::parse_field_schedule_text(t);
  };
  EXPECT_EQ(line_of(soc_parse, "schedule s\n\nsession m start=0x1 load=0 "
                               "test=1\n"),
            3);
  EXPECT_EQ(line_of(soc_parse, "schedule s\nsession m start=1 start=2 load=0 "
                               "test=1\n"),
            2);
  EXPECT_EQ(line_of(soc_parse, "session m start=1 load=0 test=1\n"), 1);
  EXPECT_EQ(line_of(soc_parse, "# empty\n"), -1);
  EXPECT_EQ(line_of(field_parse, "fieldschedule f\nfsession m pass=0 seg=1 "
                                 "start=0 end=1 reload=0\n"),
            2);
  // The linter reports the same line.
  lint::LintOptions with_chip;
  with_chip.chip = read_repo_file("examples/soc_demo.chip");
  const auto report = lint::lint_text(
      "schedule s\n# gap\nsession m start=x load=0 test=1\n", "s",
      with_chip);
  ASSERT_TRUE(report.has_code("SC00")) << lint::format_text(report);
  EXPECT_EQ(report.diagnostics()[0].index, 3) << lint::format_text(report);
}

TEST(Certify, DriverRoutesSchedulesAndRequiresContext) {
  const std::string chip_text = read_repo_file("examples/soc_demo.chip");
  const std::string profile_text =
      read_repo_file("examples/soc_demo.profile");
  const auto chip = soc::parse_chip(chip_text);
  const auto profile = field::parse_profile_text(profile_text);

  lint::LintOptions with_chip;
  with_chip.chip = chip_text;
  lint::LintOptions with_both = with_chip;
  with_both.profile = profile_text;
  lint::LintOptions certify_only;
  certify_only.certify = true;
  lint::LintOptions certify_chip = with_chip;
  certify_chip.certify = true;

  const std::string soc_text = soc::to_schedule_text(
      "s", soc::Scheduler{}.compute_schedule(chip.description, chip.plan));
  // Without a chip there is nothing to certify against: SC00, not a throw.
  EXPECT_TRUE(lint::lint_text(soc_text, "s").has_code("SC00"));
  // With the chip supplied the emitted schedule certifies clean.
  const auto ok = lint::lint_text(soc_text, "s", with_chip);
  EXPECT_TRUE(ok.empty()) << lint::format_text(ok);
  // Parse errors become SC00 with the offending line.
  const auto bad =
      lint::lint_text("schedule s\nsession ???\n", "s", with_chip);
  EXPECT_TRUE(bad.has_code("SC00")) << lint::format_text(bad);

  const auto field_report = field::run_field(chip.description, chip.plan,
                                             profile, {.jobs = 1});
  const std::string field_text =
      field::to_field_schedule_text("f", field_report.sessions);
  // A field schedule needs chip AND profile.
  EXPECT_TRUE(lint::lint_text(field_text, "f", with_chip).has_code("SC00"));
  const auto fok = lint::lint_text(field_text, "f", with_both);
  EXPECT_TRUE(fok.empty()) << lint::format_text(fok);

  // --certify on the chip and profile inputs themselves re-derives and
  // certifies the schedules behind them.
  const auto chip_cert = lint::lint_text(chip_text, "c", certify_only);
  EXPECT_FALSE(chip_cert.has_errors()) << lint::format_text(chip_cert);
  const auto prof_cert = lint::lint_text(profile_text, "p", certify_chip);
  EXPECT_FALSE(prof_cert.has_errors()) << lint::format_text(prof_cert);
  // A profile cannot be certified without its chip.
  EXPECT_TRUE(
      lint::lint_text(profile_text, "p", certify_only).has_code("SC00"));
}

TEST(ChipLint, JsonMirrorLintsIdenticallyToText) {
  // The JSON mirror must produce the same semantic findings as the text
  // chip it was generated from (CH01 is text-only by construction: JSON
  // objects cannot express a duplicate directive).
  const std::string text = read_repo_file("examples/soc_demo.chip");
  const auto chip = soc::parse_chip(text);
  const std::string json =
      soc::serialize_chip_json(chip.description, chip.plan);
  ASSERT_EQ(lint::detect_kind(json), lint::InputKind::Chip);

  const auto from_text = lint::lint_chip_text(text, "u");
  const auto from_json = lint::lint_chip_text(json, "u");
  auto codes = [](const lint::Report& r) {
    std::vector<std::string> out;
    for (const auto& d : r.diagnostics()) out.push_back(d.code);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(codes(from_text), codes(from_json))
      << lint::format_text(from_text) << "\nvs\n"
      << lint::format_text(from_json);
  EXPECT_EQ(from_text.has_errors(), from_json.has_errors());
}

TEST(Diagnostics, JsonOrderingIsDeterministic) {
  // format_json sorts by (unit, code, index) regardless of emission
  // order; format_text keeps emission order for humans.
  lint::Report a;
  a.add("UC03", "zeta", 7, "late");
  a.add("MA01", "alpha", 2, "early");
  a.add("MA01", "alpha", 1, "earlier");
  lint::Report b;
  b.add("MA01", "alpha", 1, "earlier");
  b.add("UC03", "zeta", 7, "late");
  b.add("MA01", "alpha", 2, "early");
  EXPECT_EQ(lint::format_json(a), lint::format_json(b));
  EXPECT_NE(lint::format_text(a), lint::format_text(b));

  // And repeated full lint runs render byte-identical JSON.
  const std::string input = read_case("dead_code.ucode.hex");
  const auto r1 = lint::lint_text(input, "u");
  const auto r2 = lint::lint_text(input, "u");
  EXPECT_EQ(lint::format_json(r1), lint::format_json(r2));
  EXPECT_EQ(lint::format_cli(r1, "u", true), lint::format_cli(r2, "u", true));
}

TEST(Fix, ChipPowerFixRoundTripRecertifies) {
  const std::string text = read_case("infeasible_power.chip");
  ASSERT_TRUE(lint::lint_chip_text(text, "u").has_code("CH07"));
  const auto fixed = lint::fix_chip_text(text, "infeasible_power.chip");
  ASSERT_TRUE(fixed.changed) << fixed.summary;
  EXPECT_NE(fixed.summary.find("power_budget"), std::string::npos)
      << fixed.summary;
  const auto relint = lint::lint_chip_text(fixed.text, "u");
  EXPECT_FALSE(relint.has_code("CH07")) << lint::format_text(relint);
  // The semantic-diff guarantee: the rewritten chip's schedule certifies.
  const auto chip = soc::parse_chip(fixed.text);
  const auto cert = lint::certify_soc(
      chip.description, chip.plan,
      soc::Scheduler{}.compute_schedule(chip.description, chip.plan));
  EXPECT_TRUE(cert.empty()) << lint::format_text(cert);
}

TEST(Fix, ChipSpareFixDropsDeadSpares) {
  // Spares on a word-oriented memory can never engage (repair is
  // bit-oriented): CH09, mechanically fixable by dropping them.
  const std::string text =
      "soc s\n"
      "power_budget 10\n"
      "mem a addr_bits=4 word_bits=8 seed=1 spare_rows=1\n"
      "assign a \"March C\" ucode\n";
  ASSERT_TRUE(lint::lint_chip_text(text, "u").has_code("CH09"));
  const auto fixed = lint::fix_chip_text(text, "u");
  ASSERT_TRUE(fixed.changed) << fixed.summary;
  EXPECT_NE(fixed.summary.find("spare"), std::string::npos) << fixed.summary;
  const auto relint = lint::lint_chip_text(fixed.text, "u");
  EXPECT_FALSE(relint.has_code("CH09")) << lint::format_text(relint);
  const auto chip = soc::parse_chip(fixed.text);
  const auto cert = lint::certify_soc(
      chip.description, chip.plan,
      soc::Scheduler{}.compute_schedule(chip.description, chip.plan));
  EXPECT_TRUE(cert.empty()) << lint::format_text(cert);
}

TEST(Fix, MarchFixKeepsProverVerdictUnchangedOrBetter) {
  // A custom algorithm with a dead trailing element: the fix may only
  // remove it because the prover's guaranteed classes survive.
  march::MarchAlgorithm alg = march::parse(
      "any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0); "
      "any(r0)",
      "padded");
  const auto before = lint::prove_coverage(alg);
  const auto outcome = lint::fix_march(alg);
  EXPECT_TRUE(alg.validate().empty());
  const auto after = lint::prove_coverage(alg);
  for (const auto cls : lint::provable_classes()) {
    const auto* b = before.find(cls);
    const auto* a = after.find(cls);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(a, nullptr);
    if (b->guaranteed) {
      EXPECT_TRUE(a->guaranteed)
          << memsim::fault_class_name(cls) << " lost after fix: "
          << outcome.summary;
    }
  }
}

}  // namespace
